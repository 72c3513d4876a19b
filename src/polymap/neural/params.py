"""Named parameter/buffer store with a decoupled-weight-decay Adam update.

A store made by `init_model` or `load_checkpoint` holds float64 masters:
params, batch-norm running buffers and AdamW moments.  Training and
inference compute on a float32 `working_copy` and hand its gradients back
with `grads_from`, the master-weights pattern of mixed-precision training.
"""
from __future__ import annotations

import numpy as np

from .tensor import Tensor

ADAMW_BETA1 = 0.9
ADAMW_BETA2 = 0.999
ADAMW_EPS = 1e-8


class ParamStore:
    """Holds learnable tensors, persistent buffers, and optimizer moments."""

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.buffers: dict[str, np.ndarray] = {}
        self.moment1: dict[str, np.ndarray] = {}
        self.moment2: dict[str, np.ndarray] = {}
        self.step = 0

    def add_param(self, name: str, array: np.ndarray) -> Tensor:
        if name in self.params:
            raise ValueError(f"parameter {name!r} already exists")
        t = Tensor(np.asarray(array, dtype=np.float64), requires_grad=True)
        self.params[name] = t
        self.moment1[name] = np.zeros_like(t.data)
        self.moment2[name] = np.zeros_like(t.data)
        return t

    def add_buffer(self, name: str, array: np.ndarray) -> np.ndarray:
        if name in self.buffers:
            raise ValueError(f"buffer {name!r} already exists")
        self.buffers[name] = np.asarray(array, dtype=np.float64)
        return self.buffers[name]

    @property
    def dtype(self) -> np.dtype:
        """The params' dtype; forward passes compute in it."""
        return next(iter(self.params.values())).data.dtype

    def working_copy(self, dtype) -> ParamStore:
        """The params cast to `dtype`, sharing this store's buffers; no moments.

        Training-mode batch norm on the copy updates the shared running
        statistics in place, so they stay float64.
        """
        work = ParamStore()
        work.params = {
            name: Tensor(t.data.astype(dtype), requires_grad=True)
            for name, t in self.params.items()
        }
        work.buffers = self.buffers
        return work

    def grads_from(self, work: ParamStore) -> None:
        """Set every param's gradient to its `working_copy` gradient in this dtype."""
        for name, t in self.params.items():
            g = work.params[name].grad
            t.grad = None if g is None else g.astype(t.data.dtype)

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def buffer(self, name: str) -> np.ndarray:
        return self.buffers[name]

    def adamw_step(
        self,
        lr: float,
        weight_decay: float = 0.0,
        lr_scales: dict[str, float] | None = None,
    ) -> None:
        """One decoupled-weight-decay adaptive update over all parameters.

        `lr_scales` maps parameter-name prefixes to learning-rate
        multipliers (e.g. a slower backbone-style group).
        """
        self.step += 1
        bc1 = 1.0 - ADAMW_BETA1**self.step
        bc2 = 1.0 - ADAMW_BETA2**self.step
        for name, p in self.params.items():
            rate = lr
            if lr_scales:
                for prefix, factor in lr_scales.items():
                    if name.startswith(prefix):
                        rate = lr * factor
                        break
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.moment1[name]
            v = self.moment2[name]
            m *= ADAMW_BETA1
            m += (1.0 - ADAMW_BETA1) * g
            v *= ADAMW_BETA2
            v += (1.0 - ADAMW_BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAMW_EPS)
            p.data -= rate * (update + weight_decay * p.data)
