"""Minimal reverse-mode autodiff over float64 numpy arrays.

Each op builds a node holding a backward closure; Tensor.backward() walks
the graph once in reverse topological order.  Gradients accumulate into
every tensor that requires them, so callers zero parameter grads between
steps.  A graph instance is single-threaded; distinct graphs are
independent.
"""
from __future__ import annotations

import contextlib
import warnings
from typing import Callable, Iterator

import numpy as np

# Per-op backward scaling used to inject deliberate gradient corruption in
# verification harnesses.  Empty in normal operation.
_BACKWARD_SCALE: dict[str, float] = {}

_GRAD_ENABLED: list[bool] = [True]


@contextlib.contextmanager
def corrupt_gradient(op: str, factor: float = 2.0) -> Iterator[None]:
    """Scale the gradients flowing out of every `op` node (harness sanity tool)."""
    _BACKWARD_SCALE[op] = factor
    try:
        yield
    finally:
        _BACKWARD_SCALE.pop(op, None)


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Build no backward graph inside the block; forwards run leaner."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.op = op
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            g = node.grad
            scale = _BACKWARD_SCALE.get(node.op)
            if scale is not None:
                g = g * scale
            node._backward(g)

    def __repr__(self) -> str:
        return f"Tensor(op={self.op}, shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def _needs_grad(t: Tensor) -> bool:
    return t.requires_grad or t._backward is not None


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not _needs_grad(t):
        return
    t.grad = g if t.grad is None else t.grad + g


def _node(data: np.ndarray, parents: tuple[Tensor, ...], op: str,
          backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data, op=op)
    if _GRAD_ENABLED[-1] and any(_needs_grad(p) for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _check(cond: bool, op: str, msg: str) -> None:
    if not cond:
        raise ValueError(f"{op}: {msg}")


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False, op="constant")


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _node(data, (a, b), "add", backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _node(data, (a, b), "sub", backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), "mul", backward)


def scale(a: Tensor, factor: float) -> Tensor:
    data = a.data * factor

    def backward(g):
        _accum(a, g * factor)

    return _node(data, (a,), "scale", backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check(a.data.ndim >= 2 and b.data.ndim >= 2, "matmul",
           f"operands must be at least 2-D, got {a.data.shape} @ {b.data.shape}")
    _check(a.data.shape[-1] == b.data.shape[-2], "matmul",
           f"inner dimensions differ: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def backward(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        _accum(a, _unbroadcast(ga, a.data.shape))
        _accum(b, _unbroadcast(gb, b.data.shape))

    return _node(data, (a, b), "matmul", backward)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    data = np.where(mask, x.data, 0.0)

    def backward(g):
        _accum(x, g * mask)

    return _node(data, (x,), "relu", backward)


def sigmoid(x: Tensor) -> Tensor:
    data = 1.0 / (1.0 + np.exp(-x.data))

    def backward(g):
        _accum(x, g * data * (1.0 - data))

    return _node(data, (x,), "sigmoid", backward)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * data).sum(axis=-1, keepdims=True)
        _accum(x, data * (g - inner))

    return _node(data, (x,), "softmax", backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis, then apply the learnable affine map."""
    _check(gamma.data.shape == (x.data.shape[-1],), "layer_norm",
           f"gamma shape {gamma.data.shape} does not match feature dim {x.data.shape[-1]}")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    data = gamma.data * xhat + beta.data

    def backward(g):
        reduce_axes = tuple(range(g.ndim - 1))
        _accum(gamma, (g * xhat).sum(axis=reduce_axes))
        _accum(beta, g.sum(axis=reduce_axes))
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accum(x, inv * (dxhat - m1 - xhat * m2))

    return _node(data, (x, gamma, beta), "layer_norm", backward)


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Channel-wise normalization of an (N, C, H, W) tensor.

    Training mode uses batch statistics and updates the running buffers in
    place; inference mode is a deterministic affine map by the running
    statistics.
    """
    _check(x.data.ndim == 4, "batch_norm", f"expected (N, C, H, W), got {x.data.shape}")
    c = x.data.shape[1]
    _check(gamma.data.shape == (c,), "batch_norm",
           f"gamma shape {gamma.data.shape} does not match {c} channels")
    shape = (1, c, 1, 1)
    if training:
        if x.data.shape[0] < 2:
            warnings.warn(
                "batch_norm training with batch size < 2 falls back to "
                "single-instance statistics",
                stacklevel=2,
            )
        axes = (0, 2, 3)
        mu = x.data.mean(axis=axes)
        # Centre once; the centred array serves the variance and becomes x-hat.
        xhat = x.data - mu.reshape(shape)
        var = (xhat * xhat).mean(axis=axes)
        n = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
        unbiased = var * (n / max(1, n - 1))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
        inv = 1.0 / np.sqrt(var + eps)
        xhat *= inv.reshape(shape)
        data = gamma.data.reshape(shape) * xhat + beta.data.reshape(shape)

        def backward(g):
            # The two channel sums serve the gamma, beta and input gradients.
            sum_g = g.sum(axis=axes)
            sum_gx = np.einsum("nchw,nchw->c", g, xhat)
            _accum(gamma, sum_gx)
            _accum(beta, sum_g)
            dx = g * n
            dx -= sum_g.reshape(shape)
            dx -= xhat * sum_gx.reshape(shape)
            dx *= (gamma.data * inv / n).reshape(shape)
            _accum(x, dx)

        return _node(data, (x, gamma, beta), "batch_norm", backward)

    inv = 1.0 / np.sqrt(running_var + eps)
    xhat = (x.data - running_mean.reshape(shape)) * inv.reshape(shape)
    data = gamma.data.reshape(shape) * xhat + beta.data.reshape(shape)

    def backward(g):
        _accum(gamma, (g * xhat).sum(axis=(0, 2, 3)))
        _accum(beta, g.sum(axis=(0, 2, 3)))
        _accum(x, g * (gamma.data * inv).reshape(shape))

    return _node(data, (x, gamma, beta), "batch_norm", backward)


_OFFSETS_3X3 = [(dy, dx) for dy in range(3) for dx in range(3)]


def _im2col_3x3(xp: np.ndarray, h: int, w: int) -> np.ndarray:
    n, c = xp.shape[:2]
    cols = np.empty((n, c, 9, h, w), dtype=np.float64)
    for k, (dy, dx) in enumerate(_OFFSETS_3X3):
        cols[:, :, k] = xp[:, :, dy:dy + h, dx:dx + w]
    return cols.reshape(n, c * 9, h * w)


def conv2d_3x3(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """3x3 convolution, stride 1, zero padding 1, on (N, C, H, W)."""
    _check(x.data.ndim == 4, "conv2d_3x3", f"expected (N, C, H, W), got {x.data.shape}")
    _check(w.data.ndim == 4 and w.data.shape[2:] == (3, 3), "conv2d_3x3",
           f"expected (F, C, 3, 3) weights, got {w.data.shape}")
    _check(w.data.shape[1] == x.data.shape[1], "conv2d_3x3",
           f"input has {x.data.shape[1]} channels, weights expect {w.data.shape[1]}")
    n, c, h, ww = x.data.shape
    f = w.data.shape[0]
    xp = np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = _im2col_3x3(xp, h, ww)  # (N, C*9, H*W)
    wm = w.data.reshape(f, c * 9)
    out = np.matmul(wm[None, :, :], cols)  # (N, F, H*W)
    data = out.reshape(n, f, h, ww) + b.data.reshape(1, f, 1, 1)

    def backward(g):
        gm = g.reshape(n, f, h * ww)
        _accum(b, g.sum(axis=(0, 2, 3)))
        gw = np.matmul(gm, cols.transpose(0, 2, 1)).sum(axis=0)  # (F, C*9)
        _accum(w, gw.reshape(f, c, 3, 3))
        if not _needs_grad(x):  # e.g. the image under the first stem conv
            return
        gcols = np.matmul(wm.T[None, :, :], gm)  # (N, C*9, H*W)
        gcols = gcols.reshape(n, c, 9, h, ww)
        gxp = np.zeros_like(xp)
        for k, (dy, dx) in enumerate(_OFFSETS_3X3):
            gxp[:, :, dy:dy + h, dx:dx + ww] += gcols[:, :, k]
        _accum(x, gxp[:, :, 1:-1, 1:-1])

    return _node(data, (x, w, b), "conv2d_3x3", backward)


def conv2d_1x1(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Pointwise convolution on (N, C, H, W) with (F, C) weights."""
    _check(x.data.ndim == 4, "conv2d_1x1", f"expected (N, C, H, W), got {x.data.shape}")
    _check(w.data.ndim == 2 and w.data.shape[1] == x.data.shape[1], "conv2d_1x1",
           f"weight shape {w.data.shape} does not match {x.data.shape[1]} input channels")
    data = np.einsum("nchw,fc->nfhw", x.data, w.data) + b.data.reshape(1, -1, 1, 1)

    def backward(g):
        _accum(b, g.sum(axis=(0, 2, 3)))
        _accum(w, np.einsum("nfhw,nchw->fc", g, x.data))
        _accum(x, np.einsum("nfhw,fc->nchw", g, w.data))

    return _node(data, (x, w, b), "conv2d_1x1", backward)


def mean_all(x: Tensor) -> Tensor:
    data = np.asarray(x.data.mean())

    def backward(g):
        _accum(x, np.full_like(x.data, float(g) / x.data.size))

    return _node(data, (x,), "mean_all", backward)


def sum_all(x: Tensor) -> Tensor:
    data = np.asarray(x.data.sum())

    def backward(g):
        _accum(x, np.full_like(x.data, float(g)))

    return _node(data, (x,), "sum_all", backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = x.data.reshape(shape)

    def backward(g):
        _accum(x, g.reshape(x.data.shape))

    return _node(data, (x,), "reshape", backward)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    data = x.data.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        _accum(x, g.transpose(inverse))

    return _node(data, (x,), "transpose", backward)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    _check(len(tensors) > 0, "concat", "nothing to concatenate")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece)

    return _node(data, tuple(tensors), "concat", backward)


def attach_loss(x: Tensor, fn, op: str = "external_loss") -> Tensor:
    """Bridge a numpy loss  fn(data) -> (value, grad)  into the graph.

    The gradient is treated as exact at the current point; `fn` must return
    d(value)/d(data) of matching shape.
    """
    value, grad = fn(x.data)
    _check(grad.shape == x.data.shape, op,
           f"gradient shape {grad.shape} does not match input {x.data.shape}")

    def backward(g):
        _accum(x, float(g) * grad)

    return _node(np.asarray(value), (x,), op, backward)
