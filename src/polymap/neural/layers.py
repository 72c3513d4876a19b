"""Composite layers over the autodiff ops: linear, FFN, attention, ROI align."""
from __future__ import annotations

import math

import numpy as np

from ..geometry import BBox
from .params import ParamStore
from .tensor import (
    Tensor,
    _accum,
    _node,
    add,
    batch_norm,
    conv2d_3x3,
    matmul,
    relu,
    reshape,
    scale,
    softmax,
    transpose,
)


def glorot_uniform(rng: np.random.RandomState, shape: tuple[int, ...],
                   fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_linear(store: ParamStore, rng: np.random.RandomState,
                prefix: str, fan_in: int, fan_out: int) -> None:
    store.add_param(f"{prefix}.w", glorot_uniform(rng, (fan_in, fan_out), fan_in, fan_out))
    store.add_param(f"{prefix}.b", np.zeros(fan_out))


def linear(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    return add(matmul(x, store[f"{prefix}.w"]), store[f"{prefix}.b"])


def init_layer_norm(store: ParamStore, prefix: str, dim: int) -> None:
    store.add_param(f"{prefix}.gamma", np.ones(dim))
    store.add_param(f"{prefix}.beta", np.zeros(dim))


def init_conv3x3(store: ParamStore, rng: np.random.RandomState,
                 prefix: str, c_in: int, c_out: int) -> None:
    fan_in = c_in * 9
    fan_out = c_out * 9
    store.add_param(f"{prefix}.w", glorot_uniform(rng, (c_out, c_in, 3, 3), fan_in, fan_out))
    store.add_param(f"{prefix}.b", np.zeros(c_out))


def init_conv1x1(store: ParamStore, rng: np.random.RandomState,
                 prefix: str, c_in: int, c_out: int) -> None:
    store.add_param(f"{prefix}.w", glorot_uniform(rng, (c_out, c_in), c_in, c_out))
    store.add_param(f"{prefix}.b", np.zeros(c_out))


def init_batch_norm(store: ParamStore, prefix: str, channels: int) -> None:
    store.add_param(f"{prefix}.gamma", np.ones(channels))
    store.add_param(f"{prefix}.beta", np.zeros(channels))
    store.add_buffer(f"{prefix}.running_mean", np.zeros(channels))
    store.add_buffer(f"{prefix}.running_var", np.ones(channels))


def apply_batch_norm(x: Tensor, store: ParamStore, prefix: str, training: bool) -> Tensor:
    return batch_norm(
        x,
        store[f"{prefix}.gamma"],
        store[f"{prefix}.beta"],
        store.buffer(f"{prefix}.running_mean"),
        store.buffer(f"{prefix}.running_var"),
        training,
    )


def conv_bn_relu(x: Tensor, store: ParamStore, prefix: str, training: bool) -> Tensor:
    x = conv2d_3x3(x, store[f"{prefix}.conv.w"], store[f"{prefix}.conv.b"])
    x = apply_batch_norm(x, store, f"{prefix}.bn", training)
    return relu(x)


def init_ffn(store: ParamStore, rng: np.random.RandomState,
             prefix: str, dim: int, hidden: int) -> None:
    init_linear(store, rng, f"{prefix}.fc1", dim, hidden)
    init_linear(store, rng, f"{prefix}.fc2", hidden, dim)


def ffn(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    return linear(relu(linear(x, store, f"{prefix}.fc1")), store, f"{prefix}.fc2")


def init_attention(store: ParamStore, rng: np.random.RandomState,
                   prefix: str, dim: int) -> None:
    for name in ("wq", "wk", "wv", "wo"):
        init_linear(store, rng, f"{prefix}.{name}", dim, dim)


def _split_heads(t: Tensor, heads: int) -> Tensor:
    *lead, length, dim = t.shape
    n = len(lead)
    t = reshape(t, (*lead, length, heads, dim // heads))
    return transpose(t, tuple(range(n)) + (n + 1, n, n + 2))


def _merge_heads(t: Tensor) -> Tensor:
    *lead, heads, length, dh = t.shape
    n = len(lead)
    t = transpose(t, tuple(range(n)) + (n + 1, n, n + 2))
    return reshape(t, (*lead, length, heads * dh))


def multi_head_attention(
    query: Tensor,
    key: Tensor,
    value: Tensor,
    store: ParamStore,
    prefix: str,
    heads: int,
    return_weights: bool = False,
):
    """Scaled dot-product attention with H heads and an output projection."""
    dim = query.shape[-1]
    q = _split_heads(linear(query, store, f"{prefix}.wq"), heads)
    k = _split_heads(linear(key, store, f"{prefix}.wk"), heads)
    v = _split_heads(linear(value, store, f"{prefix}.wv"), heads)
    n = k.data.ndim
    scores = matmul(q, transpose(k, tuple(range(n - 2)) + (n - 1, n - 2)))
    scores = scale(scores, 1.0 / math.sqrt(dim / heads))
    attn = softmax(scores)
    out = linear(_merge_heads(matmul(attn, v)), store, f"{prefix}.wo")
    if return_weights:
        return out, attn
    return out


def sinusoidal_encoding(length: int, dim: int) -> np.ndarray:
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * np.floor(idx / 2.0)) / dim)
    return np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))


def _interpolation_matrix(coords: np.ndarray, size: int) -> np.ndarray:
    """(G, size) weights averaging the border-clamped bilinear samples of each bin.

    `coords` is (G, 2): the two sample positions of every bin along one axis.
    """
    idx = np.clip(coords - 0.5, 0.0, size - 1.0)
    lo = np.floor(idx).astype(np.int64)
    lo = np.minimum(lo, max(size - 2, 0))
    frac = idx - lo
    hi = np.minimum(lo + 1, size - 1)
    rows = np.repeat(np.arange(coords.shape[0]), coords.shape[1])
    mat = np.zeros((coords.shape[0], size), dtype=np.float64)
    np.add.at(mat, (rows, lo.ravel()), (1.0 - frac.ravel()) / 2.0)
    np.add.at(mat, (rows, hi.ravel()), frac.ravel() / 2.0)
    return mat


def roi_align_stack(features: Tensor, rois: list[tuple[int, BBox]], out_size: int) -> Tensor:
    """Bilinear crop-and-resize of (N, C, H, W) features for a list of (image index, box).

    Each output bin averages a 2x2 grid of bilinear samples.  That grid is a
    tensor product, so one ROI is  A_y @ F[img, c] @ A_x.T  with (G, H) and
    (G, W) interpolation matrices, and its feature gradient is
    A_y.T @ g @ A_x.  Boxes must intersect the feature extent; sample
    positions are clamped at the border.
    """
    if features.data.ndim != 4:
        raise ValueError(f"roi_align: expected (N, C, H, W) features, got {features.data.shape}")
    n, c, hf, wf = features.data.shape
    g = out_size
    # Two samples per bin per axis, at the quarter points of each bin.
    steps = np.arange(g)[:, None] + (np.arange(2)[None, :] + 0.5) / 2.0  # (G, 2)
    outputs = np.empty((len(rois), c, g, g), dtype=np.float64)
    tables = []
    for r, (img, box) in enumerate(rois):
        if not 0 <= img < n:
            raise ValueError(f"roi_align: image index {img} out of range for batch {n}")
        x0, y0, x1, y1 = box.corners()
        if x1 <= 0 or y1 <= 0 or x0 >= wf or y0 >= hf:
            raise ValueError(f"roi_align: box {box} does not intersect {wf}x{hf} feature")
        ay = _interpolation_matrix(y0 + steps * (box.h / g), hf)
        ax = _interpolation_matrix(x0 + steps * (box.w / g), wf)
        outputs[r] = (ay @ features.data[img]) @ ax.T
        tables.append((img, ay, ax))

    def backward(grad):
        gf = np.zeros_like(features.data)
        for r, (img, ay, ax) in enumerate(tables):
            gf[img] += ay.T @ (grad[r] @ ax)
        _accum(features, gf)

    return _node(outputs, (features,), "roi_align", backward)
