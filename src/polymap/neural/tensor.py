"""Minimal reverse-mode autodiff over float32 or float64 numpy arrays.

Each op builds a node holding a backward closure; Tensor.backward() walks
the graph once in reverse topological order.  Gradients accumulate into
every tensor that requires them, so callers zero parameter grads between
steps.  A graph instance is single-threaded; distinct graphs are
independent.

A tensor keeps a float32 or float64 array's dtype and stores anything else
as float64.  Every op returns its inputs' dtype, arrays an op builds
internally follow its input, and a gradient arriving at a tensor is cast to
that tensor's dtype, so a graph over float32 leaves computes in float32
throughout.  `cast` is the one op that changes dtype.
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

LAYER_NORM_EPS = 1e-5
BATCH_NORM_EPS = 1e-5
# Weight of the current batch in batch norm's running statistics.
BATCH_NORM_MOMENTUM = 0.1


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
        arr = np.asarray(data)
        self.data = arr if arr.dtype == np.float32 else np.asarray(arr, dtype=np.float64)
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
    g = g.astype(t.data.dtype, copy=False)
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


def cast(x: Tensor, dtype) -> Tensor:
    """`x` as `dtype`; the gradient flows back cast to `x`'s dtype."""
    data = x.data.astype(dtype, copy=False)

    def backward(g):
        _accum(x, g)

    return _node(data, (x,), "cast", backward)


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
    data = np.maximum(x.data, 0)

    def backward(g):
        _accum(x, g * (data > 0))

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


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis, then apply the learnable affine map."""
    _check(gamma.data.shape == (x.data.shape[-1],), "layer_norm",
           f"gamma shape {gamma.data.shape} does not match feature dim {x.data.shape[-1]}")
    # Centre once; the centred array serves the variance and becomes x-hat.
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
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
        running_mean *= 1.0 - BATCH_NORM_MOMENTUM
        running_mean += BATCH_NORM_MOMENTUM * mu
        running_var *= 1.0 - BATCH_NORM_MOMENTUM
        running_var += BATCH_NORM_MOMENTUM * unbiased
        inv = 1.0 / np.sqrt(var + BATCH_NORM_EPS)
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

    dtype = x.data.dtype
    inv = (1.0 / np.sqrt(running_var + BATCH_NORM_EPS)).astype(dtype, copy=False)
    mean = running_mean.astype(dtype, copy=False)
    xhat = (x.data - mean.reshape(shape)) * inv.reshape(shape)
    data = gamma.data.reshape(shape) * xhat + beta.data.reshape(shape)

    def backward(g):
        _accum(gamma, (g * xhat).sum(axis=(0, 2, 3)))
        _accum(beta, g.sum(axis=(0, 2, 3)))
        _accum(x, g * (gamma.data * inv).reshape(shape))

    return _node(data, (x, gamma, beta), "batch_norm", backward)


_OFFSETS_3X3 = [(dy, dx) for dy in range(3) for dx in range(3)]


def _check_conv3x3(x: Tensor, w: Tensor, op: str) -> None:
    _check(x.data.ndim == 4, op, f"expected (N, C, H, W), got {x.data.shape}")
    _check(w.data.ndim == 4 and w.data.shape[2:] == (3, 3), op,
           f"expected (F, C, 3, 3) weights, got {w.data.shape}")
    _check(w.data.shape[1] == x.data.shape[1], op,
           f"input has {x.data.shape[1]} channels, weights expect {w.data.shape[1]}")


def _image_columns(x: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Each image index of (N, C, H, W) `x` with its (C*9, H*W) columns, zero-padded by 1.

    One padded image and one column buffer serve the whole batch, so the
    next image overwrites the columns yielded before it.
    """
    _, c, h, w = x.shape
    xp = np.zeros((c, h + 2, w + 2), dtype=x.dtype)
    # (C, 3, 3, H, W): the window at offset (dy, dx) of every output pixel.
    windows = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(1, 2))
    windows = windows.transpose(0, 3, 4, 1, 2)
    cols = np.empty(windows.shape, dtype=x.dtype)
    flat = cols.reshape(c * 9, h * w)
    for i, image in enumerate(x):
        xp[:, 1:-1, 1:-1] = image
        cols[...] = windows
        yield i, flat


def _conv3x3(x: np.ndarray, wm: np.ndarray) -> np.ndarray:
    """The bias-free (N, F, H, W) conv of `x` by (F, C*9) `wm`, one image at a time."""
    n, _, h, w = x.shape
    f = wm.shape[0]
    out = np.empty((n, f, h, w), dtype=np.result_type(x.dtype, wm.dtype))
    flat = out.reshape(n, f, h * w)
    for i, cols in _image_columns(x):
        np.matmul(wm, cols, out=flat[i])
    return out


def _conv3x3_grads(g: np.ndarray, wm: np.ndarray, x: Tensor):
    """Bias, weight and input gradients of a 3x3 conv from its output gradient.

    The columns are rebuilt from `x` one image at a time, so a conv node
    keeps none.  The weight gradient adds the per-image products to zeros in
    image order, as a batched product's `.sum(axis=0)` does.  The input
    gradient is None when `x` takes none, e.g. the image under the first
    stem conv.
    """
    n, c, h, w = x.data.shape
    f = wm.shape[0]
    gm = g.reshape(n, f, h * w)
    gb = g.sum(axis=(0, 2, 3))
    gw = np.zeros((f, c * 9), dtype=np.result_type(g.dtype, x.data.dtype))
    part = np.empty_like(gw)
    for i, cols in _image_columns(x.data):
        np.matmul(gm[i], cols.T, out=part)
        gw += part
    gw = gw.reshape(f, c, 3, 3)
    if not _needs_grad(x):
        return gb, gw, None
    gx = np.empty(x.data.shape, dtype=x.data.dtype)
    gcols = np.empty((c, 9, h, w), dtype=np.result_type(wm.dtype, g.dtype))
    gxp = np.empty((c, h + 2, w + 2), dtype=x.data.dtype)
    for i in range(n):
        np.matmul(wm.T, gm[i], out=gcols.reshape(c * 9, h * w))
        gxp.fill(0)
        for k, (dy, dx) in enumerate(_OFFSETS_3X3):
            gxp[:, dy:dy + h, dx:dx + w] += gcols[:, k]
        gx[i] = gxp[:, 1:-1, 1:-1]
    return gb, gw, gx


def conv2d_3x3(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """3x3 convolution, stride 1, zero padding 1, on (N, C, H, W)."""
    _check_conv3x3(x, w, "conv2d_3x3")
    f = w.data.shape[0]
    wm = w.data.reshape(f, -1)
    data = _conv3x3(x.data, wm) + b.data.reshape(1, f, 1, 1)

    def backward(g):
        gb, gw, gx = _conv3x3_grads(g, wm, x)
        _accum(b, gb)
        _accum(w, gw)
        if gx is not None:
            _accum(x, gx)

    return _node(data, (x, w, b), "conv2d_3x3", backward)


def conv_bn_relu(
    x: Tensor,
    w: Tensor,
    b: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
) -> Tensor:
    """relu(batch_norm(conv2d_3x3(x, w, b), gamma, beta, ...)) as one node.

    Training mode does the three ops' arithmetic in the same order, so its
    output, gradients and running statistics equal theirs bit for bit; it
    works in place and keeps only x-hat and the output for the backward,
    which rebuilds the im2col columns from `x` one image at a time.
    Inference mode folds batch norm into the conv: with s = gamma /
    sqrt(running_var + eps) per output channel, it convolves by w s and adds
    beta + (b - running_mean) s, both formed in float64 and cast to `x`'s
    dtype, so it matches the three ops to rounding.
    """
    _check_conv3x3(x, w, "conv_bn_relu")
    f = w.data.shape[0]
    _check(gamma.data.shape == (f,), "conv_bn_relu",
           f"gamma shape {gamma.data.shape} does not match {f} channels")
    if training:
        return _conv_bn_relu_training(x, w, b, gamma, beta, running_mean, running_var)
    return _conv_bn_relu_folded(x, w, b, gamma, beta, running_mean, running_var)


def _conv_bn_relu_training(x, w, b, gamma, beta, running_mean, running_var) -> Tensor:
    n, _, h, ww = x.data.shape
    f = w.data.shape[0]
    if n < 2:
        warnings.warn(
            "batch_norm training with batch size < 2 falls back to "
            "single-instance statistics",
            stacklevel=3,
        )
    shape = (1, f, 1, 1)
    axes = (0, 2, 3)
    wm = w.data.reshape(f, -1)
    xhat = _conv3x3(x.data, wm)
    xhat += b.data.reshape(shape)
    mu = xhat.mean(axis=axes)
    xhat -= mu.reshape(shape)
    var = (xhat * xhat).mean(axis=axes)
    count = n * h * ww
    unbiased = var * (count / max(1, count - 1))
    running_mean *= 1.0 - BATCH_NORM_MOMENTUM
    running_mean += BATCH_NORM_MOMENTUM * mu
    running_var *= 1.0 - BATCH_NORM_MOMENTUM
    running_var += BATCH_NORM_MOMENTUM * unbiased
    inv = 1.0 / np.sqrt(var + BATCH_NORM_EPS)
    xhat *= inv.reshape(shape)
    data = gamma.data.reshape(shape) * xhat
    data += beta.data.reshape(shape)
    np.maximum(data, 0, out=data)

    def backward(g):
        # The ReLU mask, then batch_norm's backward in place on the masked copy.
        gy = g * (data > 0)
        sum_g = gy.sum(axis=axes)
        sum_gx = np.einsum("nchw,nchw->c", gy, xhat)
        _accum(gamma, sum_gx)
        _accum(beta, sum_g)
        gy *= count
        gy -= sum_g.reshape(shape)
        gy -= xhat * sum_gx.reshape(shape)
        gy *= (gamma.data * inv / count).reshape(shape)
        gb, gw, gx = _conv3x3_grads(gy, wm, x)
        _accum(b, gb)
        _accum(w, gw)
        if gx is not None:
            _accum(x, gx)

    return _node(data, (x, w, b, gamma, beta), "conv_bn_relu", backward)


def _conv_bn_relu_folded(x, w, b, gamma, beta, running_mean, running_var) -> Tensor:
    f = w.data.shape[0]
    dtype = x.data.dtype
    inv = 1.0 / np.sqrt(running_var + BATCH_NORM_EPS)
    s = gamma.data.astype(np.float64) * inv
    w64 = w.data.astype(np.float64, copy=False)
    shift = b.data.astype(np.float64) - running_mean
    wm = (w64 * s.reshape(f, 1, 1, 1)).astype(dtype).reshape(f, -1)
    bias = (beta.data.astype(np.float64) + shift * s).astype(dtype)
    data = _conv3x3(x.data, wm)
    data += bias.reshape(1, f, 1, 1)
    np.maximum(data, 0, out=data)

    def backward(g):
        # Gradients of the folded w' and b', then the chain rule through the fold.
        gb, gw, gx = _conv3x3_grads(g * (data > 0), wm, x)
        _accum(w, gw * s.reshape(f, 1, 1, 1))
        _accum(b, gb * s)
        _accum(gamma, inv * ((gw * w64).sum(axis=(1, 2, 3)) + gb * shift))
        _accum(beta, gb)
        if gx is not None:
            _accum(x, gx)

    return _node(data, (x, w, b, gamma, beta), "conv_bn_relu", backward)


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

    `fn` sees the data as float64 whatever `x`'s dtype, and the loss node is
    a float64 scalar.  The gradient is treated as exact at the current
    point; `fn` must return d(value)/d(data) of matching shape.
    """
    value, grad = fn(np.asarray(x.data, dtype=np.float64))
    _check(grad.shape == x.data.shape, op,
           f"gradient shape {grad.shape} does not match input {x.data.shape}")

    def backward(g):
        _accum(x, float(g) * grad)

    return _node(np.asarray(value), (x,), op, backward)
