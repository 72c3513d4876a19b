"""Training losses for grid-token polygon prediction.

A polygon is supervised as a sequence of M grid-cell class tokens over a
G x G vocabulary plus one trailing NO-VERTEX class (index G*G).  The
sequence loss aligns the prediction to the ground truth's first vertex
(search + cyclic shift) and takes the minimum cross entropy over the two
traversal directions, so either vertex order is equally correct.

The losses that training runs (`sequence_loss`, `focal_loss`, `bce_loss`,
`box_l1_loss`) take a batch of arrays and return the batch loss and its
gradient with respect to the first argument.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import BBox, Polygon

PROB_CLAMP = 1e-7
# Focal loss exponents of CornerNet (Law & Deng, ECCV 2018), its alpha = 2 and beta = 4.
FOCAL_ALPHA = 2.0
FOCAL_GAMMA = 4.0


def no_vertex_index(grid_size: int) -> int:
    """Class index of the NO-VERTEX token for a G x G grid."""
    return grid_size * grid_size


@dataclass(frozen=True)
class VertexTokenSeq:
    """Ground-truth token sequence: K grid cells followed by NO-VERTEX padding."""

    tokens: tuple[int, ...]
    valid_count: int
    grid_size: int

    def __post_init__(self):
        g2 = self.grid_size * self.grid_size
        k = self.valid_count
        if not 0 <= k <= len(self.tokens):
            raise ValueError(f"valid_count {k} out of range for {len(self.tokens)} tokens")
        for i, t in enumerate(self.tokens):
            if i < k and not 0 <= t < g2:
                raise ValueError(f"token {t} at position {i} is not a grid cell")
            if i >= k and t != g2:
                raise ValueError(f"position {i} must be NO-VERTEX ({g2}), got {t}")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class PredDistSeq:
    """Predicted per-query categorical distributions over G*G + 1 classes."""

    dists: np.ndarray

    def __post_init__(self):
        if self.dists.ndim != 2:
            raise ValueError(f"expected (M, G*G+1) distributions, got shape {self.dists.shape}")
        g = int(math.isqrt(self.dists.shape[1] - 1))
        if g * g + 1 != self.dists.shape[1]:
            raise ValueError(f"vocabulary size {self.dists.shape[1]} is not G*G+1")
        if np.any(self.dists < 0):
            raise ValueError("distributions must be non-negative")
        sums = self.dists.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise ValueError("each row must sum to 1 within 1e-9")

    @property
    def grid_size(self) -> int:
        return int(math.isqrt(self.dists.shape[1] - 1))

    def __len__(self) -> int:
        return self.dists.shape[0]


@dataclass(frozen=True)
class LossWeights:
    lambda_cls: float = 1.0
    lambda_bbox: float = 1.0
    lambda_poly: float = 1.0

    def __post_init__(self):
        for name in ("lambda_cls", "lambda_bbox", "lambda_poly"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def _cell_of(u: float, v: float, grid_size: int) -> int:
    """Row-major cell index of normalized position (u, v) in [0, 1]^2, clamped."""
    col = min(grid_size - 1, max(0, int(u * grid_size)))
    row = min(grid_size - 1, max(0, int(v * grid_size)))
    return row * grid_size + col


def encode_gt_sequence(p: Polygon, grid_size: int, query_count: int, crop: BBox) -> VertexTokenSeq:
    """Map polygon vertices to grid-cell tokens inside `crop`, padded with NO-VERTEX.

    Consecutive vertices landing in the same cell collapse to one token
    (including the wrap from last back to first).
    """
    if len(p) > query_count:
        raise ValueError(
            f"polygon has {len(p)} vertices but only {query_count} queries; simplify it first"
        )
    x0, y0, _, _ = crop.corners()
    tokens: list[int] = []
    for x, y in p.vertices.tolist():
        cell = _cell_of((x - x0) / crop.w, (y - y0) / crop.h, grid_size)
        if not tokens or tokens[-1] != cell:
            tokens.append(cell)
    while len(tokens) > 1 and tokens[-1] == tokens[0]:
        tokens.pop()
    k = len(tokens)
    tokens.extend([no_vertex_index(grid_size)] * (query_count - k))
    return VertexTokenSeq(tokens=tuple(tokens), valid_count=k, grid_size=grid_size)


def encode_gt_maps(p: Polygon, grid_size: int, crop: BBox) -> tuple[np.ndarray, np.ndarray]:
    """Binary G x G vertex and edge target maps for a polygon inside `crop`.

    Each edge is sampled every quarter cell or finer: ceil(length / 0.25)
    steps, at a + (s / steps) * (b - a) for s = 0..steps.  Every vertex and
    every sample marks the cell it truncates into, clamped to the grid.
    """
    g = grid_size
    vertex = np.zeros((g, g), dtype=np.float64)
    edge = np.zeros((g, g), dtype=np.float64)
    x0, y0, _, _ = crop.corners()
    pts = (p.vertices - (x0, y0)) / (crop.w, crop.h) * g

    def mark(arr, xy):
        cells = np.clip(np.trunc(xy), 0, g - 1).astype(np.intp)
        arr[cells[:, 1], cells[:, 0]] = 1.0

    mark(vertex, pts)
    ends = np.roll(pts, -1, axis=0)
    steps = np.array([max(1, int(math.ceil(math.hypot(bx - ax, by - ay) / 0.25)))
                      for (ax, ay), (bx, by) in zip(pts.tolist(), ends.tolist())])
    # One row per sample: its edge and its step s along that edge.
    counts = steps + 1
    edge_of = np.repeat(np.arange(len(steps)), counts)
    s = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    t = (s / steps[edge_of])[:, None]
    a = pts[edge_of]
    mark(edge, a + t * (ends[edge_of] - a))
    return vertex, edge


def _argmax_cells(dists: np.ndarray) -> np.ndarray:
    return np.argmax(dists, axis=1)


def _cell_center(token: int, grid_size: int) -> tuple[float, float]:
    row, col = divmod(token, grid_size)
    return (col + 0.5, row + 0.5)


def search_reference(pred: PredDistSeq, gt_first: int, valid_count: int) -> int:
    """Index of the valid prediction row whose argmax cell lies closest to gt_first's cell.

    Rows predicting NO-VERTEX are skipped; ties break toward the smallest
    index; if every row predicts NO-VERTEX the first row is returned.
    """
    if valid_count < 1:
        raise ValueError("no valid rows to align: valid_count must be >= 1")
    g = pred.grid_size
    if not 0 <= gt_first < g * g:
        raise ValueError(f"gt_first {gt_first} is not a grid cell for G={g}")
    return _search_reference_arrays(pred.dists, gt_first, valid_count, g)


def _search_reference_arrays(dists: np.ndarray, gt_first: int, k: int, g: int) -> int:
    target = _cell_center(gt_first, g)
    args = _argmax_cells(dists[:k])
    best_t = 0
    best_d = math.inf
    for i in range(k):
        if args[i] == g * g:
            continue
        cx, cy = _cell_center(int(args[i]), g)
        d = math.hypot(cx - target[0], cy - target[1])
        if d < best_d:
            best_d = d
            best_t = i
    return best_t


def _shift_perm(m: int, t: int, k: int) -> np.ndarray:
    """Row permutation: aligned row i reads original row perm[i]."""
    perm = np.arange(m)
    perm[:k] = (np.arange(k) + t) % k
    return perm


def _inverse_perm(m: int, k: int) -> np.ndarray:
    """Row 0 fixed, rows 1..K-1 reversed, padding untouched."""
    perm = np.arange(m)
    if k > 2:
        perm[1:k] = np.arange(k - 1, 0, -1)
    return perm


def align_shift(pred: PredDistSeq, t: int, valid_count: int) -> PredDistSeq:
    """Cyclically rotate the first `valid_count` rows so row t becomes row 0."""
    m = len(pred)
    if not 0 <= t < valid_count <= m:
        raise ValueError(f"need 0 <= t < K <= M, got t={t}, K={valid_count}, M={m}")
    return PredDistSeq(pred.dists[_shift_perm(m, t, valid_count)])


def align_inverse(pred: PredDistSeq, valid_count: int) -> PredDistSeq:
    """Reverse traversal direction: keep row 0, flip rows 1..K-1."""
    m = len(pred)
    if valid_count > m:
        raise ValueError(f"valid_count {valid_count} exceeds sequence length {m}")
    return PredDistSeq(pred.dists[_inverse_perm(m, valid_count)])


def _ce_for_perm(tokens: tuple[int, ...], dists: np.ndarray, perm: np.ndarray) -> float:
    probs = dists[perm, list(tokens)]
    return float(np.mean(-np.log(np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP))))


def _bidirectional_arrays(
    tokens: tuple[int, ...], k: int, dists: np.ndarray, g: int
) -> tuple[float, np.ndarray]:
    m = len(tokens)
    t = _search_reference_arrays(dists, tokens[0], k, g)
    perm_shift = _shift_perm(m, t, k)
    perm_flip = perm_shift[_inverse_perm(m, k)]
    loss_shift = _ce_for_perm(tokens, dists, perm_shift)
    loss_flip = _ce_for_perm(tokens, dists, perm_flip)
    perm = perm_shift if loss_shift <= loss_flip else perm_flip
    grad = np.zeros_like(dists)
    probs = dists[perm, list(tokens)]
    live = (probs > PROB_CLAMP) & (probs < 1.0 - PROB_CLAMP)
    rows = perm[live]
    cols = np.asarray(tokens)[live]
    np.add.at(grad, (rows, cols), -1.0 / (m * probs[live]))
    return min(loss_shift, loss_flip), grad


def bidirectional_loss(gt: VertexTokenSeq, pred: PredDistSeq) -> tuple[float, np.ndarray]:
    """Orientation-invariant sequence cross entropy and its gradient.

    The prediction is aligned to the ground truth's first vertex (closest
    argmax cell, then cyclic shift of the valid rows) and the loss is the
    lower cross entropy of the aligned sequence and its reversed-direction
    twin, averaged over all M positions.  Alignment indices are constants:
    the gradient flows through the winning branch only.
    """
    value, grad = sequence_loss(pred.dists[None], [gt])
    return value, grad[0]


def _exhaustive_arrays(tokens: tuple[int, ...], k: int, dists: np.ndarray) -> float:
    m = len(tokens)
    best = math.inf
    flip = _inverse_perm(m, k)
    for r in range(k):
        perm = _shift_perm(m, r, k)
        best = min(best, _ce_for_perm(tokens, dists, perm))
        best = min(best, _ce_for_perm(tokens, dists, perm[flip]))
    return best


def exhaustive_alignment_loss(gt: VertexTokenSeq, pred: PredDistSeq) -> float:
    """Minimum cross entropy over all 2K rotations/reflections (testing utility)."""
    if gt.valid_count < 1:
        raise ValueError("ground truth must contain at least one vertex token")
    if len(gt) != len(pred):
        raise ValueError(f"sequence lengths differ: gt {len(gt)} vs pred {len(pred)}")
    return _exhaustive_arrays(gt.tokens, gt.valid_count, pred.dists)


def _mean_of_rows(values) -> float:
    """Per-row losses added in row order, then divided by the row count."""
    total = 0.0
    for v in values:
        total += float(v)
    return total / len(values)


def sequence_loss(
    dists: np.ndarray, targets: list[VertexTokenSeq]
) -> tuple[float, np.ndarray]:
    """Mean over a batch of the orientation-invariant sequence loss.

    Row b of the (B, M, G*G+1) `dists` is scored against `targets[b]` as
    in `bidirectional_loss`; the gradient has the shape of `dists`.
    """
    n = len(targets)
    if n == 0:
        raise ValueError("sequence loss needs at least one instance")
    if dists.ndim != 3 or dists.shape[0] != n:
        raise ValueError(f"expected ({n}, M, G*G+1) distributions, got shape {dists.shape}")
    m, vocab = dists.shape[1:]
    values = []
    grads = np.zeros_like(dists)
    for r, gt in enumerate(targets):
        if gt.valid_count < 1:
            raise ValueError(f"instance {r}: ground truth must contain at least one vertex token")
        if len(gt) != m:
            raise ValueError(f"instance {r}: sequence lengths differ: gt {len(gt)} vs pred {m}")
        if gt.grid_size * gt.grid_size + 1 != vocab:
            raise ValueError(f"instance {r}: grid size {gt.grid_size} does not fit {vocab} classes")
        value, grad = _bidirectional_arrays(gt.tokens, gt.valid_count, dists[r], gt.grid_size)
        values.append(value)
        grads[r] = grad
    return _mean_of_rows(values), grads / n


def focal_loss(probs: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """CornerNet focal loss of (B, ...) probability maps against 0/1 targets.

    Each instance contributes the mean over its pixels and the batch loss is
    the mean over instances.  Pixels whose probability lies outside the
    clamp get no gradient.
    """
    if probs.shape != targets.shape:
        raise ValueError(f"probs shape {probs.shape} != targets shape {targets.shape}")
    if probs.size == 0:
        raise ValueError("focal loss needs at least one pixel")
    n = probs.shape[0]
    a, g = FOCAL_ALPHA, FOCAL_GAMMA
    p = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    pos = targets > 0.5
    loss = np.where(pos, -a * (1.0 - p) ** g * np.log(p), -a * p**g * np.log(1.0 - p))
    dpos = a * g * (1.0 - p) ** (g - 1.0) * np.log(p) - a * (1.0 - p) ** g / p
    dneg = -a * g * p ** (g - 1.0) * np.log(1.0 - p) + a * p**g / (1.0 - p)
    grad = np.where(pos, dpos, dneg) / (probs.size // n)
    grad[(probs <= PROB_CLAMP) | (probs >= 1.0 - PROB_CLAMP)] = 0.0
    return _mean_of_rows(loss.reshape(n, -1).mean(axis=1)), grad / n


def bce_loss(probs: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean binary cross entropy of predicted scores against 0/1 labels.

    `probs` holds one score per label in any shape, such as an (N, 1)
    column; the gradient has the shape of `probs`.
    """
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    p_raw = np.asarray(probs, dtype=np.float64).reshape(-1)
    if y.size == 0:
        raise ValueError("classification loss needs at least one sample")
    if y.shape != p_raw.shape:
        raise ValueError(f"labels and probs lengths differ: {y.shape} vs {p_raw.shape}")
    p = np.clip(p_raw, PROB_CLAMP, 1.0 - PROB_CLAMP)
    loss = float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))
    grad = (-(y / p) + (1.0 - y) / (1.0 - p)) / y.size
    grad[(p_raw <= PROB_CLAMP) | (p_raw >= 1.0 - PROB_CLAMP)] = 0.0
    return loss, grad.reshape(np.shape(probs))


def box_l1_loss(
    boxes: np.ndarray, targets: np.ndarray, positive: np.ndarray
) -> tuple[float, np.ndarray]:
    """L1 distance of (N, 4) boxes to their targets over the positive rows.

    The loss is the summed absolute difference of the positive rows'
    (cx, cy, w, h) divided by their count; other rows get no gradient.
    """
    if boxes.shape != targets.shape or boxes.ndim != 2 or boxes.shape[1] != 4:
        raise ValueError(f"expected equal (N, 4) boxes and targets, got {boxes.shape} "
                         f"and {targets.shape}")
    if boxes.shape[0] == 0:
        raise ValueError("box regression loss needs at least one box")
    mask = np.asarray(positive, dtype=np.float64).reshape(-1, 1)
    if mask.shape[0] != boxes.shape[0]:
        raise ValueError(f"{mask.shape[0]} positive flags for {boxes.shape[0]} boxes")
    count = max(1, int(mask.sum()))
    diff = (boxes - targets) * mask
    return float(np.abs(diff).sum() / count), np.sign(diff) * mask / count
