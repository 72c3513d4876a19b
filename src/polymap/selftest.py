"""Built-in verification checks runnable from the CLI.

The naive reference implementations here are deliberately written with
plain Python lists and loops, or per-sample gathers and scatters,
independent of the fast numpy paths they verify.
Each check returns a (name, passed, detail) record; `run_selftest` drives
the whole suite and can inject a deliberately corrupted gradient to prove
the harness catches it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def naive_bidirectional_loss(
    tokens: list[int], valid_count: int, rows: list[list[float]], grid_size: int
) -> float:
    """Reference sequence loss: explicit scan, rotation, reversal, cross entropy."""
    k = valid_count
    no_vertex = grid_size * grid_size

    def center(cell: int) -> tuple[float, float]:
        return (cell % grid_size + 0.5, cell // grid_size + 0.5)

    tx, ty = center(tokens[0])
    best_i = 0
    best_d = None
    for i in range(k):
        row = rows[i]
        arg = row.index(max(row))
        if arg == no_vertex:
            continue
        cx, cy = center(arg)
        d = math.sqrt((cx - tx) ** 2 + (cy - ty) ** 2)
        if best_d is None or d < best_d:
            best_d = d
            best_i = i

    shifted = [rows[(i + best_i) % k] for i in range(k)] + list(rows[k:])
    flipped = [shifted[0]] + shifted[1:k][::-1] + list(shifted[k:])

    def cross_entropy(seq: list[list[float]]) -> float:
        total = 0.0
        for tok, row in zip(tokens, seq):
            p = min(max(row[tok], 1e-7), 1.0 - 1e-7)
            total += -math.log(p)
        return total / len(tokens)

    return min(cross_entropy(shifted), cross_entropy(flipped))


def naive_exhaustive_loss(
    tokens: list[int], valid_count: int, rows: list[list[float]]
) -> float:
    """Reference exhaustive alignment: every rotation, both directions."""
    k = valid_count

    def cross_entropy(seq):
        total = 0.0
        for tok, row in zip(tokens, seq):
            p = min(max(row[tok], 1e-7), 1.0 - 1e-7)
            total += -math.log(p)
        return total / len(tokens)

    best = math.inf
    for r in range(k):
        rot = [rows[(i + r) % k] for i in range(k)] + list(rows[k:])
        rev = [rot[0]] + rot[1:k][::-1] + list(rot[k:])
        best = min(best, cross_entropy(rot), cross_entropy(rev))
    return best


def naive_roi_align(
    features: np.ndarray, rois: list, out_size: int, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reference ROI align by per-sample gathers and `np.add.at` scatters.

    Returns the (R, C, G, G) crops of the (N, C, H, W) `features` and the
    gradient of sum(crops * upstream) with respect to `features`.
    """
    _, c, hf, wf = features.shape
    g = out_size

    def tables(coords, size):
        idx = np.clip(coords - 0.5, 0.0, size - 1.0)
        lo = np.minimum(np.floor(idx).astype(np.int64), max(size - 2, 0))
        return lo, np.minimum(lo + 1, size - 1), idx - lo

    values = np.empty((len(rois), c, g, g))
    grad = np.zeros_like(features)
    for r, (img, box) in enumerate(rois):
        x0, y0, _, _ = box.corners()
        # Two samples per bin per axis, at the quarter points of each bin.
        steps = np.arange(g)[:, None] + (np.arange(2)[None, :] + 0.5) / 2.0
        xlo, xhi, fx = tables(x0 + steps * (box.w / g), wf)
        ylo, yhi, fy = tables(y0 + steps * (box.h / g), hf)
        # The full (G, 2, G, 2) sample grid: y bins, y samples, x bins, x samples.
        YL, YH, FY = (t[:, :, None, None] for t in (ylo, yhi, fy))
        XL, XH, FX = (t[None, None, :, :] for t in (xlo, xhi, fx))
        corners = [
            (YL, XL, 1 - FY, 1 - FX),
            (YL, XH, 1 - FY, FX),
            (YH, XL, FY, 1 - FX),
            (YH, XH, FY, FX),
        ]
        fmap = features[img]
        values[r] = sum(fmap[:, ys, xs] * wy * wx for ys, xs, wy, wx in corners).mean(axis=(2, 4))
        gr = upstream[r][:, :, None, :, None] / 4.0  # spread over the 2x2 samples
        for ys, xs, wy, wx in corners:
            np.add.at(grad[img], (slice(None), ys, xs), gr * wy * wx)
    return values, grad


def _on_segment_mask(xs: np.ndarray, ys: np.ndarray, p1, p2) -> np.ndarray:
    """Boolean grid of (ys, xs) points lying exactly on segment p1-p2."""
    x1, y1 = p1
    x2, y2 = p2
    gx = xs[None, :]
    gy = ys[:, None]
    cross = (x2 - x1) * (gy - y1) - (y2 - y1) * (gx - x1)
    in_x = (gx >= min(x1, x2)) & (gx <= max(x1, x2))
    in_y = (gy >= min(y1, y2)) & (gy <= max(y1, y2))
    return (cross == 0.0) & in_x & in_y


def naive_rasterize(p, width: int, height: int):
    """Reference `rasterize`: one full-row parity XOR and one on-edge grid per edge."""
    from .geometry import RasterMask

    if width <= 0 or height <= 0:
        raise ValueError(f"raster dimensions must be positive, got {width}x{height}")
    arr = p.as_array()
    n = arr.shape[0]
    xs = np.arange(width, dtype=np.float64) + 0.5
    ys = np.arange(height, dtype=np.float64) + 0.5
    inside = np.zeros((height, width), dtype=np.bool_)

    # Parity of edge crossings along the +x ray from each pixel center.
    for i in range(n):
        x1, y1 = arr[i]
        x2, y2 = arr[(i + 1) % n]
        if y1 == y2:
            continue
        # Half-open span so a vertex shared by two edges is counted once.
        rows = (ys >= min(y1, y2)) & (ys < max(y1, y2))
        if not rows.any():
            continue
        t = (ys[rows] - y1) / (y2 - y1)
        x_cross = x1 + t * (x2 - x1)
        inside[rows] ^= xs[None, :] < x_cross[:, None]

    # Boundary rule: centers exactly on any edge are inside.  Restrict the
    # exact test to each edge's bounding rows/cols to keep it cheap.
    for i in range(n):
        p1 = arr[i]
        p2 = arr[(i + 1) % n]
        lo_c = max(0, int(math.floor(min(p1[0], p2[0]) - 0.5)))
        hi_c = min(width, int(math.ceil(max(p1[0], p2[0]) + 0.5)) + 1)
        lo_r = max(0, int(math.floor(min(p1[1], p2[1]) - 0.5)))
        hi_r = min(height, int(math.ceil(max(p1[1], p2[1]) + 0.5)) + 1)
        if lo_c >= hi_c or lo_r >= hi_r:
            continue
        sub = _on_segment_mask(xs[lo_c:hi_c], ys[lo_r:hi_r], p1, p2)
        inside[lo_r:hi_r, lo_c:hi_c] |= sub

    return RasterMask(width=width, height=height, bits=inside)


def naive_average_precision(hits, total_gt: int) -> float:
    """Reference 101-point AP of a score-ranked hit sequence: one recall mask per point."""
    if total_gt < 0:
        raise ValueError(f"total_gt must be non-negative, got {total_gt}")
    if total_gt == 0:
        return 0.0 if len(hits) else 1.0
    tp = np.cumsum([1 if h else 0 for h in hits])
    ranks = np.arange(1, len(hits) + 1)
    precision = tp / ranks
    recall = tp / total_gt
    ap = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        sel = precision[recall >= r - 1e-12]
        ap += float(sel.max()) if sel.size else 0.0
    return ap / 101.0


def _nearest_boundary_arc(closed, cum, point) -> tuple[float, float]:
    """(arc position, distance) of the boundary point of a closed ring closest to `point`."""
    best = (0.0, math.inf)
    for i in range(len(closed) - 1):
        a = closed[i]
        b = closed[i + 1]
        d = b - a
        L2 = float(d @ d)
        t = 0.0 if L2 == 0 else max(0.0, min(1.0, float((point - a) @ d) / L2))
        proj = a + t * d
        dist = float(np.hypot(*(point - proj)))
        if dist < best[1]:
            best = (float(cum[i] + t * math.sqrt(L2)), dist)
    return best


def naive_start_arcs(pred_table, gt_table) -> tuple[float, float]:
    """Reference `metrics._start_arcs`: every GT vertex against every pred edge, in turn."""
    gt_closed, gt_cum, _ = gt_table
    best = (math.inf, 0.0, 0.0)  # distance, pred arc, gt arc
    for i in range(len(gt_closed) - 1):
        arc, dist = _nearest_boundary_arc(pred_table[0], pred_table[1], gt_closed[i])
        if dist < best[0]:
            best = (dist, arc, float(gt_cum[i]))
    return best[1], best[2]


def naive_mta(pred, gt, samples: int = 128) -> float:
    """Reference `metrics.mta`, with the start point from `naive_start_arcs`."""
    from .geometry import normalize_orientation
    from .metrics import _arc_table, _resample

    if samples < 8:
        raise ValueError(f"samples must be at least 8, got {samples}")
    pred_table = _arc_table(normalize_orientation(pred, ccw=True).as_array())
    gt_table = _arc_table(normalize_orientation(gt, ccw=True).as_array())
    pred_arc, gt_arc = naive_start_arcs(pred_table, gt_table)

    def tangents(pts):
        d = np.roll(pts, -1, axis=0) - pts
        norms = np.hypot(d[:, 0], d[:, 1])
        if np.any(norms == 0):
            raise ValueError("degenerate boundary: coincident consecutive samples")
        return d / norms[:, None]

    tp = tangents(_resample(pred_table, pred_arc, samples))
    tg = tangents(_resample(gt_table, gt_arc, samples))
    dots = np.clip((tp * tg).sum(axis=1), -1.0, 1.0)
    return float(np.arccos(dots).max())


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed), "detail": self.detail}


def _random_gt(rng, m, grid, distinct=False):
    from .polyloss import VertexTokenSeq, no_vertex_index

    k = int(rng.randint(1, m))
    if distinct:
        k = max(3, k)
        cells = rng.choice(grid * grid, size=k, replace=False)
    else:
        cells = rng.randint(0, grid * grid, size=k)
    tokens = tuple(int(c) for c in cells) + (no_vertex_index(grid),) * (m - k)
    return VertexTokenSeq(tokens=tokens, valid_count=k, grid_size=grid)


def _random_pred(rng, m, grid):
    from .polyloss import PredDistSeq

    rows = rng.gamma(1.0, 1.0, size=(m, grid * grid + 1)) + 1e-4
    rows /= rows.sum(axis=1, keepdims=True)
    return PredDistSeq(rows)


def check_loss_vs_naive(rng: np.random.RandomState, trials: int = 100) -> CheckResult:
    from .polyloss import bidirectional_loss

    grid = 5
    worst = 0.0
    for _ in range(trials):
        m = int(rng.randint(3, 11))
        gt = _random_gt(rng, m, grid)
        pred = _random_pred(rng, m, grid)
        got, _ = bidirectional_loss(gt, pred)
        want = naive_bidirectional_loss(list(gt.tokens), gt.valid_count, pred.dists.tolist(), grid)
        worst = max(worst, abs(got - want))
    return CheckResult("loss_vs_naive_oracle", worst <= 1e-12, f"max |diff| = {worst:.2e}")


def check_exhaustive_bound(rng: np.random.RandomState, trials: int = 100) -> CheckResult:
    from .polyloss import bidirectional_loss, exhaustive_alignment_loss

    grid = 5
    for _ in range(trials):
        m = int(rng.randint(3, 11))
        gt = _random_gt(rng, m, grid)
        pred = _random_pred(rng, m, grid)
        bi, _ = bidirectional_loss(gt, pred)
        ex = exhaustive_alignment_loss(gt, pred)
        if ex > bi + 1e-12:
            return CheckResult(
                "exhaustive_alignment_bound", False, f"exhaustive {ex} > bidirectional {bi}"
            )
    return CheckResult("exhaustive_alignment_bound", True, f"{trials} random pairs")


def check_orientation_invariance(rng: np.random.RandomState) -> CheckResult:
    from .polyloss import PredDistSeq, align_inverse, align_shift, bidirectional_loss

    grid = 5
    worst = 0.0
    for _ in range(10):
        gt = _random_gt(rng, 10, grid, distinct=True)
        k = gt.valid_count
        rows = np.zeros((10, grid * grid + 1))
        for i, t in enumerate(gt.tokens):
            rows[i, t] = 1.0
        base = PredDistSeq(rows)
        for r in range(k):
            rotated = align_shift(base, r, k)
            for pred in (rotated, align_inverse(rotated, k)):
                loss, _ = bidirectional_loss(gt, pred)
                worst = max(worst, loss)
    return CheckResult("orientation_invariance", worst < 1e-6, f"max loss = {worst:.2e}")


def _op_checks(rng: np.random.RandomState):
    """Per-op finite-difference builders: (op name, build_loss, params)."""
    from .neural import tensor as T

    def leaf(*shape):
        return T.Tensor(rng.uniform(-1.0, 1.0, size=shape), requires_grad=True)

    a34, b4 = leaf(3, 4), leaf(4)
    m_a, m_b = leaf(3, 4), leaf(4, 2)
    bm_a, bm_b = leaf(2, 3, 4), leaf(4, 3)
    r_in = T.Tensor(rng.uniform(0.3, 1.0, size=6) * rng.choice([-1, 1], size=6), requires_grad=True)
    s_in = leaf(5)
    sm_in, sm_w = leaf(3, 5), T.Tensor(rng.standard_normal((3, 5)))
    ln_x, ln_g, ln_b = leaf(3, 6), T.Tensor(rng.uniform(0.5, 1.5, 6), requires_grad=True), leaf(6)
    ln_w = T.Tensor(rng.standard_normal((3, 6)))
    bn_x, bn_g, bn_b = leaf(4, 3, 2, 2), T.Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True), leaf(3)
    bn_w = T.Tensor(rng.standard_normal((4, 3, 2, 2)))
    c3_x, c3_w, c3_b = leaf(2, 2, 4, 4), leaf(3, 2, 3, 3), leaf(3)
    c3_m = T.Tensor(rng.standard_normal((2, 3, 4, 4)))
    c1_x, c1_w, c1_b = leaf(2, 3, 4, 4), leaf(2, 3), leaf(2)
    c1_m = T.Tensor(rng.standard_normal((2, 2, 4, 4)))
    cc_a, cc_b = leaf(2, 6), leaf(2, 6)

    def bn_build():
        return T.sum_all(T.mul(
            T.batch_norm(bn_x, bn_g, bn_b, np.zeros(3), np.ones(3), training=True), bn_w))

    def concat_build():
        c = T.concat([T.reshape(cc_a, (2, 3, 2)), T.reshape(cc_b, (2, 3, 2))], axis=1)
        t = T.transpose(c, (1, 0, 2))
        return T.sum_all(T.mul(t, t))

    return [
        ("add", lambda: T.sum_all(T.mul(T.add(a34, b4), T.add(a34, b4))), {"a": a34, "b": b4}),
        ("sub", lambda: T.sum_all(T.mul(T.sub(a34, b4), a34)), {"a": a34, "b": b4}),
        ("mul", lambda: T.mean_all(T.mul(a34, a34)), {"a": a34}),
        ("matmul", lambda: T.sum_all(T.mul(T.matmul(m_a, m_b), T.matmul(m_a, m_b))),
         {"a": m_a, "b": m_b}),
        ("matmul_batched", lambda: T.mean_all(T.matmul(bm_a, bm_b)), {"a": bm_a, "b": bm_b}),
        ("relu", lambda: T.sum_all(T.mul(T.relu(r_in), r_in)), {"x": r_in}),
        ("sigmoid", lambda: T.sum_all(T.mul(T.sigmoid(s_in), T.sigmoid(s_in))), {"x": s_in}),
        ("softmax", lambda: T.sum_all(T.mul(T.softmax(sm_in), sm_w)), {"x": sm_in}),
        ("layer_norm", lambda: T.sum_all(T.mul(T.layer_norm(ln_x, ln_g, ln_b), ln_w)),
         {"x": ln_x, "gamma": ln_g, "beta": ln_b}),
        ("batch_norm", bn_build, {"x": bn_x, "gamma": bn_g, "beta": bn_b}),
        ("conv2d_3x3", lambda: T.sum_all(T.mul(T.conv2d_3x3(c3_x, c3_w, c3_b), c3_m)),
         {"x": c3_x, "w": c3_w, "b": c3_b}),
        ("conv2d_1x1", lambda: T.sum_all(T.mul(T.conv2d_1x1(c1_x, c1_w, c1_b), c1_m)),
         {"x": c1_x, "w": c1_w, "b": c1_b}),
        ("concat", concat_build, {"a": cc_a, "b": cc_b}),
        ("mean_all", lambda: T.mean_all(T.mul(s_in, s_in)), {"x": s_in}),
    ]


def check_op_gradients(rng: np.random.RandomState) -> list[CheckResult]:
    from .neural.gradcheck import finite_difference_check

    results = []
    for name, build, params in _op_checks(rng):
        err = finite_difference_check(build, params, rng=np.random.RandomState(7))
        results.append(
            CheckResult(f"gradients_{name}", err < 1e-5, f"max relative error = {err:.2e}")
        )
    return results


def check_roi_align(rng: np.random.RandomState) -> CheckResult:
    from .geometry import BBox
    from .neural.gradcheck import finite_difference_check
    from .neural.layers import roi_align_stack
    from .neural import tensor as T

    feat = T.Tensor(rng.standard_normal((1, 2, 6, 6)), requires_grad=True)
    rois = [(0, BBox.from_xywh(0.7, 1.2, 3.4, 2.8))]
    w = T.Tensor(rng.standard_normal((1, 2, 3, 3)))
    err = finite_difference_check(
        lambda: T.sum_all(T.mul(roi_align_stack(feat, rois, 3), w)),
        {"f": feat},
        rng=np.random.RandomState(8),
    )
    return CheckResult("gradients_roi_align", err < 1e-5, f"max relative error = {err:.2e}")


def check_full_graph_gradients(rng: np.random.RandomState) -> CheckResult:
    from .geometry import Polygon, rasterize
    from .neural.gradcheck import finite_difference_check
    from .neural.head import PolygonHeadConfig, init_model
    from .neural.training import build_sample, compute_losses

    cfg = PolygonHeadConfig(
        grid_size=8, channels=16, heads=4, decoder_blocks=1, queries=6,
        encoder_variant="hierarchical",
    )
    store = init_model(cfg, seed=3)
    poly = Polygon.from_points([(3, 2), (13, 2), (13, 12), (3, 12)])
    image = rasterize(poly, 16, 16).bits * 255.0
    sample = build_sample(image, poly, cfg)

    def build():
        total, _ = compute_losses(store, cfg, [sample], training=False)
        return total

    err = finite_difference_check(build, store, max_coords=150, rng=np.random.RandomState(9))
    return CheckResult("gradients_full_graph", err < 1e-5, f"max relative error = {err:.2e}")


def check_metric_hand_cases() -> list[CheckResult]:
    from .geometry import Polygon, polygon_iou
    from .metrics import GtInstance, PredInstance, c_iou, coco_suite, matched_pairs, mta

    def square(x0, y0, side):
        return Polygon.from_points(
            [(x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side)]
        )

    results = []
    half = polygon_iou(square(0, 0, 1), Polygon.from_points([(0.5, 0), (1.5, 0), (1.5, 1), (0.5, 1)]))
    results.append(
        CheckResult("metric_iou_half_overlap", abs(half - 1 / 3) <= 0.02, f"IoU = {half:.4f}")
    )

    gts = [GtInstance(1, square(0, 0, 8))]
    split = Polygon.from_points(
        [(0, 0), (4, 0), (8, 0), (8, 4), (8, 8), (4, 8), (0, 8), (0, 4)]
    )
    pairs = matched_pairs([PredInstance(1, split, 0.9)], gts)
    ciou = c_iou(pairs)
    results.append(
        CheckResult("metric_ciou_midpoint_split", abs(ciou - 2 / 3) <= 1e-9, f"C-IoU = {ciou:.6f}")
    )

    s = math.sqrt(2)
    rotated = Polygon.from_points([(s, 0), (0, s), (-s, 0), (0, -s)])
    angle = mta(square(-1, -1, 2), rotated, samples=256)
    results.append(
        CheckResult(
            "metric_mta_rotated_square", abs(angle - math.pi / 4) <= 0.02, f"MTA = {angle:.4f} rad"
        )
    )

    r = coco_suite([PredInstance(1, square(3, 0, 13), 0.9)], [GtInstance(1, square(0, 0, 13))])
    results.append(
        CheckResult(
            "metric_ap_threshold_trace", abs(r.ap - 0.3) <= 1e-12 and r.ap50 == 1.0,
            f"AP = {r.ap:.4f}, AP50 = {r.ap50:.4f}",
        )
    )
    return results


def check_rasterize_vs_naive(rng: np.random.RandomState, trials: int = 60) -> CheckResult:
    """`rasterize` against `naive_rasterize`, bit for bit, on random rings.

    Every other ring has its vertices on the half-pixel lattice, so its edges
    run through pixel centers; rings may self-intersect and leave the frame.
    """
    from .geometry import Polygon, rasterize

    tried = differ = 0
    for i in range(trials):
        k = int(rng.randint(3, 9))
        if i % 2 == 0:
            pts = rng.randint(-2, 35, size=(k, 2)) / 2.0
        else:
            pts = rng.uniform(-2.0, 18.0, size=(k, 2))
        try:
            poly = Polygon.from_points(pts)
        except ValueError:  # a repeated vertex or zero area
            continue
        w, h = int(rng.randint(1, 18)), int(rng.randint(1, 18))
        tried += 1
        differ += not np.array_equal(rasterize(poly, w, h).bits, naive_rasterize(poly, w, h).bits)
    return CheckResult("rasterize_vs_naive", differ == 0, f"{differ} of {tried} rings differ")


def check_tiling_arithmetic() -> CheckResult:
    from .dataio import TileSpec, tile_positions

    spec = TileSpec()
    xs = tile_positions(5000, spec.tile_size, spec.tile_size - spec.overlap)
    ok = len(xs) == 13 and xs[-1] == 4488
    return CheckResult(
        "tiling_arithmetic", ok, f"{len(xs)} positions per axis, {len(xs) ** 2} tiles"
    )


def run_selftest(corrupt_op: str | None = None) -> tuple[bool, list[CheckResult]]:
    """Run every built-in check; optionally corrupt one op's gradients.

    Returns (all_passed, results).  With `corrupt_op`, the gradient suite
    runs under a backward pass that scales that op's gradients by two, so
    the corresponding check must fail (and the run reports it).
    """
    from .neural.tensor import corrupt_gradient

    rng = np.random.RandomState(2024)
    results: list[CheckResult] = [
        check_loss_vs_naive(rng),
        check_exhaustive_bound(rng),
        check_orientation_invariance(rng),
    ]
    if corrupt_op is None:
        results.extend(check_op_gradients(rng))
        results.append(check_roi_align(rng))
        results.append(check_full_graph_gradients(rng))
    else:
        with corrupt_gradient(corrupt_op, 2.0):
            results.extend(check_op_gradients(rng))
            results.append(check_roi_align(rng))
            results.append(check_full_graph_gradients(rng))
    results.extend(check_metric_hand_cases())
    results.append(check_rasterize_vs_naive(rng))
    results.append(check_tiling_arithmetic())
    return all(r.passed for r in results), results
