"""Polygonal instance evaluation: COCO-style AP/AR/F1 plus shape-quality metrics.

Matching is greedy in descending score with IoUs computed by polygon
rasterization, one batched IoU matrix per image reused at every threshold.
AP and AR read one ranking of all predictions, as a hit array per threshold.
Vertex-count ratio, complexity-aware IoU and the maximum tangent-angle error
are computed over the pairs matched at IoU 0.5.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Polygon, normalize_orientation, polygon_ious

IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
REPORT_COLUMNS = ("ap", "ap50", "ap75", "ar", "ar50", "ar75", "f1", "n_ratio", "c_iou", "mta")


@dataclass(frozen=True)
class GtInstance:
    image_id: int | str
    polygon: Polygon


@dataclass(frozen=True)
class PredInstance:
    image_id: int | str
    polygon: Polygon
    score: float

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise ValueError(f"score must be finite, got {self.score}")


@dataclass(frozen=True)
class Match:
    pred: PredInstance
    gt: GtInstance | None
    iou: float


@dataclass
class MetricReport:
    ap: float
    ap50: float
    ap75: float
    ar: float
    ar50: float
    ar75: float
    f1: float
    n_ratio: float | None
    c_iou: float | None
    mta: float | None

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in REPORT_COLUMNS}

    def csv_row(self) -> str:
        vals = []
        for name in REPORT_COLUMNS:
            v = getattr(self, name)
            vals.append("" if v is None else repr(float(v)))
        return ",".join(vals)

    @staticmethod
    def csv_header() -> str:
        return ",".join(REPORT_COLUMNS)


def _pred_sort_key(p: PredInstance):
    # Total order independent of input order: score, then intrinsic geometry.
    return (-p.score, str(p.image_id), tuple(p.polygon.to_flat()))


def _gt_sort_key(g: GtInstance):
    return (str(g.image_id), tuple(g.polygon.to_flat()))


def _group_by_image(preds, gts):
    images: dict = {}
    for g in gts:
        images.setdefault(g.image_id, ([], []))[1].append(g)
    for p in preds:
        images.setdefault(p.image_id, ([], []))[0].append(p)
    for img_preds, img_gts in images.values():
        img_preds.sort(key=_pred_sort_key)
        img_gts.sort(key=_gt_sort_key)
    return images


def _iou_matrix(preds, gts, resolution: int) -> np.ndarray:
    pairs = [(p.polygon, g.polygon) for p in preds for g in gts]
    return polygon_ious(pairs, resolution).reshape(len(preds), len(gts))


def _greedy_assign(iou_mat: np.ndarray, threshold: float) -> np.ndarray:
    """Each (score-ordered) prediction row's best unused GT column, or -1."""
    n_pred, n_gt = iou_mat.shape
    out = np.full(n_pred, -1, dtype=np.intp)
    passing = iou_mat >= threshold
    used = [False] * n_gt
    for i in np.flatnonzero(passing.any(axis=1)).tolist():
        row = iou_mat[i].tolist()
        best_j = -1
        for j in np.flatnonzero(passing[i]).tolist():
            # Strictly-greater keeps the lower GT index on exact IoU ties.
            if not used[j] and (best_j < 0 or row[j] > row[best_j]):
                best_j = j
        if best_j >= 0:
            used[best_j] = True
            out[i] = best_j
    return out


def _check_threshold(iou_threshold: float) -> None:
    if not 0 < iou_threshold < 1:
        raise ValueError(f"iou_threshold must be in (0, 1), got {iou_threshold}")


def _check_samples(samples: int) -> None:
    if samples < 8:
        raise ValueError(f"samples must be at least 8, got {samples}")


@dataclass
class _ImagePass:
    """One image's score-sorted predictions, sorted ground truths, their IoU
    matrix and, per threshold, the greedy GT column (or -1) of every row."""

    preds: list[PredInstance]
    gts: list[GtInstance]
    ious: np.ndarray
    assigns: dict[float, np.ndarray]


def _image_passes(preds, gts, resolution: int, thresholds) -> list[_ImagePass]:
    """One IoU pass per image, in image-id order.

    Greedy assignment is sequential in row order, so the first k rows of an
    assignment equal the assignment of the top-k predictions alone.
    """
    images = _group_by_image(preds, gts)
    passes = []
    for image_id in sorted(images, key=str):
        img_preds, img_gts = images[image_id]
        mat = _iou_matrix(img_preds, img_gts, resolution)
        assigns = {thr: _greedy_assign(mat, thr) for thr in thresholds}
        passes.append(_ImagePass(img_preds, img_gts, mat, assigns))
    return passes


def _located(passes: list[_ImagePass]) -> list[tuple[_ImagePass, int]]:
    """(image pass, row) of every prediction, in pass order."""
    return [(ps, row) for ps in passes for row in range(len(ps.preds))]


def _ranking(located: list[tuple[_ImagePass, int]]) -> np.ndarray:
    """Pass-order positions of every prediction, best first.

    One stable sort by `_pred_sort_key` of the predictions in pass order, so
    exact-key ties (duplicate predictions) keep their pass order.  Every
    threshold and the final pairing read this one ranking.
    """
    keys = [_pred_sort_key(ps.preds[row]) for ps, row in located]
    return np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.intp)


def _assigned(passes: list[_ImagePass], threshold: float) -> np.ndarray:
    """GT column (or -1) of every prediction at one threshold, in pass order."""
    return np.concatenate([ps.assigns[threshold] for ps in passes] + [np.empty(0, np.intp)])


def _ranked_matches(located, rank: np.ndarray, threshold: float) -> list[tuple]:
    """(pred, gt or None, iou) of every prediction at one threshold, best first."""
    out = []
    for k in rank.tolist():
        ps, row = located[k]
        j = int(ps.assigns[threshold][row])
        if j < 0:
            out.append((ps.preds[row], None, 0.0))
        else:
            out.append((ps.preds[row], ps.gts[j], float(ps.ious[row, j])))
    return out


def match_instances(
    preds: list[PredInstance],
    gts: list[GtInstance],
    iou_threshold: float,
    resolution: int = 256,
) -> list[Match]:
    """Greedy score-ordered matching, each ground truth used at most once.

    Ties on IoU break toward the lower (canonically ordered) GT index.
    """
    _check_threshold(iou_threshold)
    passes = _image_passes(preds, gts, resolution, (iou_threshold,))
    located = _located(passes)
    return [Match(*m) for m in _ranked_matches(located, _ranking(located), iou_threshold)]


def hits_average_precision(hits: np.ndarray, total_gt: int) -> float:
    """101-point interpolated AP of a score-ranked hit sequence (True = matched).

    The interpolated precision at recall r is the best precision at any rank
    whose recall reaches r: a running maximum of precision taken from the
    end, read at the first such rank, which one `searchsorted` finds for all
    101 recall points.  The points are summed in order, one by one.
    """
    if total_gt < 0:
        raise ValueError(f"total_gt must be non-negative, got {total_gt}")
    if total_gt == 0:
        return 0.0 if len(hits) else 1.0
    tp = np.cumsum(hits, dtype=np.int64)
    precision = tp / np.arange(1, len(tp) + 1)
    recall = tp / total_gt
    best = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    first = np.searchsorted(recall, np.linspace(0.0, 1.0, 101) - 1e-12, side="left")
    ap = 0.0
    for value in best[first].tolist():
        ap += value
    return ap / 101.0


def average_precision(matches: list[Match], total_gt: int) -> float:
    """101-point interpolated AP over the score-ranked precision/recall curve."""
    ranked = sorted(matches, key=lambda m: _pred_sort_key(m.pred))
    hits = np.array([m.gt is not None for m in ranked], dtype=bool)
    return hits_average_precision(hits, total_gt)


def coco_suite(
    preds: list[PredInstance],
    gts: list[GtInstance],
    resolution: int = 256,
    max_dets: int = 100,
    samples: int = 128,
    match_iou: float = 0.5,
) -> MetricReport:
    """The full metric report from one IoU pass per image.

    AP/AR over IoU thresholds 0.50:0.05:0.95 plus their harmonic F1 count at
    most the `max_dets` top-scored predictions per image.  N ratio, C-IoU and
    MTA are over every prediction matched at `match_iou`, with no `max_dets`
    limit, and are None when nothing matches.
    """
    _check_threshold(match_iou)
    _check_samples(samples)
    thresholds = IOU_THRESHOLDS + (() if match_iou in IOU_THRESHOLDS else (match_iou,))
    passes = _image_passes(preds, gts, resolution, thresholds)
    total_gt = sum(len(ps.gts) for ps in passes)
    located = _located(passes)
    rank = _ranking(located)

    # The ranked predictions among their image's top `max_dets`.
    top = np.zeros(len(located), dtype=bool)
    start = 0
    for ps in passes:
        top[start:start + len(ps.preds)][:max_dets] = True
        start += len(ps.preds)
    counted = rank[top[rank]]

    aps = []
    ars = []
    for thr in IOU_THRESHOLDS:
        hits = _assigned(passes, thr)[counted] >= 0
        aps.append(hits_average_precision(hits, total_gt))
        if total_gt == 0:
            ars.append(0.0 if hits.size else 1.0)
        else:
            ars.append(int(np.count_nonzero(hits)) / total_gt)

    ap = float(np.mean(aps))
    ar = float(np.mean(ars))
    f1 = 0.0 if ap + ar == 0 else 2 * ap * ar / (ap + ar)
    report = MetricReport(
        ap=ap, ap50=aps[0], ap75=aps[5],
        ar=ar, ar50=ars[0], ar75=ars[5],
        f1=f1, n_ratio=None, c_iou=None, mta=None,
    )
    pairs = [m for m in _ranked_matches(located, rank, match_iou) if m[1] is not None]
    if pairs:
        report.n_ratio = n_ratio(pairs)
        report.c_iou = c_iou(pairs)
        report.mta = float(np.mean([mta(p.polygon, g.polygon, samples) for p, g, _ in pairs]))
    return report


def matched_pairs(
    preds: list[PredInstance],
    gts: list[GtInstance],
    iou_threshold: float = 0.5,
    resolution: int = 256,
) -> list[tuple[PredInstance, GtInstance, float]]:
    """(pred, gt, iou) for every prediction matched at the given threshold."""
    return [
        (m.pred, m.gt, m.iou)
        for m in match_instances(preds, gts, iou_threshold, resolution)
        if m.gt is not None
    ]


def n_ratio(pairs: list[tuple[PredInstance, GtInstance, float]]) -> float:
    """Total predicted vertex count over total ground-truth vertex count."""
    if not pairs:
        raise ValueError("n_ratio is undefined without matched pairs (not zero)")
    pred_total = sum(len(p.polygon) for p, _, _ in pairs)
    gt_total = sum(len(g.polygon) for _, g, _ in pairs)
    return pred_total / gt_total


def c_iou(pairs: list[tuple[PredInstance, GtInstance, float]]) -> float:
    """Mean over pairs of IoU discounted by the relative vertex-count difference."""
    if not pairs:
        raise ValueError("c_iou is undefined without matched pairs (not zero)")
    vals = []
    for p, g, iou in pairs:
        vn = len(g.polygon)
        vp = len(p.polygon)
        rd = abs(vn - vp) / (vn + vp)
        vals.append(iou * (1.0 - rd))
    return float(np.mean(vals))


def _arc_table(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(closed ring, cumulative arc length at each vertex, perimeter) of a vertex array."""
    closed = np.vstack([pts, pts[:1]])
    seg = np.hypot(np.diff(closed[:, 0]), np.diff(closed[:, 1]))
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    perimeter = float(cum[-1])
    if perimeter <= 0:
        raise ValueError("polygon boundary has zero length")
    return closed, cum, perimeter


def _resample(table, start_arc: float, samples: int) -> np.ndarray:
    """`samples` points equally spaced by arc length from `start_arc` on an `_arc_table` ring."""
    closed, cum, perimeter = table
    arcs = (start_arc + np.arange(samples) * perimeter / samples) % perimeter
    idx = np.minimum(np.searchsorted(cum, arcs, side="right") - 1, len(closed) - 2)
    lo = cum.take(idx)
    seg_len = cum.take(idx + 1) - lo
    flat = seg_len == 0
    t = np.where(flat, 0.0, (arcs - lo) / np.where(flat, 1.0, seg_len))
    start = closed.take(idx, axis=0)
    return start + t[:, None] * (closed.take(idx + 1, axis=0) - start)


def _start_arcs(pred_table, gt_table) -> tuple[float, float]:
    """(pred arc, GT arc) of the closest pair of a GT vertex and a pred boundary point.

    One (GT vertex x pred edge) array holds each vertex's distance to its
    projection on each edge.  `np.argmin` over its row-major flattening takes
    the first minimum, the pair a vertex-by-vertex, edge-by-edge scan with a
    strict `<` keeps.  The dot products are stacked `np.matmul` calls, the
    same dot routine as a scalar `a @ b`, so every value is bit-identical to
    that scan's (`selftest.naive_start_arcs`).
    """
    closed, cum, _ = pred_table
    gt_closed, gt_cum, _ = gt_table
    a = closed[:-1]
    d = closed[1:] - a
    sq_len = (d[:, None, :] @ d[:, :, None])[:, 0, 0]
    vertices = gt_closed[:-1, None, :]
    along = ((vertices - a)[:, :, None, :] @ d[:, :, None])[:, :, 0, 0]
    # t = max(0, min(1, along / sq_len)), 0 on a zero-length edge.
    x = along / np.where(sq_len == 0, 1.0, sq_len)
    x = np.where(x < 1.0, x, 1.0)
    t = np.where((x > 0.0) & (sq_len != 0), x, 0.0)
    off = vertices - (a + t[:, :, None] * d)
    dist = np.hypot(off[:, :, 0], off[:, :, 1])
    v, e = divmod(int(np.argmin(dist)), len(a))
    return float(cum[e] + t[v, e] * math.sqrt(sq_len[e])), float(gt_cum[v])


def _tangents(pts: np.ndarray) -> np.ndarray:
    d = np.concatenate((pts[1:], pts[:1])) - pts
    norms = np.hypot(d[:, 0], d[:, 1])
    if np.any(norms == 0):
        raise ValueError("degenerate boundary: coincident consecutive samples")
    return d / norms[:, None]


def mta(pred: Polygon, gt: Polygon, samples: int = 128) -> float:
    """Maximum tangent-angle deviation (radians) between corresponding boundary samples.

    Both boundaries are normalized to counterclockwise order and resampled
    uniformly by arc length; correspondence starts at the prediction point
    nearest to any ground-truth vertex.
    """
    _check_samples(samples)
    pred_table = _arc_table(normalize_orientation(pred, ccw=True).vertices)
    gt_table = _arc_table(normalize_orientation(gt, ccw=True).vertices)
    pred_arc, gt_arc = _start_arcs(pred_table, gt_table)
    tp = _tangents(_resample(pred_table, pred_arc, samples))
    tg = _tangents(_resample(gt_table, gt_arc, samples))
    dots = np.clip((tp * tg).sum(axis=1), -1.0, 1.0)
    return float(np.arccos(dots).max())


def evaluate_instances(
    preds: list[PredInstance],
    gts: list[GtInstance],
    resolution: int = 256,
    samples: int = 128,
    match_iou: float = 0.5,
    max_dets: int = 100,
) -> MetricReport:
    """Full metric report; polygonal fields are None when nothing matches."""
    return coco_suite(preds, gts, resolution=resolution, max_dets=max_dets,
                      samples=samples, match_iou=match_iou)
