"""Polygonal instance evaluation: COCO-style AP/AR/F1 plus shape-quality metrics.

Matching is greedy in descending score with IoUs computed by polygon
rasterization, one batched IoU matrix per image reused at every threshold.
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


def _greedy_assign(iou_mat: np.ndarray, threshold: float) -> list[int | None]:
    """Assign each (score-ordered) prediction row its best unused GT column."""
    n_pred, n_gt = iou_mat.shape
    used = np.zeros(n_gt, dtype=bool)
    out: list[int | None] = []
    for i in range(n_pred):
        best_j = None
        best_iou = 0.0
        for j in range(n_gt):
            if used[j]:
                continue
            iou = iou_mat[i, j]
            if iou < threshold:
                continue
            # Strictly-greater keeps the lower GT index on exact IoU ties.
            if best_j is None or iou > best_iou:
                best_j = j
                best_iou = iou
        if best_j is not None:
            used[best_j] = True
        out.append(best_j)
    return out


def _check_threshold(iou_threshold: float) -> None:
    if not 0 < iou_threshold < 1:
        raise ValueError(f"iou_threshold must be in (0, 1), got {iou_threshold}")


def _image_passes(preds, gts, resolution: int, thresholds) -> list:
    """One IoU pass per image, in image-id order.

    Each entry is (score-sorted predictions, sorted ground truths, IoU matrix
    over all of them, {threshold: greedy assignment of every row}).  Greedy
    assignment is sequential in row order, so its first k rows equal the
    assignment of the top-k predictions alone.
    """
    images = _group_by_image(preds, gts)
    passes = []
    for image_id in sorted(images, key=str):
        img_preds, img_gts = images[image_id]
        mat = _iou_matrix(img_preds, img_gts, resolution)
        assigns = {thr: _greedy_assign(mat, thr) for thr in thresholds}
        passes.append((img_preds, img_gts, mat, assigns))
    return passes


def _matches(passes: list, threshold: float, max_dets: int | None = None) -> list[Match]:
    """Matches at one threshold for the top `max_dets` (default all) predictions per image."""
    out: list[Match] = []
    for img_preds, img_gts, mat, assigns in passes:
        assign = assigns[threshold]
        for i, p in enumerate(img_preds[:max_dets]):
            j = assign[i]
            if j is None:
                out.append(Match(pred=p, gt=None, iou=0.0))
            else:
                out.append(Match(pred=p, gt=img_gts[j], iou=float(mat[i, j])))
    return out


def _ranked(matches: list[Match]) -> list[Match]:
    return sorted(matches, key=lambda m: _pred_sort_key(m.pred))


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
    return _ranked(_matches(passes, iou_threshold))


def average_precision(matches: list[Match], total_gt: int) -> float:
    """101-point interpolated AP over the score-ranked precision/recall curve."""
    if total_gt < 0:
        raise ValueError(f"total_gt must be non-negative, got {total_gt}")
    if total_gt == 0:
        return 0.0 if matches else 1.0
    ordered = _ranked(matches)
    tp = np.cumsum([1 if m.gt is not None else 0 for m in ordered])
    ranks = np.arange(1, len(ordered) + 1)
    precision = tp / ranks
    recall = tp / total_gt
    ap = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        sel = precision[recall >= r - 1e-12]
        ap += float(sel.max()) if sel.size else 0.0
    return ap / 101.0


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
    thresholds = IOU_THRESHOLDS + (() if match_iou in IOU_THRESHOLDS else (match_iou,))
    passes = _image_passes(preds, gts, resolution, thresholds)
    total_gt = sum(len(img_gts) for _, img_gts, _, _ in passes)

    aps = []
    ars = []
    for thr in IOU_THRESHOLDS:
        all_matches = _matches(passes, thr, max_dets)
        aps.append(average_precision(all_matches, total_gt))
        if total_gt == 0:
            ars.append(0.0 if all_matches else 1.0)
        else:
            ars.append(sum(m.gt is not None for m in all_matches) / total_gt)

    ap = float(np.mean(aps))
    ar = float(np.mean(ars))
    f1 = 0.0 if ap + ar == 0 else 2 * ap * ar / (ap + ar)
    report = MetricReport(
        ap=ap, ap50=aps[0], ap75=aps[5],
        ar=ar, ar50=ars[0], ar75=ars[5],
        f1=f1, n_ratio=None, c_iou=None, mta=None,
    )
    ranked = _ranked(_matches(passes, match_iou))
    pairs = [(m.pred, m.gt, m.iou) for m in ranked if m.gt is not None]
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


def _arc_table(p: Polygon) -> tuple[np.ndarray, np.ndarray, float]:
    pts = p.as_array()
    closed = np.vstack([pts, pts[:1]])
    seg = np.hypot(np.diff(closed[:, 0]), np.diff(closed[:, 1]))
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    perimeter = float(cum[-1])
    if perimeter <= 0:
        raise ValueError("polygon boundary has zero length")
    return closed, cum, perimeter


def _resample(p: Polygon, start_arc: float, samples: int) -> np.ndarray:
    closed, cum, perimeter = _arc_table(p)
    arcs = (start_arc + np.arange(samples) * perimeter / samples) % perimeter
    idx = np.minimum(np.searchsorted(cum, arcs, side="right") - 1, len(closed) - 2)
    seg_len = cum[idx + 1] - cum[idx]
    flat = seg_len == 0
    t = np.where(flat, 0.0, (arcs - cum[idx]) / np.where(flat, 1.0, seg_len))
    return closed[idx] + t[:, None] * (closed[idx + 1] - closed[idx])


def _nearest_boundary_arc(p: Polygon, point: np.ndarray) -> tuple[float, float]:
    """(arc position, distance) of the boundary point of p closest to `point`."""
    closed, cum, _ = _arc_table(p)
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


def mta(pred: Polygon, gt: Polygon, samples: int = 128) -> float:
    """Maximum tangent-angle deviation (radians) between corresponding boundary samples.

    Both boundaries are normalized to counterclockwise order and resampled
    uniformly by arc length; correspondence starts at the prediction point
    nearest to any ground-truth vertex.
    """
    if samples < 8:
        raise ValueError(f"samples must be at least 8, got {samples}")
    pred_n = normalize_orientation(pred, ccw=True)
    gt_n = normalize_orientation(gt, ccw=True)
    gt_closed, gt_cum, _ = _arc_table(gt_n)

    best = (math.inf, 0.0, 0.0)  # distance, pred arc, gt arc
    for i in range(len(gt_closed) - 1):
        vertex = gt_closed[i]
        arc, dist = _nearest_boundary_arc(pred_n, vertex)
        if dist < best[0]:
            best = (dist, arc, float(gt_cum[i]))

    pred_pts = _resample(pred_n, best[1], samples)
    gt_pts = _resample(gt_n, best[2], samples)

    def tangents(pts):
        d = np.roll(pts, -1, axis=0) - pts
        norms = np.hypot(d[:, 0], d[:, 1])
        if np.any(norms == 0):
            raise ValueError("degenerate boundary: coincident consecutive samples")
        return d / norms[:, None]

    tp = tangents(pred_pts)
    tg = tangents(gt_pts)
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
