"""Reference computations the benchmark checks polymap's outputs against.

Everything here is written apart from polymap and imports nothing from it:
exact IoU of convex polygons by clipping, a score-ordered greedy matcher,
101-point interpolated AP, the report fields built from them, and the
bidirectional sequence loss.  The eval workload feeds only convex shapes,
so exact IoU is available and the program's rasterized IoU can be checked
against it within a margin.
"""
from __future__ import annotations

import math

IOU_THRESHOLDS = tuple((50 + 5 * i) / 100 for i in range(10))
PROB_CLAMP = 1e-7


# --- convex geometry -------------------------------------------------------

def area(pts):
    """Signed shoelace area of a ring of (x, y) points."""
    s = 0.0
    n = len(pts)
    for i in range(n):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % n]
        s += x1 * y2 - x2 * y1
    return 0.5 * s


def bounds(pts):
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return min(xs), min(ys), max(xs), max(ys)


def boxes_disjoint(a, b):
    """True when the bounding boxes of rings a and b share no point."""
    ax0, ay0, ax1, ay1 = bounds(a)
    bx0, by0, bx1, by1 = bounds(b)
    return ax1 < bx0 or bx1 < ax0 or ay1 < by0 or by1 < ay0


def _positive(pts):
    return list(pts) if area(pts) > 0 else list(reversed(pts))


def clip_convex(subject, clip):
    """Sutherland-Hodgman: the part of convex `subject` inside convex `clip`."""
    out = _positive(subject)
    clip = _positive(clip)
    n = len(clip)
    for i in range(n):
        if not out:
            break
        (ax, ay), (bx, by) = clip[i], clip[(i + 1) % n]
        ex, ey = bx - ax, by - ay

        def side(p):
            return ex * (p[1] - ay) - ey * (p[0] - ax)

        src = out
        out = []
        for j in range(len(src)):
            p, q = src[j], src[(j + 1) % len(src)]
            sp, sq = side(p), side(q)
            if sp >= 0:
                out.append(p)
            if (sp >= 0) != (sq >= 0):
                t = sp / (sp - sq)
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def convex_iou(a, b):
    """Exact intersection over union of two convex rings."""
    if boxes_disjoint(a, b):
        return 0.0
    piece = clip_convex(a, b)
    inter = abs(area(piece)) if len(piece) >= 3 else 0.0
    union = abs(area(a)) + abs(area(b)) - inter
    return inter / union if union > 0 else 0.0


# --- matching, AP and the report -------------------------------------------

def greedy_match(rows, threshold):
    """Greedy assignment for score-ordered predictions of one image.

    `rows[i]` maps a ground-truth index to its IoU with prediction i (pairs
    missing from the map have IoU 0).  Each prediction takes the unused
    ground truth of highest IoU at or above `threshold`, the lower index on
    ties; returns the matched index or None per prediction.
    """
    used = set()
    out = []
    for row in rows:
        best = None
        for j in sorted(row):
            if j in used or row[j] < threshold:
                continue
            if best is None or row[j] > row[best]:
                best = j
        if best is not None:
            used.add(best)
        out.append(best)
    return out


def ap101(hits, total_gt):
    """101-point interpolated AP of score-ordered hit flags.

    Recall thresholds i/100 are compared in integers, so no float rounding
    decides whether a recall level is reached.
    """
    curve = []  # (true positives, precision) after each prediction
    tp = 0
    for k, hit in enumerate(hits, start=1):
        tp += 1 if hit else 0
        curve.append((tp, tp / k))
    total = 0.0
    for i in range(101):
        best = 0.0
        for tp_k, prec in curve:
            if 100 * tp_k >= i * total_gt and prec > best:
                best = prec
        total += best
    return total / 101


def reference_report(images, gt_vertices, pred_vertices, pred_scores):
    """The report fields a correct evaluation gives, from exact IoUs.

    `images` maps an image id to (gt indices, pred indices, iou) where
    `iou[(p, g)]` holds every nonzero exact IoU of that image's pairs.
    Vertex counts and scores are indexed by global gt / pred index.  Scores
    must be distinct and there must be at least one ground truth.
    """
    total_gt = sum(len(g) for g, _, _ in images.values())
    hits_by_thr = []
    tp_by_thr = []
    pairs50 = []
    for thr in IOU_THRESHOLDS:
        hit = {}
        tp = 0
        for gts, preds, iou in images.values():
            order = sorted(preds, key=lambda p: -pred_scores[p])
            rows = [{g: iou[(p, g)] for g in gts if (p, g) in iou} for p in order]
            for p, j in zip(order, greedy_match(rows, thr)):
                hit[p] = j is not None
                if j is not None:
                    tp += 1
                    if thr == 0.5:
                        pairs50.append((p, j, iou[(p, j)]))
        ranked = sorted(hit, key=lambda p: -pred_scores[p])
        hits_by_thr.append([hit[p] for p in ranked])
        tp_by_thr.append(tp)
    aps = [ap101(h, total_gt) for h in hits_by_thr]
    ars = [tp / total_gt for tp in tp_by_thr]
    ap = sum(aps) / len(aps)
    ar = sum(ars) / len(ars)
    report = {
        "ap": ap, "ap50": aps[0], "ap75": aps[5],
        "ar": ar, "ar50": ars[0], "ar75": ars[5],
        "f1": 0.0 if ap + ar == 0 else 2 * ap * ar / (ap + ar),
        "n_ratio": None, "c_iou": None,
    }
    if pairs50:
        report["n_ratio"] = (sum(pred_vertices[p] for p, _, _ in pairs50)
                             / sum(gt_vertices[g] for _, g, _ in pairs50))
        terms = []
        for p, g, iou in pairs50:
            vp, vg = pred_vertices[p], gt_vertices[g]
            terms.append(iou * (1 - abs(vg - vp) / (vg + vp)))
        report["c_iou"] = sum(terms) / len(terms)
    return report


# --- the sequence loss -----------------------------------------------------

def sequence_loss(tokens, valid_count, rows, grid_size):
    """Bidirectional sequence loss of one instance.

    The valid rows are rotated so that the row whose argmax cell centre lies
    nearest the first ground-truth cell comes first (NO-VERTEX rows are
    never chosen, the lowest index wins ties); the loss is the lower mean
    clamped cross entropy of that order and its reversed-direction twin.
    """
    k = valid_count
    no_vertex = grid_size * grid_size
    fy, fx = divmod(tokens[0], grid_size)
    start, best = 0, math.inf
    for i in range(k):
        row = list(rows[i])
        arg = row.index(max(row))
        if arg == no_vertex:
            continue
        ry, rx = divmod(arg, grid_size)
        d = math.hypot(rx - fx, ry - fy)
        if d < best:
            start, best = i, d
    forward = [(start + i) % k for i in range(k)]
    backward = forward[:1] + forward[1:][::-1]
    tail = list(range(k, len(tokens)))

    def cross_entropy(order):
        total = 0.0
        for tok, r in zip(tokens, order + tail):
            p = min(max(float(rows[r][tok]), PROB_CLAMP), 1.0 - PROB_CLAMP)
            total -= math.log(p)
        return total / len(tokens)

    return min(cross_entropy(forward), cross_entropy(backward))
