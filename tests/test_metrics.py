import math

import numpy as np
import pytest

from polymap.geometry import Polygon, normalize_orientation, polygon_iou
from polymap.metrics import (
    IOU_THRESHOLDS,
    GtInstance,
    Match,
    MetricReport,
    PredInstance,
    average_precision,
    c_iou,
    coco_suite,
    evaluate_instances,
    hits_average_precision,
    match_instances,
    matched_pairs,
    mta,
    n_ratio,
)
from polymap.metrics import _arc_table, _start_arcs
from polymap.selftest import naive_average_precision, naive_mta, naive_start_arcs


def square(x0, y0, side):
    return Polygon.from_points(
        [(x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side)]
    )


def square_with_midpoints(x0, y0, side):
    s = side
    return Polygon.from_points(
        [
            (x0, y0), (x0 + s / 2, y0), (x0 + s, y0), (x0 + s, y0 + s / 2),
            (x0 + s, y0 + s), (x0 + s / 2, y0 + s), (x0, y0 + s), (x0, y0 + s / 2),
        ]
    )


def greedy_match_oracle(iou_mat, threshold):
    """Exhaustive one-to-one assignment maximizing the greedy lexicographic key."""
    n_pred, n_gt = iou_mat.shape

    def best_assignment(i, used):
        if i == n_pred:
            return []
        candidates = [None] + [j for j in range(n_gt) if j not in used and iou_mat[i, j] >= threshold]
        best = None
        best_key = None
        for j in candidates:
            key = (-1.0, 0) if j is None else (iou_mat[i, j], -j)
            rest = best_assignment(i + 1, used | {j} if j is not None else used)
            full_key = [key] + [k for k, _ in rest] if rest else [key]
            if best_key is None or full_key > best_key:
                best_key = full_key
                best = [(key, j)] + rest
        return best

    result = best_assignment(0, frozenset())
    return [j for _, j in result]


class TestMatchInstances:
    def test_exact_match(self):
        gt = [GtInstance(1, square(0, 0, 10))]
        pred = [PredInstance(1, square(0, 0, 10), 0.9)]
        matches = match_instances(pred, gt, 0.5)
        assert len(matches) == 1
        assert matches[0].gt is gt[0]
        assert matches[0].iou == 1.0

    def test_single_use_gt(self):
        gt = [GtInstance(1, square(0, 0, 10))]
        preds = [
            PredInstance(1, square(0, 0, 10), 0.9),
            PredInstance(1, square(1, 0, 10), 0.5),
        ]
        matches = match_instances(preds, gt, 0.5)
        by_score = {m.pred.score: m for m in matches}
        assert by_score[0.9].gt is gt[0]
        assert by_score[0.5].gt is None

    def test_cross_image_isolation(self):
        gt = [GtInstance(1, square(0, 0, 10)), GtInstance(2, square(0, 0, 10))]
        preds = [PredInstance(2, square(0, 0, 10), 0.9)]
        matches = match_instances(preds, gt, 0.5)
        assert matches[0].gt is gt[1]

    def test_agrees_with_exhaustive_assignment_oracle(self):
        rng = np.random.RandomState(0)
        for _ in range(60):
            n_gt = rng.randint(1, 4)
            n_pred = rng.randint(1, 4)
            gts = [
                GtInstance(1, square(rng.uniform(0, 20), rng.uniform(0, 20), rng.uniform(4, 10)))
                for _ in range(n_gt)
            ]
            preds = [
                PredInstance(
                    1,
                    square(rng.uniform(0, 20), rng.uniform(0, 20), rng.uniform(4, 10)),
                    float(rng.rand()),
                )
                for _ in range(n_pred)
            ]
            matches = match_instances(preds, gts, 0.3)
            # Rebuild the IoU matrix in the same canonical order.
            order_p = sorted(preds, key=lambda p: (-p.score, tuple(p.polygon.to_flat())))
            order_g = sorted(gts, key=lambda g: tuple(g.polygon.to_flat()))
            mat = np.array(
                [[polygon_iou(p.polygon, g.polygon) for g in order_g] for p in order_p]
            )
            want = greedy_match_oracle(mat, 0.3)
            got = []
            match_by_pred = {id(m.pred): m for m in matches}
            for p in order_p:
                m = match_by_pred[id(p)]
                got.append(None if m.gt is None else order_g.index(m.gt))
            assert got == want

    def test_exact_iou_tie_goes_to_the_lower_gt(self):
        # The prediction sits halfway between two ground truths: equal IoUs.
        gts = [GtInstance(1, square(2, 0, 10)), GtInstance(1, square(0, 0, 10))]
        pred = [PredInstance(1, square(1, 0, 10), 0.9)]
        assert polygon_iou(pred[0].polygon, gts[0].polygon) == polygon_iou(pred[0].polygon, gts[1].polygon)
        assert match_instances(pred, gts, 0.5)[0].gt is gts[1]  # first in canonical order

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            match_instances([], [], 1.5)


class TestAveragePrecision:
    def test_single_correct(self):
        gt = GtInstance(1, square(0, 0, 4))
        m = [Match(PredInstance(1, square(0, 0, 4), 0.9), gt, 1.0)]
        assert average_precision(m, 1) == 1.0

    def test_correct_plus_false_positive(self):
        gt = GtInstance(1, square(0, 0, 4))
        m = [
            Match(PredInstance(1, square(0, 0, 4), 0.9), gt, 1.0),
            Match(PredInstance(1, square(20, 20, 4), 0.4), None, 0.0),
        ]
        assert average_precision(m, 1) == 1.0

    def test_nothing_matches(self):
        m = [Match(PredInstance(1, square(0, 0, 4), 0.9), None, 0.0)]
        assert average_precision(m, 1) == 0.0

    def test_empty_both(self):
        assert average_precision([], 0) == 1.0

    def test_preds_but_no_gt(self):
        m = [Match(PredInstance(1, square(0, 0, 4), 0.9), None, 0.0)]
        assert average_precision(m, 0) == 0.0

    def test_interleaved_hand_trace(self):
        # TP, FP, TP over 2 GTs: precisions 1, 1/2, 2/3 at recalls 1/2, 1/2, 1.
        # Interp precision: 1.0 for r <= 0.5 (51 pts), 2/3 above (50 pts).
        gt1 = GtInstance(1, square(0, 0, 4))
        gt2 = GtInstance(1, square(10, 0, 4))
        m = [
            Match(PredInstance(1, square(0, 0, 4), 0.9), gt1, 1.0),
            Match(PredInstance(1, square(20, 20, 4), 0.8), None, 0.0),
            Match(PredInstance(1, square(10, 0, 4), 0.7), gt2, 1.0),
        ]
        expect = (51 * 1.0 + 50 * (2 / 3)) / 101
        assert average_precision(m, 2) == pytest.approx(expect, abs=1e-12)

    def test_hits_equal_naive_oracle(self):
        rng = np.random.RandomState(7)
        for _ in range(400):
            hits = rng.rand(rng.randint(0, 40)) < rng.rand()
            total_gt = int(hits.sum()) + rng.randint(0, 5)
            assert hits_average_precision(hits, total_gt) == naive_average_precision(hits, total_gt)

    @pytest.mark.parametrize("hits, total_gt", [
        ([], 0), ([False], 0), ([True, False], 0),        # no ground truth
        ([], 3), ([False] * 5, 4),                        # all misses
        ([True] * 3 + [False] * 2 + [True], 100),         # recall in steps of 0.01, the grid
        ([False, True] * 25, 50), ([True, False] * 10, 20),
        ([True, False, False, True, True], 4),
    ])
    def test_edge_cases_equal_naive_oracle(self, hits, total_gt):
        got = hits_average_precision(np.array(hits, dtype=bool), total_gt)
        assert got == naive_average_precision(hits, total_gt)

    def test_negative_total_gt_rejected(self):
        with pytest.raises(ValueError):
            hits_average_precision(np.zeros(0, dtype=bool), -1)


class TestCocoSuite:
    def test_perfect_predictions(self):
        gts = [GtInstance(i, square(0, 0, 8)) for i in range(3)]
        preds = [PredInstance(i, square(0, 0, 8), 0.9) for i in range(3)]
        r = coco_suite(preds, gts)
        assert (r.ap, r.ap50, r.ap75, r.ar, r.ar50, r.ar75, r.f1) == (1.0,) * 7

    def test_empty_predictions(self):
        gts = [GtInstance(1, square(0, 0, 8))]
        r = coco_suite([], gts)
        assert (r.ap, r.ar, r.f1) == (0.0, 0.0, 0.0)

    def test_iou_0625_counts_at_three_thresholds(self):
        # 13x13 squares offset by 3: IoU = 130/208 = 0.625 exactly on an
        # integer-aligned raster, passing thresholds 0.50, 0.55, 0.60.
        gt = [GtInstance(1, square(0, 0, 13))]
        pred = [PredInstance(1, square(3, 0, 13), 0.9)]
        assert polygon_iou(pred[0].polygon, gt[0].polygon) == pytest.approx(0.625, abs=1e-12)
        r = coco_suite(pred, gt)
        assert r.ap == pytest.approx(0.3, abs=1e-12)
        assert r.ap50 == 1.0
        assert r.ap75 == 0.0
        assert r.ar == pytest.approx(0.3, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.RandomState(1)
        gts = [
            GtInstance(int(rng.randint(3)), square(rng.uniform(0, 30), rng.uniform(0, 30), rng.uniform(4, 9)))
            for _ in range(6)
        ]
        preds = [
            PredInstance(int(rng.randint(3)), square(rng.uniform(0, 30), rng.uniform(0, 30), rng.uniform(4, 9)), float(rng.rand()))
            for _ in range(6)
        ]
        # Jittered copies of the ground truth, so the polygonal fields are set.
        preds += [
            PredInstance(g.image_id, g.polygon.translated(rng.uniform(-1, 1), rng.uniform(-1, 1)), float(rng.rand()))
            for g in gts[:4]
        ]
        # Exact duplicates: same image, score and ring.
        preds += [preds[-1], PredInstance(preds[0].image_id, preds[0].polygon, preds[0].score)]
        base = coco_suite(preds, gts)
        perm = coco_suite(list(reversed(preds)), list(reversed(gts)))
        assert base.as_dict() == perm.as_dict()
        full = evaluate_instances(preds, gts)
        assert full.n_ratio is not None and full.mta is not None
        assert evaluate_instances(list(reversed(preds)), list(reversed(gts))).as_dict() == full.as_dict()
        shuffled = rng.permutation(len(preds))
        assert evaluate_instances([preds[i] for i in shuffled], gts).as_dict() == full.as_dict()

    def test_duplicate_predictions_rank_the_matched_copy_first(self):
        # Only one copy can match (IoU 0.78125); the greedy pass gives it to
        # the copy first in input order, and the ranking keeps that copy
        # first.  Each image's copies are input in descending object id, so
        # ordering the tie by identity would rank the unmatched copy first.
        gts = [GtInstance(1, square(0, 0, 8)), GtInstance(2, square(0, 0, 8))]
        preds = []
        for image_id in (1, 2):
            copies = [PredInstance(image_id, square(1, 0, 8), 0.7) for _ in range(2)]
            preds += sorted(copies, key=id, reverse=True)
        ranked = match_instances(preds, gts, 0.5)
        assert [m.pred is p for m, p in zip(ranked, preds)] == [True] * 4
        assert [m.gt is not None for m in ranked] == [True, False, True, False]
        r = evaluate_instances(preds, gts)
        hit_ap = naive_average_precision([True, False, True, False], 2)
        assert hit_ap != naive_average_precision([False, True, False, True], 2)
        assert r.ap == float(np.mean([hit_ap] * 6 + [0.0] * 4))  # matches up to 0.75
        assert (r.ap50, r.ap75, r.ar50, r.ar75) == (hit_ap, hit_ap, 1.0, 1.0)
        assert r.c_iou == 0.78125 and r.n_ratio == 1.0

    def test_ap_ar_non_increasing_in_threshold(self):
        rng = np.random.RandomState(2)
        gts = [GtInstance(1, square(i * 12, 0, 8)) for i in range(4)]
        preds = [
            PredInstance(1, square(i * 12 + rng.uniform(0, 3), rng.uniform(0, 3), 8), float(rng.rand()))
            for i in range(4)
        ]
        values = []
        for thr in IOU_THRESHOLDS:
            ms = match_instances(preds, gts, thr)
            values.append(average_precision(ms, len(gts)))
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestPolygonalMetrics:
    def test_n_ratio_identity(self):
        gts = [GtInstance(1, square(0, 0, 8))]
        preds = [PredInstance(1, square(0, 0, 8), 0.9)]
        pairs = matched_pairs(preds, gts)
        assert n_ratio(pairs) == 1.0

    def test_n_ratio_doubled(self):
        gts = [GtInstance(1, square(0, 0, 8))]
        preds = [PredInstance(1, square_with_midpoints(0, 0, 8), 0.9)]
        pairs = matched_pairs(preds, gts)
        assert n_ratio(pairs) == 2.0

    def test_n_ratio_requires_matches(self):
        with pytest.raises(ValueError):
            n_ratio([])

    def test_c_iou_identical(self):
        gts = [GtInstance(1, square(0, 0, 8))]
        preds = [PredInstance(1, square(0, 0, 8), 0.9)]
        assert c_iou(matched_pairs(preds, gts)) == 1.0

    def test_c_iou_midpoint_split_two_thirds(self):
        gts = [GtInstance(1, square(0, 0, 8))]
        preds = [PredInstance(1, square_with_midpoints(0, 0, 8), 0.9)]
        assert c_iou(matched_pairs(preds, gts)) == pytest.approx(2 / 3, abs=1e-9)

    def test_c_iou_bounded_by_mean_iou(self):
        rng = np.random.RandomState(3)
        gts = [GtInstance(1, square(i * 12, 0, 9)) for i in range(3)]
        preds = [
            PredInstance(1, square(i * 12 + rng.uniform(0, 2), rng.uniform(0, 2), 9), 0.9)
            for i in range(3)
        ]
        pairs = matched_pairs(preds, gts)
        mean_iou = np.mean([iou for _, _, iou in pairs])
        assert c_iou(pairs) <= mean_iou + 1e-12


class TestMta:
    def test_identical_zero(self):
        p = square(0, 0, 10)
        assert mta(p, p) == 0.0

    def test_rotated_square_quarter_pi(self):
        base = square(-1, -1, 2)
        s = math.sqrt(2)
        rotated = Polygon.from_points([(s, 0), (0, s), (-s, 0), (0, -s)])
        assert mta(base, rotated, samples=256) == pytest.approx(math.pi / 4, abs=0.02)

    def test_orientation_of_pred_irrelevant(self):
        base = square(0, 0, 10)
        pred = Polygon.from_points([(0, 0), (10.5, -0.2), (9.8, 10.1), (0.2, 9.9)])
        flipped = Polygon(tuple(reversed(pred.vertices)))
        assert mta(pred, base) == pytest.approx(mta(flipped, base), abs=1e-12)

    def test_bounded_by_pi(self):
        rng = np.random.RandomState(4)
        for _ in range(10):
            a = square(rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(3, 8))
            pts = rng.uniform(0, 10, size=(5, 2))
            try:
                b = Polygon.from_points(pts)
            except ValueError:
                continue
            v = mta(a, b, samples=32)
            assert 0.0 <= v <= math.pi

    def test_sample_floor(self):
        p = square(0, 0, 4)
        with pytest.raises(ValueError):
            mta(p, p, samples=4)


def _assert_mta_equals_oracle(pred, gt, samples=32):
    tables = [_arc_table(normalize_orientation(p, ccw=True).as_array()) for p in (pred, gt)]
    assert _start_arcs(*tables) == naive_start_arcs(*tables)
    assert mta(pred, gt, samples) == naive_mta(pred, gt, samples)


class TestMtaOracle:
    """`mta` and its start point against the vertex-by-edge scan, with `==`."""

    def test_random_rings(self):
        rng = np.random.RandomState(11)
        tried = 0
        for i in range(300):
            scale = (1.0, 1e-3, 1e4)[i % 3]
            rings = [rng.uniform(0, 10, size=(rng.randint(3, 9), 2)) * scale for _ in range(2)]
            try:
                pred, gt = (Polygon.from_points(r) for r in rings)
            except ValueError:  # a repeated vertex or zero area
                continue
            tried += 1
            _assert_mta_equals_oracle(pred, gt, samples=(8, 32, 128)[i % 3])
        assert tried > 250

    def test_clockwise_inputs(self):
        rng = np.random.RandomState(12)
        for _ in range(40):
            gt = square(rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(3, 8))
            pred = gt.translated(rng.uniform(-1, 1), rng.uniform(-1, 1))
            cw_pred = Polygon(tuple(reversed(pred.vertices)))
            cw_gt = Polygon(tuple(reversed(gt.vertices)))
            for p, g in ((cw_pred, gt), (pred, cw_gt), (cw_pred, cw_gt)):
                _assert_mta_equals_oracle(p, g)

    def test_collinear_vertices(self):
        rng = np.random.RandomState(13)
        for _ in range(40):
            x, y, side = rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(3, 8)
            jitter = square_with_midpoints(x + rng.uniform(-1, 1), y + rng.uniform(-1, 1), side)
            _assert_mta_equals_oracle(jitter, square(x, y, side))
            _assert_mta_equals_oracle(square(x, y, side), jitter)

    def test_ties(self):
        cases = [
            # Every GT vertex equidistant from two prediction edges.
            (square(1, 1, 8), square(0, 0, 10)),
            (square(-1, -1, 12), square(0, 0, 10)),
            # GT vertices on prediction vertices: distance 0 at an edge's end
            # and at the next edge's start.
            (square(0, 0, 10), square(0, 0, 10)),
            (square_with_midpoints(0, 0, 10), square(0, 0, 10)),
            (square(0, 0, 10), square_with_midpoints(0, 0, 10)),
            (Polygon.from_points([(0, 0), (10, 0), (5, 8)]), square(0, 0, 10)),
            # A diamond whose vertices sit on the square's edge midpoints.
            (Polygon.from_points([(5, 0), (10, 5), (5, 10), (0, 5)]), square(0, 0, 10)),
            (square(0, 0, 10), Polygon.from_points([(5, 0), (10, 5), (5, 10), (0, 5)])),
            (square(0.1, 0.1, 1e-3), square(0, 0, 0.3)),
        ]
        for pred, gt in cases:
            for samples in (8, 33, 128):
                _assert_mta_equals_oracle(pred, gt, samples)


class TestEvaluateInstances:
    def test_identity_report(self):
        gts = [GtInstance(i, square(2, 3, 8)) for i in range(2)]
        preds = [PredInstance(i, square(2, 3, 8), 0.95) for i in range(2)]
        r = evaluate_instances(preds, gts)
        assert r.ap == r.ar == r.f1 == 1.0
        assert r.n_ratio == 1.0
        assert r.c_iou == 1.0
        assert r.mta == 0.0

    def test_no_match_polygonal_none(self):
        gts = [GtInstance(1, square(0, 0, 8))]
        preds = [PredInstance(1, square(50, 50, 8), 0.9)]
        r = evaluate_instances(preds, gts)
        assert r.ap == 0.0
        assert r.n_ratio is None and r.c_iou is None and r.mta is None

    def test_max_dets_limits_ap_ar_but_not_the_pairing(self):
        # The only match is the image's second-ranked prediction.
        gts = [GtInstance(1, square(0, 0, 8))]
        preds = [
            PredInstance(1, square(40, 40, 8), 0.9),
            PredInstance(1, square_with_midpoints(0, 0, 8), 0.5),
        ]
        top1 = evaluate_instances(preds, gts, max_dets=1)
        assert top1.ap == 0.0 and top1.ar == 0.0
        assert top1.n_ratio == 2.0 and top1.c_iou == pytest.approx(2 / 3, abs=1e-9)
        both = evaluate_instances(preds, gts, max_dets=2)
        assert both.ap == 0.5 and both.ar == 1.0  # the false positive ranks first
        assert (both.n_ratio, both.c_iou, both.mta) == (top1.n_ratio, top1.c_iou, top1.mta)

    def test_csv_round_trip_columns(self):
        r = MetricReport(1, 1, 1, 1, 1, 1, 1, None, None, None)
        row = r.csv_row()
        assert row.endswith(",,,")
        assert MetricReport.csv_header().split(",")[0] == "ap"
