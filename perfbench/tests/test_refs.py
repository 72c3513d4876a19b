"""The benchmark's reference code on hand cases and against polymap's oracles."""
import numpy as np
import pytest

import refs
import workloads
from polymap.geometry import Polygon, polygon_iou
from polymap.selftest import naive_bidirectional_loss


def square(x0, y0, side):
    return [(x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side)]


def test_half_offset_unit_squares_give_one_third():
    assert refs.convex_iou(square(0, 0, 1), square(0.5, 0, 1)) == pytest.approx(1 / 3, abs=1e-15)


def test_iou_ignores_orientation_and_collinear_vertices():
    a = square(0, 0, 4)
    # A 4x4 square at (1, 1) with its far corner cut (area 14), clockwise,
    # with a collinear vertex at (3, 1); it overlaps `a` in [1, 4]^2.
    b = [(1, 1), (3, 1), (5, 1), (5, 3), (3, 5), (1, 5)][::-1]
    assert refs.convex_iou(a, b) == pytest.approx(9 / 21, abs=1e-15)
    assert refs.convex_iou(b, a) == pytest.approx(9 / 21, abs=1e-15)


def test_disjoint_and_touching_boxes():
    assert refs.convex_iou(square(0, 0, 1), square(2, 0, 1)) == 0.0
    assert refs.boxes_disjoint(square(0, 0, 1), square(2, 0, 1))
    assert not refs.boxes_disjoint(square(0, 0, 1), square(1, 0, 1))
    assert refs.convex_iou(square(0, 0, 1), square(1, 0, 1)) == 0.0


def test_ap_trace_of_the_shifted_square_is_0_3():
    # IoU = 130 / 208 = 0.625: matched at 0.50, 0.55 and 0.60 only.
    iou = refs.convex_iou(square(3, 0, 13), square(0, 0, 13))
    assert iou == pytest.approx(0.625, abs=1e-15)
    report = refs.reference_report({1: ([0], [0], {(0, 0): iou})}, [4], [4], [0.9])
    assert report["ap"] == pytest.approx(0.3, abs=1e-12)
    assert (report["ap50"], report["ap75"]) == (1.0, 0.0)
    assert report["n_ratio"] == 1.0 and report["c_iou"] == iou


def test_greedy_match_order_threshold_and_ties():
    rows = [{0: 0.6, 1: 0.8}, {1: 0.9}, {0: 0.7, 1: 0.7}]
    assert refs.greedy_match(rows, 0.5) == [1, None, 0]
    assert refs.greedy_match(rows, 0.75) == [1, None, None]
    assert refs.greedy_match([{0: 0.7, 1: 0.7}], 0.5) == [0]


def test_ap101_hand_values():
    assert refs.ap101([True, True], 2) == 1.0
    assert refs.ap101([False, False], 2) == 0.0
    assert refs.ap101([True, False], 2) == pytest.approx(51 / 101, abs=1e-15)
    # precision 1/2 reaches recall 1 after a miss: 101 levels at 1/2 except 0..50 at 1.
    assert refs.ap101([True, False, True], 2) == pytest.approx((51 + 50 * 2 / 3) / 101)


def test_sequence_loss_matches_the_selftest_oracle():
    rng = np.random.RandomState(7)
    grid = 5
    for _ in range(200):
        m = int(rng.randint(3, 13))
        k = int(rng.randint(1, m))
        tokens = [int(t) for t in rng.randint(0, grid * grid, size=k)] + [grid * grid] * (m - k)
        rows = rng.gamma(1.0, 1.0, size=(m, grid * grid + 1)) + 1e-4
        rows /= rows.sum(axis=1, keepdims=True)
        want = naive_bidirectional_loss(tokens, k, rows.tolist(), grid)
        assert refs.sequence_loss(tokens, k, rows, grid) == pytest.approx(want, abs=1e-12)


def test_sequence_loss_is_orientation_invariant():
    grid, cells = 6, [3, 10, 27, 33]
    m = 6
    tokens = cells + [grid * grid] * (m - len(cells))
    for order in (cells[1:] + cells[:1], cells[::-1]):
        rows = np.zeros((m, grid * grid + 1))
        for i, t in enumerate(order + [grid * grid] * (m - len(cells))):
            rows[i, t] = 1.0
        assert refs.sequence_loss(tokens, len(cells), rows, grid) < 1e-6


def test_rasterized_iou_stays_within_the_margin_on_eval_shapes():
    """The margin the eval inputs keep from every threshold covers the raster error."""
    worst = 0.0
    pairs = 0
    for seed in range(1, 5):
        inputs = workloads.make_eval_inputs(seed=seed, n_images=2)
        gts = {}
        for a in inputs.gt_doc["annotations"]:
            gts.setdefault(a["image_id"], []).append(a["segmentation"][0])
        for p in inputs.pred_doc["annotations"]:
            pflat = p["segmentation"][0]
            for gflat in gts[p["image_id"]]:
                exact = refs.convex_iou(workloads._ring(pflat), workloads._ring(gflat))
                if exact == 0.0:
                    continue
                got = polygon_iou(Polygon.from_flat(pflat), Polygon.from_flat(gflat), 256)
                worst = max(worst, abs(got - exact))
                pairs += 1
    assert pairs > 100
    assert worst < workloads.IOU_MARGIN / 2, worst
