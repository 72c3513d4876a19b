import math

import numpy as np
import pytest

from polymap.geometry import BBox, Polygon
from polymap.polyloss import (
    PredDistSeq,
    VertexTokenSeq,
    align_inverse,
    align_shift,
    bce_loss,
    bidirectional_loss,
    box_l1_loss,
    encode_gt_maps,
    encode_gt_sequence,
    exhaustive_alignment_loss,
    focal_loss,
    no_vertex_index,
    search_reference,
    sequence_loss,
)
from polymap.selftest import (
    naive_bidirectional_loss,
    naive_encode_gt_maps,
    naive_exhaustive_loss,
)

G = 5
V = G * G + 1
NOV = no_vertex_index(G)


def one_hot_rows(tokens, vocab=V, smooth=False):
    rows = np.zeros((len(tokens), vocab))
    if smooth:
        rows[:] = 1e-7 / (vocab - 1)
        for i, t in enumerate(tokens):
            rows[i, t] = 1.0 - 1e-7
    else:
        for i, t in enumerate(tokens):
            rows[i, t] = 1.0
    return PredDistSeq(rows)


def random_gt(rng, m, k=None, grid=G, distinct=False):
    if k is None:
        k = rng.randint(1, m)
    if distinct:
        cells = rng.choice(grid * grid, size=k, replace=False)
    else:
        cells = rng.randint(0, grid * grid, size=k)
        for i in range(1, k):
            while cells[i] == cells[i - 1] or (i == k - 1 and cells[i] == cells[0] and k > 1):
                cells[i] = rng.randint(0, grid * grid)
    tokens = tuple(int(c) for c in cells) + (no_vertex_index(grid),) * (m - k)
    return VertexTokenSeq(tokens=tokens, valid_count=k, grid_size=grid)


def random_pred(rng, m, vocab=V):
    rows = rng.gamma(1.0, 1.0, size=(m, vocab)) + 1e-4
    rows /= rows.sum(axis=1, keepdims=True)
    return PredDistSeq(rows)


class TestTypes:
    def test_token_seq_validation(self):
        with pytest.raises(ValueError):
            VertexTokenSeq(tokens=(0, 1, NOV, 3), valid_count=2, grid_size=G)
        with pytest.raises(ValueError):
            VertexTokenSeq(tokens=(NOV, NOV), valid_count=1, grid_size=G)

    def test_dist_seq_validation(self):
        bad = np.full((2, V), 1.0 / V)
        bad[0, 0] += 1e-6
        with pytest.raises(ValueError):
            PredDistSeq(bad)
        with pytest.raises(ValueError):
            PredDistSeq(np.ones((2, 7)) / 7)  # 7 is not G*G+1


class TestEncodeSequence:
    def test_square_at_crop_corners(self):
        crop = BBox.from_xywh(10, 20, 40, 40)
        p = Polygon.from_points([(10, 20), (50, 20), (50, 60), (10, 60)])
        seq = encode_gt_sequence(p, 20, 8, crop)
        assert seq.valid_count == 4
        # (row, col) cells: (0,0), (0,19), (19,19), (19,0)
        assert seq.tokens[:4] == (0, 19, 19 * 20 + 19, 19 * 20)
        assert all(t == 400 for t in seq.tokens[4:])

    def test_adjacent_vertices_share_cell_collapse(self):
        crop = BBox.from_xywh(0, 0, 100, 100)
        p = Polygon.from_points([(1, 1), (2, 2), (90, 1), (90, 90)])
        seq = encode_gt_sequence(p, 20, 8, crop)
        assert seq.valid_count == 3

    def test_too_many_vertices(self):
        crop = BBox.from_xywh(0, 0, 10, 10)
        p = Polygon.from_points([(0, 0), (10, 0), (10, 10), (5, 12), (0, 10)])
        with pytest.raises(ValueError):
            encode_gt_sequence(p, 20, 4, crop)

    def test_gt_maps_mark_vertices_and_edges(self):
        crop = BBox.from_xywh(0, 0, 10, 10)
        p = Polygon.from_points([(0, 0), (10, 0), (10, 10), (0, 10)])
        vmap, emap = encode_gt_maps(p, 10, crop)
        assert vmap[0, 0] == 1.0 and vmap[0, 9] == 1.0 and vmap[9, 9] == 1.0
        assert emap[0, :].all() and emap[:, 0].all()  # boundary rows covered
        assert emap[5, 5] == 0.0  # interior untouched

    @pytest.mark.parametrize("grid", [4, 8, 13, 28])
    def test_gt_maps_equal_the_loop(self, grid):
        # Random rings, every other one on the quarter-pixel lattice, under
        # jittered crops of every aspect that may cut the ring.  A crop of
        # side `grid` at whole pixels maps the lattice onto quarter cells, so
        # many samples fall exactly on cell borders.
        rng = np.random.RandomState(grid)
        cases = 0
        for i in range(150):
            pts = rng.uniform(-5.0, 60.0, size=(int(rng.randint(3, 12)), 2))
            if i % 2 == 0:
                pts = np.round(pts * 4) / 4
            try:
                p = Polygon.from_points(pts)
            except ValueError:  # a repeated vertex or zero area
                continue
            for j in range(3):
                x0, y0 = rng.uniform(-10.0, 30.0, size=2)
                if i % 2 == 0 and j == 0:
                    crop = BBox.from_xywh(np.round(x0), np.round(y0), grid, grid)
                else:
                    crop = BBox.from_xywh(x0, y0, *rng.uniform(0.5, 70.0, size=2))
                got, want = encode_gt_maps(p, grid, crop), naive_encode_gt_maps(p, grid, crop)
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
                cases += 1
        assert cases > 300


class TestSearchReference:
    def test_perfect_prediction(self):
        gt = random_gt(np.random.RandomState(0), 8, k=5, distinct=True)
        pred = one_hot_rows(gt.tokens)
        assert search_reference(pred, gt.tokens[0], gt.valid_count) == 0

    def test_cyclic_shift_found(self):
        tokens = (3, 7, 12, 21, NOV, NOV)
        rotated = (12, 21, 3, 7, NOV, NOV)
        pred = one_hot_rows(rotated)
        assert search_reference(pred, 3, 4) == 2

    def test_matches_linear_scan_oracle(self):
        rng = np.random.RandomState(42)
        for _ in range(30):
            pred = random_pred(rng, 6)
            gt_first = int(rng.randint(0, G * G))
            k = int(rng.randint(1, 7))
            got = search_reference(pred, gt_first, k)
            # independent scan
            target = (gt_first % G + 0.5, gt_first // G + 0.5)
            best, best_d = 0, math.inf
            for i in range(k):
                arg = int(np.argmax(pred.dists[i]))
                if arg == NOV:
                    continue
                c = (arg % G + 0.5, arg // G + 0.5)
                d = math.hypot(c[0] - target[0], c[1] - target[1])
                if d < best_d:
                    best, best_d = i, d
            assert got == best

    def test_k_zero_rejected(self):
        pred = random_pred(np.random.RandomState(1), 4)
        with pytest.raises(ValueError):
            search_reference(pred, 0, 0)


class TestAlignment:
    def test_shift_zero_identity(self):
        pred = random_pred(np.random.RandomState(2), 6)
        out = align_shift(pred, 0, 4)
        assert np.array_equal(out.dists, pred.dists)

    def test_shift_by_one(self):
        pred = random_pred(np.random.RandomState(3), 6)
        out = align_shift(pred, 1, 4)
        assert np.array_equal(out.dists[:4], pred.dists[[1, 2, 3, 0]])
        assert np.array_equal(out.dists[4:], pred.dists[4:])

    def test_shift_group_property(self):
        pred = random_pred(np.random.RandomState(4), 7)
        k, t = 5, 2
        back = align_shift(align_shift(pred, t, k), k - t, k)
        assert np.allclose(back.dists, pred.dists)

    def test_inverse_small_k_identity(self):
        pred = random_pred(np.random.RandomState(5), 5)
        assert np.array_equal(align_inverse(pred, 2).dists, pred.dists)

    def test_inverse_reverses_tail(self):
        pred = random_pred(np.random.RandomState(6), 6)
        out = align_inverse(pred, 4)
        assert np.array_equal(out.dists[:4], pred.dists[[0, 3, 2, 1]])

    def test_inverse_involution(self):
        pred = random_pred(np.random.RandomState(7), 8)
        twice = align_inverse(align_inverse(pred, 6), 6)
        assert np.array_equal(twice.dists, pred.dists)


class TestBidirectionalLoss:
    def test_perfect_prediction_near_zero(self):
        rng = np.random.RandomState(10)
        gt = random_gt(rng, 8, k=5, distinct=True)
        pred = one_hot_rows(gt.tokens, smooth=True)
        loss, _ = bidirectional_loss(gt, pred)
        assert loss < 1e-6

    def test_reflection_same_loss(self):
        rng = np.random.RandomState(11)
        gt = random_gt(rng, 8, k=6, distinct=True)
        pred = one_hot_rows(gt.tokens, smooth=True)
        reflected = align_inverse(pred, gt.valid_count)
        base, _ = bidirectional_loss(gt, pred)
        refl, _ = bidirectional_loss(gt, reflected)
        assert refl == pytest.approx(base, abs=1e-15)
        assert refl < 1e-6

    def test_matches_naive_oracle(self):
        rng = np.random.RandomState(12)
        for _ in range(50):
            m = int(rng.randint(3, 11))
            k = int(rng.randint(1, min(m, 8) + 1))
            gt = random_gt(rng, m, k=k)
            pred = random_pred(rng, m)
            got, _ = bidirectional_loss(gt, pred)
            want = naive_bidirectional_loss(
                list(gt.tokens), gt.valid_count, pred.dists.tolist(), G
            )
            assert got == pytest.approx(want, abs=1e-12)

    def test_rotation_and_reflection_invariance_hard_one_hot(self):
        rng = np.random.RandomState(13)
        for _ in range(10):
            k = int(rng.randint(3, 9))
            gt = random_gt(rng, 10, k=k, distinct=True)
            base = one_hot_rows(gt.tokens)
            for r in range(k):
                rotated = align_shift(base, r, k)
                loss, _ = bidirectional_loss(gt, rotated)
                assert loss < 1e-6
                loss, _ = bidirectional_loss(gt, align_inverse(rotated, k))
                assert loss < 1e-6

    def test_gradient_matches_finite_differences(self):
        rng = np.random.RandomState(14)
        eps = 1e-5
        for _ in range(5):
            m = 6
            gt = random_gt(rng, m, k=4, distinct=True)
            dists = rng.gamma(2.0, 1.0, size=(1, m, V)) + 0.05
            dists /= dists.sum(axis=2, keepdims=True)
            loss, grad = sequence_loss(dists, [gt])
            for _ in range(40):
                i = rng.randint(m)
                j = rng.randint(V)
                d2 = dists.copy()
                d2[0, i, j] += eps
                up = sequence_loss(d2, [gt])[0]
                d2[0, i, j] -= 2 * eps
                down = sequence_loss(d2, [gt])[0]
                fd = (up - down) / (2 * eps)
                assert abs(fd - grad[0, i, j]) <= 1e-5 * max(1.0, abs(fd), abs(grad[0, i, j]))

    def test_empty_gt_rejected(self):
        pred = random_pred(np.random.RandomState(15), 4)
        gt = VertexTokenSeq(tokens=(NOV,) * 4, valid_count=0, grid_size=G)
        with pytest.raises(ValueError):
            bidirectional_loss(gt, pred)


class TestExhaustiveLoss:
    def test_perfect(self):
        gt = random_gt(np.random.RandomState(16), 8, k=5, distinct=True)
        pred = one_hot_rows(gt.tokens, smooth=True)
        assert exhaustive_alignment_loss(gt, pred) < 1e-6

    def test_lower_bound_of_bidirectional(self):
        rng = np.random.RandomState(17)
        for _ in range(50):
            m = int(rng.randint(3, 11))
            gt = random_gt(rng, m)
            pred = random_pred(rng, m)
            bi, _ = bidirectional_loss(gt, pred)
            assert exhaustive_alignment_loss(gt, pred) <= bi + 1e-12

    def test_matches_enumeration_oracle(self):
        rng = np.random.RandomState(18)
        for _ in range(20):
            m = int(rng.randint(3, 9))
            gt = random_gt(rng, m)
            pred = random_pred(rng, m)
            want = naive_exhaustive_loss(list(gt.tokens), gt.valid_count, pred.dists.tolist())
            assert exhaustive_alignment_loss(gt, pred) == pytest.approx(want, abs=1e-12)


class TestSequenceLoss:
    def test_batch_mean_of_bidirectional_loss(self):
        rng = np.random.RandomState(21)
        gts = [random_gt(rng, 7, k=k) for k in (1, 3, 6)]
        preds = [random_pred(rng, 7) for _ in gts]
        dists = np.stack([p.dists for p in preds])
        value, grad = sequence_loss(dists, gts)
        rows = [bidirectional_loss(gt, p) for gt, p in zip(gts, preds)]
        assert value == pytest.approx(sum(v for v, _ in rows) / 3, abs=1e-15)
        for r, (_, g) in enumerate(rows):
            assert np.array_equal(grad[r], g / 3)

    def test_bad_batches_rejected(self):
        rng = np.random.RandomState(22)
        gt = random_gt(rng, 4, k=2)
        dists = np.stack([random_pred(rng, 4).dists])
        with pytest.raises(ValueError):
            sequence_loss(dists[:0], [])
        with pytest.raises(ValueError):
            sequence_loss(dists, [gt, gt])
        with pytest.raises(ValueError):
            sequence_loss(dists, [VertexTokenSeq(tokens=(NOV,) * 4, valid_count=0, grid_size=G)])
        with pytest.raises(ValueError):
            sequence_loss(dists, [random_gt(rng, 5, k=2)])
        with pytest.raises(ValueError):
            sequence_loss(dists, [random_gt(rng, 4, k=2, grid=4)])


def focal_value(p, target):
    """Focal loss of a single-pixel map with probability p."""
    return focal_loss(np.full((1, 1, 1), p), np.full((1, 1, 1), float(target)))[0]


class TestFocalLoss:
    def test_perfect_maps_near_zero(self):
        target = np.zeros((2, 4, 4))
        target[:, 1, 2] = 1.0
        probs = np.where(target > 0.5, 1.0 - 1e-7, 1e-7)
        loss, _ = focal_loss(probs, target)
        assert loss < 1e-5

    def test_single_positive_half(self):
        # -2 * 0.5^4 * ln(0.5) = 0.0866434...
        loss = focal_value(0.5, 1)
        assert loss == pytest.approx(-2 * 0.5**4 * math.log(0.5), abs=1e-6)
        assert loss == pytest.approx(0.086643, abs=1e-6)

    def test_single_negative_half_symmetric(self):
        assert focal_value(0.5, 0) == pytest.approx(0.086643, abs=1e-6)

    def test_monotonic_in_p(self):
        ps = np.linspace(0.05, 0.95, 19)
        pos_losses = [focal_value(p, 1) for p in ps]
        neg_losses = [focal_value(p, 0) for p in ps]
        assert all(a > b for a, b in zip(pos_losses, pos_losses[1:]))
        assert all(a < b for a, b in zip(neg_losses, neg_losses[1:]))

    def test_batch_is_mean_of_instances(self):
        rng = np.random.RandomState(23)
        probs = rng.uniform(0.1, 0.9, size=(3, 1, 4, 4))
        target = (rng.rand(3, 1, 4, 4) > 0.7).astype(float)
        value, grad = focal_loss(probs, target)
        rows = [focal_loss(probs[r:r + 1], target[r:r + 1]) for r in range(3)]
        assert value == pytest.approx(sum(v for v, _ in rows) / 3, abs=1e-15)
        for r, (_, g) in enumerate(rows):
            assert np.allclose(grad[r], g[0] / 3, rtol=1e-15, atol=0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.RandomState(19)
        probs = rng.uniform(0.1, 0.9, size=(2, 1, 5, 5))
        target = (rng.rand(2, 1, 5, 5) > 0.7).astype(float)
        eps = 1e-6
        _, grad = focal_loss(probs, target)
        for _ in range(20):
            idx = (rng.randint(2), 0, rng.randint(5), rng.randint(5))
            p2 = probs.copy()
            p2[idx] += eps
            up, _ = focal_loss(p2, target)
            p2[idx] -= 2 * eps
            down, _ = focal_loss(p2, target)
            fd = (up - down) / (2 * eps)
            assert abs(fd - grad[idx]) <= 1e-5 * max(1.0, abs(fd))

    def test_clamped_pixels_get_no_gradient(self):
        probs = np.array([[[0.0, 1e-9, 0.5, 1.0]]])
        _, grad = focal_loss(probs, np.array([[[1.0, 1.0, 1.0, 0.0]]]))
        assert np.array_equal(grad[0, 0] == 0.0, [True, True, False, True])

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            focal_loss(np.full((2, 1, 3, 3), 0.5), np.zeros((2, 3, 3)))
        with pytest.raises(ValueError):
            focal_loss(np.zeros((0, 1, 3, 3)), np.zeros((0, 1, 3, 3)))


class TestClsAndBoxLosses:
    def test_cls_perfect(self):
        assert bce_loss(np.array([[1.0 - 1e-7]]), [1])[0] < 1e-6

    def test_cls_half(self):
        assert bce_loss(np.array([[0.5]]), [1])[0] == pytest.approx(math.log(2), abs=1e-9)
        assert bce_loss(np.array([[0.5]]), [0])[0] == pytest.approx(math.log(2), abs=1e-9)

    def test_cls_empty_rejected(self):
        with pytest.raises(ValueError):
            bce_loss(np.zeros((0, 1)), [])
        with pytest.raises(ValueError):
            bce_loss(np.full((2, 1), 0.5), [1])

    def test_cls_gradient(self):
        rng = np.random.RandomState(20)
        probs = rng.uniform(0.2, 0.8, size=(6, 1))
        labels = [1, 0, 1, 1, 0, 0]
        _, grad = bce_loss(probs, labels)
        assert grad.shape == probs.shape
        eps = 1e-6
        for i in range(6):
            p2 = probs.copy()
            p2[i, 0] += eps
            up = bce_loss(p2, labels)[0]
            p2[i, 0] -= 2 * eps
            down = bce_loss(p2, labels)[0]
            assert (up - down) / (2 * eps) == pytest.approx(grad[i, 0], rel=1e-5)

    @staticmethod
    def box_value(pred, gt, positive=None):
        pred, gt = np.array(pred, dtype=float), np.array(gt, dtype=float)
        flags = np.ones(len(gt), dtype=bool) if positive is None else positive
        return box_l1_loss(pred, gt, flags)

    def test_bbox_identity(self):
        assert self.box_value([(5, 5, 2, 2)], [(5, 5, 2, 2)])[0] == 0.0

    def test_bbox_unit_offset(self):
        assert self.box_value([(6, 5, 2, 2)], [(5, 5, 2, 2)])[0] == 1.0

    def test_bbox_mean_of_four_and_two(self):
        gt = [(0, 0, 1, 1), (0, 0, 1, 1)]
        pred = [(1, 1, 2, 2), (0, 2, 1, 1)]
        assert self.box_value(pred, gt)[0] == 3.0

    def test_bbox_negatives_ignored(self):
        gt = [(0, 0, 1, 1), (0, 0, 1, 1), (9, 9, 9, 9)]
        pred = [(1, 1, 2, 2), (0, 2, 1, 1), (0, 0, 0, 0)]
        value, grad = self.box_value(pred, gt, np.array([True, True, False]))
        assert value == 3.0
        assert not grad[2].any()

    def test_bbox_length_mismatch(self):
        with pytest.raises(ValueError):
            box_l1_loss(np.zeros((1, 4)), np.zeros((0, 4)), np.ones(1, dtype=bool))
        with pytest.raises(ValueError):
            box_l1_loss(np.zeros((2, 4)), np.zeros((2, 4)), np.ones(1, dtype=bool))
        with pytest.raises(ValueError):
            box_l1_loss(np.zeros((0, 4)), np.zeros((0, 4)), np.ones(0, dtype=bool))

    def test_bbox_gradient_sign(self):
        _, grad = self.box_value([(1, -2, 3, 0.5)], [(0, 0, 1, 1)])
        assert np.array_equal(grad[0], [1.0, -1.0, 1.0, -1.0])
