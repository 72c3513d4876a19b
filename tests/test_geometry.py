import math

import numpy as np
import pytest

from polymap.geometry import (
    BBox,
    Polygon,
    RasterMask,
    Vertex2,
    douglas_peucker,
    marching_squares,
    mask_iou,
    normalize_orientation,
    polygon_iou,
    polygon_ious,
    rasterize,
    signed_area,
    simplify_polygon,
)
from polymap.selftest import naive_rasterize

UNIT_SQUARE = Polygon.from_points([(0, 0), (1, 0), (1, 1), (0, 1)])


def square(x0, y0, side):
    return Polygon.from_points(
        [(x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side)]
    )


class TestPolygonType:
    def test_rejects_short_rings(self):
        with pytest.raises(ValueError):
            Polygon.from_points([(0, 0), (1, 0)])

    def test_rejects_duplicate_consecutive(self):
        with pytest.raises(ValueError):
            Polygon.from_points([(0, 0), (0, 0), (1, 0), (1, 1)])

    def test_rejects_wraparound_duplicate(self):
        with pytest.raises(ValueError):
            Polygon.from_points([(0, 0), (1, 0), (1, 1), (0, 0)])

    def test_rejects_zero_area(self):
        with pytest.raises(ValueError):
            Polygon.from_points([(0, 0), (1, 1), (2, 2)])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Vertex2(float("nan"), 0.0)

    def test_flat_round_trip(self):
        flat = [0.0, 0.0, 4.0, 0.0, 4.0, 3.0]
        assert Polygon.from_flat(flat).to_flat() == flat

    def test_flat_tolerates_closed_ring(self):
        p = Polygon.from_flat([0, 0, 1, 0, 1, 1, 0, 0.5, 0, 0])
        assert len(p) == 4


class TestSignedArea:
    def test_unit_square_ccw(self):
        assert signed_area(UNIT_SQUARE) == 1.0

    def test_reversed_square(self):
        rev = Polygon(tuple(reversed(UNIT_SQUARE.vertices)))
        assert signed_area(rev) == -1.0

    def test_triangle_half_base_height(self):
        # 0.5 * base 4 * height 3 = 6 by hand.
        tri = Polygon.from_points([(0, 0), (4, 0), (0, 3)])
        assert signed_area(tri) == 6.0

    def test_reversal_negates_random(self):
        rng = np.random.RandomState(7)
        for _ in range(25):
            pts = rng.rand(6, 2) * 10
            try:
                p = Polygon.from_points(pts)
            except ValueError:
                continue
            rev = Polygon(tuple(reversed(p.vertices)))
            assert signed_area(rev) == pytest.approx(-signed_area(p), abs=1e-12)

    def test_equals_np_roll_shoelace(self):
        # The area is the same two dot products as a shoelace with np.roll,
        # bit for bit, from triangles to rings long enough for SIMD kernels.
        rng = np.random.RandomState(8)
        for n in list(range(3, 41)) * 5:
            arr = rng.uniform(-1e3, 1e3, size=(n, 2)) * 10.0 ** rng.randint(-3, 4)
            x, y = arr[:, 0], arr[:, 1]
            want = 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))
            assert signed_area(Polygon.from_points(arr)) == want


class TestNormalizeOrientation:
    def test_identity_when_already_ccw(self):
        assert normalize_orientation(UNIT_SQUARE, ccw=True) is UNIT_SQUARE

    def test_reversal(self):
        cw = normalize_orientation(UNIT_SQUARE, ccw=False)
        assert signed_area(cw) == -1.0
        assert set(cw.vertices) == set(UNIT_SQUARE.vertices)

    def test_idempotent(self):
        once = normalize_orientation(UNIT_SQUARE, ccw=False)
        assert normalize_orientation(once, ccw=False) is once


class TestRasterize:
    def test_full_cover(self):
        m = rasterize(square(0, 0, 4), 4, 4)
        assert m.count() == 16

    def test_quadrant_count(self):
        # Centers (j+.5, i+.5) fall inside x,y in (0,4) only for i,j <= 3.
        m = rasterize(square(0, 0, 4), 8, 8)
        assert m.count() == 16
        assert m.bits[:4, :4].all()
        assert not m.bits[4:, :].any()
        assert not m.bits[:, 4:].any()

    def test_sliver_between_centers(self):
        sliver = Polygon.from_points([(0.6, 0), (0.9, 0), (0.9, 4), (0.6, 4)])
        assert rasterize(sliver, 4, 4).count() == 0

    def test_centers_on_edge_count_inside(self):
        # Right edge passes exactly through the centers at x = 2.5.
        p = Polygon.from_points([(0, 0), (2.5, 0), (2.5, 3), (0, 3)])
        m = rasterize(p, 4, 3)
        assert m.bits[:, 2].all()
        assert not m.bits[:, 3].any()

    def test_translation_consistency(self):
        p = Polygon.from_points([(1.2, 1.7), (5.1, 2.2), (4.3, 6.9)])
        base = rasterize(p, 16, 16)
        shifted = rasterize(p.translated(3, 2), 16, 16)
        expect = np.zeros_like(base.bits)
        expect[2:, 3:] = base.bits[:-2, :-3]
        assert np.array_equal(shifted.bits, expect)


class TestMaskIou:
    def test_identity(self):
        m = rasterize(square(0, 0, 3), 5, 5)
        assert mask_iou(m, m) == 1.0

    def test_disjoint(self):
        a = rasterize(square(0, 0, 2), 8, 8)
        b = rasterize(square(4, 4, 2), 8, 8)
        assert mask_iou(a, b) == 0.0

    def test_one_shared_pixel_of_three(self):
        a = RasterMask.from_array(np.array([[1, 1, 0]], dtype=bool))
        b = RasterMask.from_array(np.array([[0, 1, 1]], dtype=bool))
        assert mask_iou(a, b) == pytest.approx(1 / 3)

    def test_both_empty_is_zero(self):
        e = RasterMask.from_array(np.zeros((2, 2), dtype=bool))
        assert mask_iou(e, e) == 0.0

    def test_dimension_mismatch(self):
        a = RasterMask.from_array(np.zeros((2, 2), dtype=bool))
        b = RasterMask.from_array(np.zeros((2, 3), dtype=bool))
        with pytest.raises(ValueError):
            mask_iou(a, b)

    def test_symmetric_and_bounded(self):
        rng = np.random.RandomState(3)
        for _ in range(20):
            a = RasterMask.from_array(rng.rand(6, 6) > 0.5)
            b = RasterMask.from_array(rng.rand(6, 6) > 0.5)
            v = mask_iou(a, b)
            assert v == mask_iou(b, a)
            assert 0.0 <= v <= 1.0


def rect(x0, y0, w, h):
    return Polygon.from_points([(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)])


def _joint_frame(a: Polygon, b: Polygon):
    ax0, ay0, ax1, ay1 = a.bounds()
    bx0, by0, bx1, by1 = b.bounds()
    x0, y0 = min(ax0, bx0), min(ay0, by0)
    w = max(ax1, bx1) - x0
    h = max(ay1, by1) - y0
    return x0, y0, w, h, max(w, h)


def _joint_frame_iou(a: Polygon, b: Polygon, resolution: int) -> float:
    """Slow oracle: rasterize both rings on polygon_iou's frame with
    naive_rasterize, never pruning."""
    x0, y0, w, h, long_side = _joint_frame(a, b)
    scale = resolution / long_side
    width = max(1, int(math.ceil(w * scale - 1e-9)))
    height = max(1, int(math.ceil(h * scale - 1e-9)))

    def to_raster(p):
        pts = [((v.x - x0) * scale, (v.y - y0) * scale) for v in p.vertices]
        return naive_rasterize(Polygon.from_points(pts), width, height)

    return mask_iou(to_raster(a), to_raster(b))


def _gap_exceeds_pixel(a: Polygon, b: Polygon, resolution: int) -> bool:
    ax0, ay0, ax1, ay1 = a.bounds()
    bx0, by0, bx1, by1 = b.bounds()
    long_side = _joint_frame(a, b)[4]
    return max(ax0 - bx1, bx0 - ax1, ay0 - by1, by0 - ay1) > long_side / resolution


def _ulps(x: float, k: int) -> float:
    """x moved by k units in the last place (toward +inf when k > 0)."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, math.inf if k > 0 else -math.inf))
    return x


def _near_cases():
    """(a, b, resolution, pruned, id) for 8x8 boxes about one raster pixel apart.

    With resolution 17, boxes [0, 8] and [9, 17] make a 17-unit joint frame
    whose pixel is exactly 1.0, so an offset of 9 is a gap of exactly one
    pixel.  Moving the offset by a few ulps moves the gap far more than the
    pixel, which puts the pair on either side of the pruning rule.
    """
    a = rect(0, 0, 8, 8)
    half = 8 + 16 * 0.5 / (16 - 0.5)  # half a pixel of the 16-pixel frame
    offsets = [
        ("0.5px", half, 16, False),
        ("1px", 9.0, 17, False),
        ("1px-4ulp", _ulps(9.0, -4), 17, False),
        ("1px+4ulp", _ulps(9.0, 4), 17, True),
        ("2px", 8 + 16 * 2 / (17 - 2), 17, True),
    ]
    cases = [
        (a, rect(3, 2, 8, 8), 16, False, "overlap"),
        (a, rect(8, 0, 8, 8), 16, False, "touch-x"),
        (a, rect(8, 8, 8, 8), 16, False, "touch-corner"),
    ]
    for name, off, res, pruned in offsets:
        cases.append((a, rect(off, 0, 8, 8), res, pruned, f"x-only-{name}"))
        cases.append((a, rect(0, off, 8, 8), res, pruned, f"y-only-{name}"))
        cases.append((a, rect(off, off, 8, 8), res, pruned, f"both-{name}"))
    # Apart on y only, while the x extents still overlap.
    cases.append((a, rect(4, 17, 8, 8), 16, True, "y-only-far"))
    return cases


_NEAR_CASES = _near_cases()


class TestPolygonIou:
    def test_identical(self):
        p = square(2, 3, 5)
        assert polygon_iou(p, p) == 1.0

    def test_disjoint(self):
        assert polygon_iou(square(0, 0, 1), square(10, 10, 1)) == 0.0

    def test_half_overlap_approaches_third(self):
        # Analytic: intersection 0.5, union 1.5 -> 1/3.
        a = UNIT_SQUARE
        b = square(0.5, 0, 1)
        assert polygon_iou(a, b, resolution=256) == pytest.approx(1 / 3, abs=0.02)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            polygon_iou(UNIT_SQUARE, UNIT_SQUARE, resolution=8)

    @pytest.mark.parametrize("a, b, resolution, pruned, name", _NEAR_CASES,
                             ids=[case[-1] for case in _NEAR_CASES])
    def test_equals_rasterized_oracle(self, a, b, resolution, pruned, name):
        assert _gap_exceeds_pixel(a, b, resolution) == pruned  # the case sits where intended
        assert polygon_iou(a, b, resolution) == _joint_frame_iou(a, b, resolution)
        assert polygon_iou(b, a, resolution) == _joint_frame_iou(b, a, resolution)

    def test_touching_boxes_share_boundary_pixels(self):
        # Both rings own the pixel column whose centers lie on the shared edge.
        a = rect(0, 0, 8.5, 16)
        b = rect(8.5, 0, 7.5, 16)
        assert polygon_iou(a, b, 16) == _joint_frame_iou(a, b, 16) == 1 / 16
        corner = polygon_iou(rect(0, 0, 8.5, 8.5), rect(8.5, 8.5, 7.5, 7.5), 16)
        assert corner == 1 / (81 + 64 - 1)


def _random_ring(rng, lattice: bool) -> Polygon:
    """4-8 vertices, often self-intersecting.

    A lattice ring has its vertices on the half-pixel lattice and its box
    exactly [0, 16] x [0, 16], so at resolution 16 any two of them share
    that frame at scale 1 and their edges run through pixel centers.
    """
    while True:
        k = rng.randint(4, 9)
        if lattice:
            pts = rng.randint(0, 33, size=(k, 2)) / 2.0
            pts[0, 0], pts[1, 0], pts[2, 1], pts[3, 1] = 0.0, 16.0, 0.0, 16.0
        else:
            pts = rng.uniform(0.0, 16.0, size=(k, 2)) + rng.uniform(0.0, 20.0, size=2)
        try:
            return Polygon.from_points(pts)
        except ValueError:  # a repeated vertex or zero area
            continue


_SPECIAL_RINGS = {
    # Horizontal and vertical edges on pixel centers, corners on centers.
    "axis-edges-on-centers": rect(0.5, 0.5, 8.0, 4.0),
    "tall-box-on-centers": rect(2.5, 1.5, 3.0, 12.0),
    # A near-horizontal edge whose dy is 1 ulp, starting on a center row.
    "one-ulp-dy": Polygon.from_points(
        [(0.5, 3.5), (12.0, _ulps(3.5, 1)), (12.0, 9.0), (0.5, 9.0)]),
    # Self-intersecting bow ties with unequal lobes, one with a diagonal
    # through pixel centers.
    "bow-tie-on-centers": Polygon.from_points([(0.5, 0.5), (9.5, 9.5), (9.5, 2.5), (0.5, 9.5)]),
    "bow-tie": Polygon.from_points([(0, 0), (12, 8), (12, 2), (0, 8)]),
    "self-crossing-star": Polygon.from_points(
        [(8, 0.5), (12.5, 15.5), (0.5, 5.5), (15.5, 5.5), (3.5, 15.5)]),
}


class TestRasterizeOracle:
    @pytest.mark.parametrize("lattice", [True, False], ids=["half-pixel-lattice", "random"])
    def test_random_rings_equal_oracle(self, lattice):
        rng = np.random.RandomState(11 + lattice)
        for _ in range(150):
            p = _random_ring(rng, lattice)
            if not lattice:
                p = p.translated(-10.0, -10.0)  # some rings leave the frame
            w, h = rng.randint(1, 24), rng.randint(1, 24)
            assert np.array_equal(rasterize(p, w, h).bits, naive_rasterize(p, w, h).bits)

    @pytest.mark.parametrize("name", sorted(_SPECIAL_RINGS))
    def test_special_rings_equal_oracle(self, name):
        p = _SPECIAL_RINGS[name]
        for w, h in ((16, 16), (7, 13), (20, 5)):
            assert np.array_equal(rasterize(p, w, h).bits, naive_rasterize(p, w, h).bits)

    def test_one_ulp_edge_leaves_its_center_row_out(self):
        # Flat, the bottom edge holds the centers of row 3 from x = 0.5 to
        # 11.5.  Raised by 1 ulp at its far end, it passes above them, so only
        # the start vertex's pixel stays.
        flat = rasterize(rect(0.5, 3.5, 11.5, 5.5), 16, 16).bits
        assert flat[3, :12].all() and not flat[3, 12:].any()
        bits = rasterize(_SPECIAL_RINGS["one-ulp-dy"], 16, 16).bits
        assert bits[3].tolist() == [True] + [False] * 15
        assert np.array_equal(bits[4:], flat[4:])

    def test_on_edge_center_whose_line_value_rounds(self):
        # The edge from (0.5, 0.5) to (44.5, 30.5) holds the center
        # (22.5, 15.5) exactly, but 0.5 + 22 * (30 / 44) rounds to 2e-15
        # below 15.5; the fill leaves that pixel out, the edge rule keeps it.
        p = Polygon.from_points([(0.5, 0.5), (44.5, 30.5), (0.5, 30.5)])
        bits = rasterize(p, 48, 32).bits
        assert bits[15, 22] and not bits[15, 23]
        assert np.array_equal(bits, naive_rasterize(p, 48, 32).bits)

    @pytest.mark.parametrize("low", [False, True], ids=["past-max", "past-min"])
    @pytest.mark.parametrize("transpose", [False, True], ids=["x-major", "y-major"])
    def test_center_just_past_an_edge_end_is_outside(self, transpose, low):
        # The edge ends 2 ulps short of the center (110.5, 3.5) on its line:
        # the cross product rounds to 0 there, but the center is outside the
        # edge's bounding box, so it is not on the edge.
        far = 107.0 if low else -100.0
        pts = [(0.5, far), (110.5, _ulps(3.5, 2 if low else -2)), (120.0, far)]
        w, h, pixel = 128, 112, (3, 110)
        if transpose:
            pts, w, h, pixel = [(y, x) for x, y in pts], h, w, (110, 3)
        p = Polygon.from_points(pts)
        bits = rasterize(p, w, h).bits
        assert not bits[pixel]
        assert np.array_equal(bits, naive_rasterize(p, w, h).bits)


def _oracle_ious(pairs, resolution):
    return [_joint_frame_iou(a, b, resolution) for a, b in pairs]


class TestPolygonIous:
    def test_empty_batch(self):
        out = polygon_ious([], 16)
        assert out.shape == (0,)

    def test_one_pair_batch(self):
        a, b = _SPECIAL_RINGS["bow-tie"], _SPECIAL_RINGS["axis-edges-on-centers"]
        assert polygon_ious([(a, b)], 16).tolist() == _oracle_ious([(a, b)], 16)
        assert polygon_iou(a, b, 16) == _oracle_ious([(a, b)], 16)[0]

    @pytest.mark.parametrize("lattice, resolution",
                             [(True, 16), (False, 16), (False, 64), (True, 256)],
                             ids=["lattice-16", "random-16", "random-64", "lattice-256"])
    def test_random_batch_equals_oracle(self, lattice, resolution):
        rng = np.random.RandomState(resolution + lattice)
        rings = [_random_ring(rng, lattice) for _ in range(10)]
        pairs = [(a, b) for a in rings for b in rings]  # a ring with itself too
        assert polygon_ious(pairs, resolution).tolist() == _oracle_ious(pairs, resolution)

    def test_special_rings_equal_oracle(self):
        rng = np.random.RandomState(5)
        rings = list(_SPECIAL_RINGS.values()) + [_random_ring(rng, True) for _ in range(4)]
        for resolution in (16, 64):
            pairs = [(a, b) for a in rings for b in rings]
            assert polygon_ious(pairs, resolution).tolist() == _oracle_ious(pairs, resolution)

    @pytest.mark.parametrize("resolution", sorted({case[2] for case in _NEAR_CASES}))
    def test_near_boxes_in_one_batch(self, resolution):
        # Touching boxes and boxes 1 px +/- 4 ulps apart, pruned and scanned
        # pairs mixed in one call.
        pairs = [(a, b) for a, b, res, _, _ in _NEAR_CASES if res == resolution]
        pairs += [(b, a) for a, b in pairs]
        assert polygon_ious(pairs, resolution).tolist() == _oracle_ious(pairs, resolution)

    def test_results_do_not_depend_on_pair_order(self):
        rng = np.random.RandomState(8)
        rings = [_random_ring(rng, bool(i % 2)) for i in range(8)]
        pairs = [(a, b) for a in rings for b in rings]
        got = polygon_ious(pairs, 32)
        perm = rng.permutation(len(pairs))
        assert polygon_ious([pairs[i] for i in perm], 32).tolist() == got[perm].tolist()


def _point_chain_distance(pt: Vertex2, chain: list[Vertex2]) -> float:
    best = math.inf
    p = np.array([pt.x, pt.y])
    for a, b in zip(chain, chain[1:]):
        av = np.array([a.x, a.y])
        bv = np.array([b.x, b.y])
        d = bv - av
        L2 = float(d @ d)
        t = 0.0 if L2 == 0 else max(0.0, min(1.0, float((p - av) @ d) / L2))
        best = min(best, float(np.hypot(*(p - (av + t * d)))))
    return best


class TestDouglasPeucker:
    def test_collinear_collapse(self):
        line = [Vertex2(0, 0), Vertex2(1, 0), Vertex2(2, 0)]
        assert douglas_peucker(line, 0.1) == [Vertex2(0, 0), Vertex2(2, 0)]

    def test_epsilon_zero_identity_for_noncollinear(self):
        line = [Vertex2(0, 0), Vertex2(1, 0.3), Vertex2(2, -0.2), Vertex2(3, 0.1)]
        assert douglas_peucker(line, 0.0) == line

    def test_zigzag_within_half(self):
        # All deviations from the end chord are 0.4 < 0.5.
        line = [Vertex2(0, 0), Vertex2(1, 0.4), Vertex2(2, 0), Vertex2(3, 0.4), Vertex2(4, 0)]
        assert douglas_peucker(line, 0.5) == [Vertex2(0, 0), Vertex2(4, 0)]

    def test_subsequence_and_epsilon_property(self):
        rng = np.random.RandomState(11)
        for _ in range(30):
            n = rng.randint(4, 15)
            line = [Vertex2(float(i), float(rng.randn())) for i in range(n)]
            eps = float(rng.rand() * 1.5)
            out = douglas_peucker(line, eps)
            assert out[0] == line[0] and out[-1] == line[-1]
            it = iter(line)
            assert all(v in it for v in out)  # subsequence
            for v in line:
                if v not in out:
                    assert _point_chain_distance(v, out) <= eps + 1e-12

    def test_simplify_polygon_epsilon_zero(self):
        p = Polygon.from_points([(0, 0), (5, 0.1), (5.2, 4), (0.3, 4.1)])
        assert simplify_polygon(p, 0.0) == p


def _segments_of(p: Polygon):
    n = len(p.vertices)
    for i in range(n):
        a = p.vertices[i]
        b = p.vertices[(i + 1) % n]
        yield (a.x, a.y), (b.x, b.y)


def _proper_intersect(s1, s2) -> bool:
    (ax, ay), (bx, by) = s1
    (cx, cy), (dx, dy) = s2
    def orient(px, py, qx, qy, rx, ry):
        return (qx - px) * (ry - py) - (qy - py) * (rx - px)
    o1 = orient(ax, ay, bx, by, cx, cy)
    o2 = orient(ax, ay, bx, by, dx, dy)
    o3 = orient(cx, cy, dx, dy, ax, ay)
    o4 = orient(cx, cy, dx, dy, bx, by)
    return (o1 * o2 < 0) and (o3 * o4 < 0)


class TestMarchingSquares:
    def test_empty_mask(self):
        m = RasterMask.from_array(np.zeros((4, 4), dtype=bool))
        assert marching_squares(m) == []

    def test_single_pixel_diamond(self):
        bits = np.zeros((3, 3), dtype=bool)
        bits[1, 1] = True
        contours = marching_squares(RasterMask.from_array(bits))
        assert len(contours) == 1
        c = contours[0]
        assert len(c) == 4
        # The four cell-edge crossings around center (1.5, 1.5).
        assert set((v.x, v.y) for v in c.vertices) == {
            (1.5, 1.0),
            (2.0, 1.5),
            (1.5, 2.0),
            (1.0, 1.5),
        }
        assert signed_area(c) > 0  # foreground ring is CCW

    def test_hole_is_clockwise(self):
        bits = np.ones((5, 5), dtype=bool)
        bits[2, 2] = False
        contours = marching_squares(RasterMask.from_array(bits))
        assert len(contours) == 2
        outer, hole = contours
        assert signed_area(outer) > 0
        assert signed_area(hole) < 0

    def test_round_trip_iou(self):
        p = square(10, 14, 30)
        m = rasterize(p, 64, 64)
        contours = marching_squares(m)
        assert len(contours) == 1
        again = rasterize(contours[0], 64, 64)
        assert mask_iou(m, again) >= 0.95

    def test_closed_non_self_intersecting_random(self):
        rng = np.random.RandomState(5)
        for _ in range(40):
            bits = rng.rand(rng.randint(2, 17), rng.randint(2, 17)) > 0.6
            contours = marching_squares(RasterMask.from_array(bits))
            segs = [s for c in contours for s in _segments_of(c)]
            for i in range(len(segs)):
                for j in range(i + 1, len(segs)):
                    assert not _proper_intersect(segs[i], segs[j])


class TestBBox:
    def test_rejects_flat(self):
        with pytest.raises(ValueError):
            BBox(cx=0, cy=0, w=0, h=1)

    def test_round_trip(self):
        b = BBox.from_xywh(2, 3, 4, 5)
        assert b.to_xywh() == (2, 3, 4, 5)
        assert b.corners() == (2, 3, 6, 8)
