"""Planar polygon primitives: areas, rasterization, IoU, simplification, contours.

Coordinates are continuous pixel units; pixel (i, j) of a raster owns the
unit square whose center is (j + 0.5, i + 0.5).  Orientation follows the
shoelace sign: positive signed area = counterclockwise in a y-up frame.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class Vertex2:
    """A 2-D point in continuous pixel coordinates."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"vertex coordinates must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class Polygon:
    """A simple ring of vertices; closure from the last back to the first is implicit."""

    vertices: tuple[Vertex2, ...]

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise ValueError(f"polygon needs at least 3 vertices, got {len(self.vertices)}")
        n = len(self.vertices)
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            if a.x == b.x and a.y == b.y:
                raise ValueError(f"consecutive duplicate vertex at index {i}")
        if _shoelace(self.as_array()) == 0.0:
            raise ValueError("polygon has zero signed area")

    @classmethod
    def from_points(cls, points: Iterable[tuple[float, float]]) -> "Polygon":
        return cls(tuple(Vertex2(float(x), float(y)) for x, y in points))

    @classmethod
    def from_flat(cls, coords: Sequence[float]) -> "Polygon":
        """Build from a flat [x1, y1, x2, y2, ...] list (COCO segmentation layout)."""
        if len(coords) % 2 != 0:
            raise ValueError(f"flat coordinate list must have even length, got {len(coords)}")
        pts = list(zip(coords[0::2], coords[1::2]))
        # Tolerate an explicitly closed ring on input.
        if len(pts) >= 2 and pts[0] == pts[-1]:
            pts = pts[:-1]
        return cls.from_points(pts)

    def to_flat(self) -> list[float]:
        out: list[float] = []
        for v in self.vertices:
            out.extend((v.x, v.y))
        return out

    def as_array(self) -> np.ndarray:
        return np.array([(v.x, v.y) for v in self.vertices], dtype=np.float64)

    def translated(self, dx: float, dy: float) -> "Polygon":
        return Polygon.from_points((v.x + dx, v.y + dy) for v in self.vertices)

    def bounds(self) -> tuple[float, float, float, float]:
        """(min_x, min_y, max_x, max_y)."""
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return (float(min(xs)), float(min(ys)), float(max(xs)), float(max(ys)))

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class RasterMask:
    """Row-major boolean pixel grid."""

    width: int
    height: int
    bits: np.ndarray

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"mask dimensions must be positive, got {self.width}x{self.height}")
        if self.bits.shape != (self.height, self.width):
            raise ValueError(
                f"bit grid shape {self.bits.shape} does not match {self.height}x{self.width}"
            )
        if self.bits.dtype != np.bool_:
            raise ValueError("bit grid must be boolean")

    @classmethod
    def from_array(cls, bits: np.ndarray) -> "RasterMask":
        arr = np.asarray(bits, dtype=np.bool_)
        return cls(width=arr.shape[1], height=arr.shape[0], bits=arr)

    def count(self) -> int:
        return int(np.count_nonzero(self.bits))


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box as (center, size) in pixel units."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"box extent must be positive, got w={self.w}, h={self.h}")

    @classmethod
    def from_xywh(cls, x: float, y: float, w: float, h: float) -> "BBox":
        return cls(cx=x + w / 2.0, cy=y + h / 2.0, w=w, h=h)

    @classmethod
    def of_polygon(cls, p: Polygon) -> "BBox":
        x0, y0, x1, y1 = p.bounds()
        return cls(cx=(x0 + x1) / 2.0, cy=(y0 + y1) / 2.0, w=x1 - x0, h=y1 - y0)

    def corners(self) -> tuple[float, float, float, float]:
        """(x0, y0, x1, y1)."""
        return (self.cx - self.w / 2.0, self.cy - self.h / 2.0,
                self.cx + self.w / 2.0, self.cy + self.h / 2.0)

    def to_xywh(self) -> tuple[float, float, float, float]:
        x0, y0, _, _ = self.corners()
        return (x0, y0, self.w, self.h)


def _shoelace(arr: np.ndarray) -> float:
    x = arr[:, 0]
    y = arr[:, 1]
    return 0.5 * float(np.dot(x, np.concatenate((y[1:], y[:1]))) - np.dot(np.concatenate((x[1:], x[:1])), y))


def signed_area(p: Polygon) -> float:
    """Shoelace area; positive for counterclockwise rings (y-up convention)."""
    return _shoelace(p.as_array())


def normalize_orientation(p: Polygon, ccw: bool = True) -> Polygon:
    """Return p traversed in the requested orientation, keeping the start vertex."""
    if (signed_area(p) > 0) == ccw:
        return p
    verts = (p.vertices[0],) + tuple(reversed(p.vertices[1:]))
    return Polygon(verts)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, value) int32 arrays of the integers starts[i] .. starts[i] + counts[i] - 1."""
    counts = np.maximum(counts, 0)
    owner = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
    value = np.arange(len(owner), dtype=np.int32)
    value += (starts - (np.cumsum(counts) - counts)).astype(np.int32)[owner]
    return owner, value


def _scan(pts: np.ndarray, lengths, widths, heights):
    """Scanline keys of rings laid out two to a raster frame.

    `pts` holds the rings' vertices back to back, `lengths[r]` of them for
    ring r.  Ring r lies on frame r // 2, `widths[r // 2]` by
    `heights[r // 2]` pixels, and has the tag r % 2.  Column c of row i of
    frame f has the position (f * H + i) * (W + 1) + c, with H and W the
    largest frame height and width, and the key 2 * position + tag.

    Returns (crossings, boundary, W + 1, H * (W + 1)).  `crossings` holds
    the sorted keys of every edge's crossings of the pixel-center rows; a
    crossing's column is the number of the row's centers left of it.  Every
    row of a ring has an even number of crossings, so a pixel center is
    inside by the even-odd rule when an odd number of its ring's crossings
    in its row lie at or before its column: the row's sorted crossings pair
    up into half-open spans.  `boundary` holds the sorted, distinct keys of
    the pixels whose center lies exactly on an edge.
    """
    widths, heights = np.asarray(widths), np.asarray(heights)
    w_max, h_max = int(widths.max()), int(heights.max())
    stride = np.int64(w_max + 1)
    centers = np.arange(max(w_max, h_max)) + 0.5
    ring = np.repeat(np.arange(len(lengths)), lengths)
    ends = np.cumsum(lengths)
    nxt = np.arange(1, len(pts) + 1)
    nxt[ends - 1] = ends - lengths
    x1, y1 = pts[:, 0], pts[:, 1]
    x2, y2 = x1[nxt], y1[nxt]
    dx, dy = x2 - x1, y2 - y1
    base = ((ring >> 1) * (2 * h_max * stride)) | (ring & 1)  # key of the frame's first pixel
    width, height = widths[ring >> 1], heights[ring >> 1]

    # Rows whose center y has min(y1, y2) <= y < max(y1, y2): half-open, so
    # a vertex shared by two edges is crossed once, and flat edges never.
    lo_y, hi_y = np.minimum(y1, y2), np.maximum(y1, y2)
    r0 = np.searchsorted(centers, lo_y)
    e, row = _ranges(r0, np.minimum(np.searchsorted(centers, hi_y), height) - r0)
    x_cross = centers[row] - y1[e]
    x_cross /= dy[e]
    x_cross *= dx[e]
    x_cross += x1[e]
    crossings = row * stride
    crossings += np.minimum(np.searchsorted(centers, x_cross), width[e])
    del x_cross
    crossings <<= 1
    crossings += base[e]
    crossings.sort()

    # On-edge centers.  Walk each edge's centers along its major axis u and
    # keep the nearest center on the minor axis v when it is within `band`
    # of the edge's line.  A center with an exact zero cross product below
    # lies within about 25u*M px of the computed line, where u = 2**-53 and
    # M bounds the edge's coordinates: the two products agree to within
    # 3u(|A| + |B|) <= 6u|du||dv|, i.e. 6u|dv| <= 12u*M px along v, and the
    # line's value at the center, less the center, is off by at most 13u*M
    # px.  That is 7e-13 px in a 256-px frame; the band, 1e-6 * max(1, M)
    # with M over all rings, holds it at any scale and lets through almost
    # nothing else.
    x_major = np.abs(dx) >= np.abs(dy)
    u1, u2 = np.where(x_major, x1, y1), np.where(x_major, x2, y2)
    v1 = np.where(x_major, y1, x1)
    du, dv = np.where(x_major, dx, dy), np.where(x_major, dy, dx)
    slope = np.divide(dv, du, out=np.zeros_like(dv), where=du != 0)
    band = 1e-6 * max(1.0, float(np.abs(pts).max()))
    a0 = np.searchsorted(centers, np.minimum(u1, u2))
    a1 = np.searchsorted(centers, np.maximum(u1, u2), side="right")
    e, a = _ranges(a0, np.minimum(a1, np.where(x_major, width, height)) - a0)
    line = centers[a]
    line -= u1[e]
    line *= slope[e]
    line += v1[e]
    b = np.floor(line)
    line -= b
    line -= 0.5
    near = np.abs(line, out=line) <= band
    del line
    e, a, b = e[near], a[near], b[near]
    if not len(e):
        return crossings, np.zeros(0, dtype=np.int64), stride, h_max * stride
    xm = x_major[e]
    fits = (b >= 0) & (b < np.where(xm, height[e], width[e]))
    e, a, xm, b = e[fits], a[fits], xm[fits], b[fits].astype(np.int64)
    col, row = np.where(xm, a, b), np.where(xm, b, a)
    gx, gy = col + 0.5, row + 0.5
    on = (
        (dx[e] * (gy - y1[e]) - dy[e] * (gx - x1[e]) == 0.0)
        & (gx >= np.minimum(x1, x2)[e]) & (gx <= np.maximum(x1, x2)[e])
        & (gy >= lo_y[e]) & (gy <= hi_y[e])
    )
    boundary = row[on] * stride
    boundary += col[on]
    boundary <<= 1
    boundary += base[e[on]]
    boundary.sort()
    return crossings, boundary[np.diff(boundary, prepend=-1) != 0], stride, h_max * stride


def rasterize(p: Polygon, width: int, height: int) -> RasterMask:
    """Even-odd fill of pixel centers; centers exactly on an edge count as inside."""
    if width <= 0 or height <= 0:
        raise ValueError(f"raster dimensions must be positive, got {width}x{height}")
    arr = p.as_array()
    crossings, boundary, stride, size = _scan(arr, [len(arr)], [width], [height])
    counts = np.bincount(crossings >> 1, minlength=size).reshape(height, stride)
    bits = (np.cumsum(counts, axis=1)[:, :width] & 1).astype(np.bool_)
    on = boundary >> 1
    bits[on // stride, on % stride] = True
    return RasterMask(width=width, height=height, bits=bits)


def mask_iou(a: RasterMask, b: RasterMask) -> float:
    """Intersection over union of two equally sized masks; 0 when both are empty."""
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(
            f"mask dimensions differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    inter = int(np.count_nonzero(a.bits & b.bits))
    union = int(np.count_nonzero(a.bits | b.bits))
    if union == 0:
        return 0.0
    return inter / union


def polygon_ious(pairs: Sequence[tuple[Polygon, Polygon]], resolution: int = 256) -> np.ndarray:
    """IoU of each (a, b) pair, rasterized on the pair's joint bounding box.

    The box is scaled to `resolution` pixels on its long side, and each ring
    covers the pixel centers that `rasterize` would paint.  Boxes more than
    one raster pixel apart on x or on y score 0.0 without a scan: no pixel
    center can then be inside or on an edge of both polygons.  Boxes that
    touch or come within a pixel are scanned, since they can share boundary
    pixels.  The other pairs are scanned together, and their pixel counts
    come from span overlaps plus the on-edge pixels, with no masks.
    """
    if resolution < 16:
        raise ValueError(f"resolution must be at least 16, got {resolution}")
    ious = np.zeros(len(pairs))
    if not pairs:
        return ious
    polys = list({id(p): p for pair in pairs for p in pair}.values())
    slot = {id(p): i for i, p in enumerate(polys)}
    which = np.array([(slot[id(a)], slot[id(b)]) for a, b in pairs])
    bounds = np.array([p.bounds() for p in polys])
    box_a, box_b = bounds[which[:, 0]], bounds[which[:, 1]]
    lo = np.minimum(box_a[:, :2], box_b[:, :2])
    size = np.maximum(box_a[:, 2:], box_b[:, 2:]) - lo
    long_side = size.max(axis=1)
    gap = np.maximum(box_a[:, :2] - box_b[:, 2:], box_b[:, :2] - box_a[:, 2:]).max(axis=1)
    keep = np.flatnonzero((long_side > 0) & ~(gap > long_side / resolution))
    if not len(keep):
        return ious
    scale = resolution / long_side[keep]
    dims = np.maximum(1, np.ceil(size[keep] * scale[:, None] - 1e-9)).astype(np.int64)

    # Rings a, b of kept pair q are rings 2q, 2q + 1 of the scan.
    ring_poly = which[keep].reshape(-1)
    lengths = np.array([len(p) for p in polys])
    verts = np.array([(v.x, v.y) for p in polys for v in p.vertices])
    owner, vert = _ranges(np.cumsum(lengths)[ring_poly] - lengths[ring_poly], lengths[ring_poly])
    pts = (verts[vert] - lo[keep][owner >> 1]) * scale[owner >> 1][:, None]
    crossings, boundary, _, frame_stride = _scan(
        pts, lengths[ring_poly], dims[:, 0], dims[:, 1])

    # Fill: a sweep over both rings' sorted crossings, which toggle their
    # ring's parity.  Every row ends with both parities even, so runs that
    # cross into the next row or frame add nothing.
    pos = crossings >> 1
    a_seen = np.cumsum((crossings & 1) == 0)
    in_a = (a_seen & 1) == 1
    in_b = ((np.arange(1, len(pos) + 1) - a_seen) & 1) == 1
    run = np.diff(pos)
    frame = pos[:-1] // frame_stride
    inter = np.bincount(frame, weights=run * (in_a & in_b)[:-1], minlength=len(keep))
    union = np.bincount(frame, weights=run * (in_a | in_b)[:-1], minlength=len(keep))

    # On-edge pixels add to the counts where the fill left them out.
    px = boundary >> 1
    # A pixel on both rings' edges has two keys, ring a's first.
    first = np.diff(px, prepend=-1) != 0
    px_first = px[first]
    on_a = (boundary[first] & 1) == 0
    on_b = (boundary[np.diff(px, append=-1) != 0] & 1) == 1
    seen = np.searchsorted(pos, px_first, side="right")
    a_before = np.r_[0, a_seen][seen]
    fill_a = (a_before & 1) == 1
    fill_b = ((seen - a_before) & 1) == 1
    frame = px_first // frame_stride
    inter += np.bincount(frame, weights=(fill_a | on_a) & (fill_b | on_b) & ~(fill_a & fill_b),
                         minlength=len(keep))
    union += np.bincount(frame, weights=~(fill_a | fill_b), minlength=len(keep))
    ious[keep] = np.divide(inter, union, out=np.zeros(len(keep)), where=union > 0)
    return ious


def polygon_iou(a: Polygon, b: Polygon, resolution: int = 256) -> float:
    """IoU of one pair, as `polygon_ious` computes it."""
    return float(polygon_ious([(a, b)], resolution)[0])


def _perp_distance(pt: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    d = b - a
    seg_len2 = float(d @ d)
    if seg_len2 == 0.0:
        return float(np.hypot(*(pt - a)))
    t = float((pt - a) @ d) / seg_len2
    t = min(1.0, max(0.0, t))
    proj = a + t * d
    return float(np.hypot(*(pt - proj)))


def douglas_peucker(line: Sequence[Vertex2], epsilon: float) -> list[Vertex2]:
    """Classic recursive max-deviation simplification, endpoints preserved.

    Points are dropped only when every intermediate deviation is <= epsilon,
    so epsilon=0 keeps everything that is not exactly collinear.
    """
    if len(line) < 2:
        raise ValueError(f"need at least 2 points, got {len(line)}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    pts = np.array([(v.x, v.y) for v in line], dtype=np.float64)
    keep = np.zeros(len(pts), dtype=np.bool_)
    keep[0] = keep[-1] = True
    stack = [(0, len(pts) - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        best_d = -1.0
        best_i = lo + 1
        for i in range(lo + 1, hi):
            d = _perp_distance(pts[i], pts[lo], pts[hi])
            if d > best_d:
                best_d = d
                best_i = i
        if best_d > epsilon:
            keep[best_i] = True
            stack.append((lo, best_i))
            stack.append((best_i, hi))
    return [line[i] for i in range(len(line)) if keep[i]]


def simplify_polygon(p: Polygon, epsilon: float) -> Polygon:
    """Simplify a closed ring by running douglas_peucker on the closed chain.

    The (arbitrary) start vertex is kept.  If simplification would degenerate
    the ring, the input is returned unchanged.
    """
    chain = list(p.vertices) + [p.vertices[0]]
    kept = douglas_peucker(chain, epsilon)[:-1]
    if len(kept) < 3:
        return p
    try:
        return Polygon(tuple(kept))
    except ValueError:
        return p


# Marching squares case table.  Cell corners: bit3=TL, bit2=TR, bit1=BR,
# bit0=BL.  Segments are directed so foreground stays on the left in the
# shoelace (y-up) sense: foreground loops close counterclockwise (positive
# area) and holes clockwise.  Midpoint codes: T, R, B, L.
_MS_SEGMENTS: dict[int, tuple[tuple[str, str], ...]] = {
    0: (),
    1: (("L", "B"),),
    2: (("B", "R"),),
    3: (("L", "R"),),
    4: (("R", "T"),),
    5: (("L", "T"), ("R", "B")),  # saddle, foreground-connected
    6: (("B", "T"),),
    7: (("L", "T"),),
    8: (("T", "L"),),
    9: (("T", "B"),),
    10: (("T", "R"), ("B", "L")),  # saddle, foreground-connected
    11: (("T", "R"),),
    12: (("R", "L"),),
    13: (("R", "B"),),
    14: (("B", "L"),),
    15: (),
}


def marching_squares(m: RasterMask) -> list[Polygon]:
    """Trace 0.5 iso-level contours of a binary mask.

    Returns one closed counterclockwise ring per connected foreground
    component (diagonal saddles resolved foreground-connected by the
    average-of-corners rule) plus clockwise rings for holes.  Vertices lie
    on pixel-cell edge midpoints.
    """
    padded = np.zeros((m.height + 2, m.width + 2), dtype=np.int8)
    padded[1:-1, 1:-1] = m.bits
    # Padded sample (a, b) sits at the center of original pixel (a-1, b-1),
    # i.e. continuous coordinates (b - 0.5, a - 0.5).
    cases = (
        padded[:-1, :-1] * 8 + padded[:-1, 1:] * 4 + padded[1:, 1:] * 2 + padded[1:, :-1]
    )
    segments: dict[tuple[float, float], tuple[float, float]] = {}
    for a, b in np.argwhere((cases != 0) & (cases != 15)):
        mid = {
            "T": (float(b), a - 0.5),
            "R": (b + 0.5, float(a)),
            "B": (float(b), a + 0.5),
            "L": (b - 0.5, float(a)),
        }
        for start, end in _MS_SEGMENTS[int(cases[a, b])]:
            segments[mid[start]] = mid[end]

    contours: list[Polygon] = []
    while segments:
        start = next(iter(segments))
        loop = [start]
        cur = segments.pop(start)
        while cur != start:
            loop.append(cur)
            cur = segments.pop(cur)
        contours.append(Polygon.from_points(loop))
    contours.sort(key=lambda p: -abs(signed_area(p)))
    return contours
