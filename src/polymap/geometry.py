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
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def signed_area(p: Polygon) -> float:
    """Shoelace area; positive for counterclockwise rings (y-up convention)."""
    return _shoelace(p.as_array())


def normalize_orientation(p: Polygon, ccw: bool = True) -> Polygon:
    """Return p traversed in the requested orientation, keeping the start vertex."""
    if (signed_area(p) > 0) == ccw:
        return p
    verts = (p.vertices[0],) + tuple(reversed(p.vertices[1:]))
    return Polygon(verts)


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


def rasterize(p: Polygon, width: int, height: int) -> RasterMask:
    """Even-odd fill of pixel centers; centers exactly on an edge count as inside."""
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


def polygon_iou(a: Polygon, b: Polygon, resolution: int = 256) -> float:
    """IoU via rasterization on the joint bounding box scaled to `resolution` on the long side.

    Boxes more than one raster pixel apart on x or on y score 0.0 without
    rasterizing: no pixel center can then be inside or on an edge of both
    polygons, so the rasterized intersection would be empty too.  Boxes that
    touch or come within a pixel are rasterized, since they can share
    boundary pixels.
    """
    if resolution < 16:
        raise ValueError(f"resolution must be at least 16, got {resolution}")
    ax0, ay0, ax1, ay1 = a.bounds()
    bx0, by0, bx1, by1 = b.bounds()
    x0, y0 = min(ax0, bx0), min(ay0, by0)
    x1, y1 = max(ax1, bx1), max(ay1, by1)
    w = x1 - x0
    h = y1 - y0
    long_side = max(w, h)
    if long_side <= 0:
        return 0.0
    if max(ax0 - bx1, bx0 - ax1, ay0 - by1, by0 - ay1) > long_side / resolution:
        return 0.0
    scale = resolution / long_side
    width = max(1, int(math.ceil(w * scale - 1e-9)))
    height = max(1, int(math.ceil(h * scale - 1e-9)))

    def to_raster(p: Polygon) -> RasterMask:
        pts = [((v.x - x0) * scale, (v.y - y0) * scale) for v in p.vertices]
        return rasterize(Polygon.from_points(pts), width, height)

    return mask_iou(to_raster(a), to_raster(b))


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
