"""COCO-subset annotation ingestion, dataset tiling, and synthetic corpora.

Documents keep their raw parsed structure so unknown fields survive a
parse/serialize round trip bit-exactly.  Synthetic images are written as
binary (P5) PGM files.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import (
    BBox,
    Polygon,
    RasterMask,
    marching_squares,
    rasterize,
    signed_area,
)
from .metrics import GtInstance, PredInstance


class CocoFormatError(ValueError):
    """Raised when an annotation document violates the expected schema."""


@dataclass
class CocoDoc:
    """Validated view over a COCO-style dict; `data` preserves unknown fields.

    `polygons` holds each annotation's polygon as `parse_coco` built it while
    validating; documents built in code leave it None.
    """

    data: dict
    polygons: list[Polygon] | None = field(default=None, repr=False, compare=False)

    @property
    def images(self) -> list[dict]:
        return self.data.get("images", [])

    @property
    def annotations(self) -> list[dict]:
        return self.data.get("annotations", [])

    @property
    def categories(self) -> list[dict]:
        return self.data.get("categories", [])

    def annotation_polygons(self) -> list[Polygon]:
        """One polygon per annotation, in annotation order."""
        if self.polygons is not None:
            return self.polygons
        return [_annotation_polygon(a) for a in self.annotations]

    def gt_instances(self) -> list[GtInstance]:
        return [
            GtInstance(image_id=a["image_id"], polygon=poly)
            for a, poly in zip(self.annotations, self.annotation_polygons())
        ]

    def pred_instances(self) -> list[PredInstance]:
        out = []
        for a, poly in zip(self.annotations, self.annotation_polygons()):
            if "score" not in a:
                raise CocoFormatError(
                    f"annotation {a.get('id')} has no score; predictions require one"
                )
            out.append(PredInstance(image_id=a["image_id"], polygon=poly, score=float(a["score"])))
        return out


def _annotation_polygon(a: dict) -> Polygon:
    aid = a.get("id")
    seg = a.get("segmentation")
    if isinstance(seg, list) and seg and isinstance(seg[0], list):
        if len(seg) > 1:
            raise CocoFormatError(
                f"annotation {aid}: segmentation has {len(seg)} rings; "
                "only single-ring polygons are supported"
            )
        seg = seg[0]
    if not isinstance(seg, list) or len(seg) % 2 != 0 or len(seg) < 6:
        raise CocoFormatError(
            f"annotation {aid}: segmentation must be a flat even-length list of >= 6 numbers"
        )
    try:
        return Polygon.from_flat(seg)
    except (TypeError, ValueError) as exc:
        raise CocoFormatError(f"annotation {aid}: bad segmentation ({exc})") from exc


def parse_coco(raw: bytes | str) -> CocoDoc:
    """Parse and validate a COCO-subset JSON document.

    Validation errors name the offending annotation id.  Fields outside the
    consumed subset are preserved untouched.
    """
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CocoFormatError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CocoFormatError("top-level JSON value must be an object")
    image_ids = set()
    for img in data.get("images", []):
        if "id" not in img:
            raise CocoFormatError(f"image entry without id: {img}")
        if img["id"] in image_ids:
            raise CocoFormatError(f"duplicate image id {img['id']}")
        image_ids.add(img["id"])
    polygons = []
    for a in data.get("annotations", []):
        aid = a.get("id")
        if a.get("image_id") not in image_ids:
            raise CocoFormatError(f"annotation {aid}: image_id {a.get('image_id')} not found")
        polygons.append(_annotation_polygon(a))
    return CocoDoc(data=data, polygons=polygons)


def serialize_coco(doc: CocoDoc) -> bytes:
    """Deterministic byte serialization; parse(serialize(x)) is a fixed point."""
    return json.dumps(doc.data, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """Write an 8-bit grayscale image as binary (P5) PGM."""
    arr = np.asarray(image)
    if arr.dtype != np.uint8:
        arr = np.clip(arr, 0, 255).astype(np.uint8)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def read_pgm(path: str | Path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P5":
            raise ValueError(f"{path}: not a binary PGM (P5) file")
        fields: list[int] = []
        while len(fields) < 3:
            line = fh.readline()
            if not line:
                raise ValueError(f"{path}: truncated PGM header")
            text = line.split(b"#", 1)[0]
            fields.extend(int(tok) for tok in text.split())
        w, h, maxval = fields[:3]
        if maxval != 255:
            raise ValueError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
        data = fh.read(w * h)
    if len(data) != w * h:
        raise ValueError(f"{path}: truncated PGM data")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w)


@dataclass(frozen=True)
class TileSpec:
    tile_size: int = 512
    overlap: int = 128
    min_area_fraction: float = 0.5

    def __post_init__(self):
        if not 0 < self.overlap < self.tile_size:
            raise ValueError(
                f"overlap must be in (0, tile_size), got {self.overlap} vs {self.tile_size}"
            )
        if not 0 < self.min_area_fraction <= 1:
            raise ValueError(f"min_area_fraction must be in (0, 1], got {self.min_area_fraction}")


def tile_positions(extent: int, tile_size: int, stride: int) -> list[int]:
    """Stride-spaced offsets; the final tile is clamped to end at the edge."""
    if extent <= tile_size:
        return [0]
    positions = []
    pos = 0
    while pos + tile_size < extent:
        positions.append(pos)
        pos += stride
    last = extent - tile_size
    if positions[-1] != last:
        positions.append(last)
    return positions


def _clip_to_tile(
    polygon: Polygon, tx: int, ty: int, tile: int, fraction: float
) -> Polygon | None:
    """Raster-clip a polygon against a tile window; None when the kept area
    falls below `fraction` of the original raster area."""
    x0, y0, x1, y1 = polygon.bounds()
    ix0, iy0 = int(math.floor(x0)), int(math.floor(y0))
    ix1, iy1 = int(math.ceil(x1)), int(math.ceil(y1))
    local = polygon.translated(-ix0, -iy0)
    w, h = max(1, ix1 - ix0), max(1, iy1 - iy0)
    mask = rasterize(local, w, h)
    area = mask.count()
    if area == 0:
        return None

    inter_x0 = max(ix0, tx)
    inter_y0 = max(iy0, ty)
    inter_x1 = min(ix1, tx + tile)
    inter_y1 = min(iy1, ty + tile)
    if inter_x0 >= inter_x1 or inter_y0 >= inter_y1:
        return None
    if ix0 >= tx and iy0 >= ty and ix1 <= tx + tile and iy1 <= ty + tile:
        return polygon.translated(-tx, -ty)  # fully inside: vertex-exact

    clipped = np.zeros_like(mask.bits)
    clipped[inter_y0 - iy0:inter_y1 - iy0, inter_x0 - ix0:inter_x1 - ix0] = mask.bits[
        inter_y0 - iy0:inter_y1 - iy0, inter_x0 - ix0:inter_x1 - ix0
    ]
    kept = int(np.count_nonzero(clipped))
    if kept < fraction * area:
        return None
    contours = marching_squares(RasterMask.from_array(clipped))
    rings = [c for c in contours if signed_area(c) > 0]
    if not rings:
        return None
    ring = max(rings, key=signed_area)
    return ring.translated(ix0 - tx, iy0 - ty)


def tile_dataset(doc: CocoDoc, spec: TileSpec) -> CocoDoc:
    """Crop a document into overlapping tiles, dropping mostly-lost instances.

    Instances fully inside a tile keep their exact vertices; straddling
    instances are raster-clipped and re-polygonized, and dropped when the
    kept raster area is under `min_area_fraction` of the original.
    """
    stride = spec.tile_size - spec.overlap
    out_images: list[dict] = []
    out_annotations: list[dict] = []
    next_image_id = 1
    next_ann_id = 1
    by_image: dict = {}
    for a, poly in zip(doc.annotations, doc.annotation_polygons()):
        by_image.setdefault(a["image_id"], []).append((a, poly))

    for img in doc.images:
        xs = tile_positions(int(img["width"]), spec.tile_size, stride)
        ys = tile_positions(int(img["height"]), spec.tile_size, stride)
        for ty in ys:
            for tx in xs:
                tile_id = next_image_id
                next_image_id += 1
                stem = str(img.get("file_name", img["id"])).rsplit(".", 1)[0]
                out_images.append(
                    {
                        "id": tile_id,
                        "width": spec.tile_size,
                        "height": spec.tile_size,
                        "file_name": f"{stem}_x{tx}_y{ty}.pgm",
                        "source_image_id": img["id"],
                        "tile_x": tx,
                        "tile_y": ty,
                    }
                )
                for a, poly in by_image.get(img["id"], []):
                    clipped = _clip_to_tile(poly, tx, ty, spec.tile_size, spec.min_area_fraction)
                    if clipped is None:
                        continue
                    entry = {
                        "id": next_ann_id,
                        "image_id": tile_id,
                        "category_id": a.get("category_id", 1),
                        "segmentation": [clipped.to_flat()],
                        "area": abs(signed_area(clipped)),
                        "bbox": list(BBox.of_polygon(clipped).to_xywh()),
                        "iscrowd": a.get("iscrowd", 0),
                    }
                    if "score" in a:
                        entry["score"] = a["score"]
                    out_annotations.append(entry)
                    next_ann_id += 1

    return CocoDoc(
        data={
            "images": out_images,
            "annotations": out_annotations,
            "categories": doc.categories or [{"id": 1, "name": "building"}],
        }
    )


@dataclass(frozen=True)
class SynthSpec:
    image_size: int = 64
    families: tuple[str, ...] = ("rect", "rotated_rect", "l_shape")
    min_shapes: int = 1
    max_shapes: int = 3
    n_images: int = 100
    seed: int = 0
    fg_level: float = 255.0
    bg_level: float = 0.0
    noise: float = 0.0
    speckle: float = 0.0

    def __post_init__(self):
        known = {"rect", "rotated_rect", "l_shape"}
        unknown = set(self.families) - known
        if unknown:
            raise ValueError(f"unknown shape families: {sorted(unknown)}")
        if not 1 <= self.min_shapes <= self.max_shapes:
            raise ValueError("need 1 <= min_shapes <= max_shapes")
        if self.image_size < 32:
            raise ValueError(f"image_size must be >= 32, got {self.image_size}")
        if not 0 <= self.bg_level < self.fg_level <= 255:
            raise ValueError("need 0 <= bg_level < fg_level <= 255")
        if self.noise < 0:
            raise ValueError(f"noise must be non-negative, got {self.noise}")
        if not 0 <= self.speckle < 1:
            raise ValueError(f"speckle must be in [0, 1), got {self.speckle}")


def _make_rect(rng, size, cap) -> Polygon:
    w = rng.randint(8, cap)
    h = rng.randint(8, cap)
    x = rng.randint(2, size - w - 2)
    y = rng.randint(2, size - h - 2)
    return Polygon.from_points([(x, y), (x + w, y), (x + w, y + h), (x, y + h)])


def _make_rotated_rect(rng, size, cap) -> Polygon:
    w = rng.randint(8, cap)
    h = rng.randint(8, cap)
    angle = rng.uniform(0.15, math.pi / 2 - 0.15)
    c, s = math.cos(angle), math.sin(angle)
    half = np.array([[-w / 2, -h / 2], [w / 2, -h / 2], [w / 2, h / 2], [-w / 2, h / 2]])
    rot = half @ np.array([[c, s], [-s, c]])
    margin = float(np.abs(rot).max()) + 2
    if 2 * margin >= size:
        return _make_rect(rng, size, cap)
    cx = rng.uniform(margin, size - margin)
    cy = rng.uniform(margin, size - margin)
    pts = [(round(cx + px, 2), round(cy + py, 2)) for px, py in rot]
    return Polygon.from_points(pts)


def _make_l_shape(rng, size, cap) -> Polygon:
    w = rng.randint(12, max(14, cap + 2))
    h = rng.randint(12, max(14, cap + 2))
    x = rng.randint(2, size - w - 2)
    y = rng.randint(2, size - h - 2)
    nw = rng.randint(4, w - 5)
    nh = rng.randint(4, h - 5)
    # Notch cut from the bottom-right corner.
    return Polygon.from_points(
        [
            (x, y), (x + w, y), (x + w, y + h - nh),
            (x + w - nw, y + h - nh), (x + w - nw, y + h), (x, y + h),
        ]
    )


_MAKERS = {"rect": _make_rect, "rotated_rect": _make_rotated_rect, "l_shape": _make_l_shape}


def gen_synthetic(spec: SynthSpec) -> tuple[CocoDoc, dict[str, np.ndarray]]:
    """Deterministic corpus of binary building images with polygon annotations.

    Shapes within an image never overlap (tight boxes padded by 2 pixels
    must be disjoint); exceeding the retry budget raises.  Returns the
    document and a file_name -> uint8 image map.
    """
    images: list[dict] = []
    annotations: list[dict] = []
    rasters: dict[str, np.ndarray] = {}
    ann_id = 1
    for index in range(spec.n_images):
        rng = np.random.RandomState((spec.seed * 1_000_003 + index) % (2**31 - 1))
        n_shapes = rng.randint(spec.min_shapes, spec.max_shapes + 1)
        placed: list[Polygon] = []
        tries = 0
        while len(placed) < n_shapes:
            tries += 1
            if tries % 60 == 0:
                placed.clear()  # a bad early placement can deadlock the rest
            if tries > 600:
                raise RuntimeError(
                    f"image {index}: could not pack {n_shapes} shapes in 600 tries"
                )
            family = spec.families[rng.randint(len(spec.families))]
            base = spec.image_size // 3 + 6 if n_shapes <= 2 else spec.image_size // 4 + 6
            # Restarted layouts draw progressively smaller shapes so even
            # tight canvases eventually pack.
            cap = max(10, base - 2 * (tries // 60))
            shape = _MAKERS[family](rng, spec.image_size, cap)
            x0, y0, x1, y1 = shape.bounds()
            clear = True
            for other in placed:
                ox0, oy0, ox1, oy1 = other.bounds()
                if x0 - 2 < ox1 and x1 + 2 > ox0 and y0 - 2 < oy1 and y1 + 2 > oy0:
                    clear = False
                    break
            if clear:
                placed.append(shape)

        canvas = np.full((spec.image_size, spec.image_size), spec.bg_level, dtype=np.float64)
        image_id = index + 1
        file_name = f"synth_{image_id:05d}.pgm"
        for shape in placed:
            canvas[rasterize(shape, spec.image_size, spec.image_size).bits] = spec.fg_level
            annotations.append(
                {
                    "id": ann_id,
                    "image_id": image_id,
                    "category_id": 1,
                    "segmentation": [shape.to_flat()],
                    "area": abs(signed_area(shape)),
                    "bbox": list(BBox.of_polygon(shape).to_xywh()),
                    "iscrowd": 0,
                }
            )
            ann_id += 1
        if spec.speckle > 0:
            canvas *= rng.uniform(1.0 - spec.speckle, 1.0 + spec.speckle, size=canvas.shape)
        if spec.noise > 0:
            canvas += rng.normal(0.0, spec.noise, size=canvas.shape)
        canvas = np.clip(np.rint(canvas), 0, 255).astype(np.uint8)
        images.append(
            {
                "id": image_id,
                "width": spec.image_size,
                "height": spec.image_size,
                "file_name": file_name,
            }
        )
        rasters[file_name] = canvas

    doc = CocoDoc(
        data={
            "images": images,
            "annotations": annotations,
            "categories": [{"id": 1, "name": "building"}],
        }
    )
    return doc, rasters


def save_corpus(directory: str | Path, doc: CocoDoc, rasters: dict[str, np.ndarray]) -> None:
    directory = Path(directory)
    (directory / "images").mkdir(parents=True, exist_ok=True)
    (directory / "annotations.json").write_bytes(serialize_coco(doc))
    for name, image in rasters.items():
        write_pgm(directory / "images" / name, image)


def load_corpus(directory: str | Path) -> tuple[CocoDoc, dict[str, np.ndarray]]:
    directory = Path(directory)
    doc = parse_coco((directory / "annotations.json").read_bytes())
    rasters = {}
    for img in doc.images:
        name = img["file_name"]
        rasters[name] = read_pgm(directory / "images" / name)
    return doc, rasters
