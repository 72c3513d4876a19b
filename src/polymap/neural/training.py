"""Toy training and inference loops for the polygon head.

The detection backbone is replaced by a three-layer conv stem over small
rasterized image crops; ROI-aligned instance features then flow through
the encoder/decoder.  The polygon objective is the sequence loss plus the
vertex/edge map focal losses; a small classification/box-regression branch
over jittered proposals can be enabled to study joint-loss weightings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..geometry import BBox, Polygon
from ..polyloss import (
    FocalParams,
    LossWeights,
    VertexTokenSeq,
    _bidirectional_arrays,
    _focal_terms,
    cls_loss_with_grad,
    encode_gt_maps,
    encode_gt_sequence,
    no_vertex_index,
)
from .head import (
    PolygonHeadConfig,
    decoder_forward,
    encoder_forward,
    init_model,
    stem_forward,
    vertex_dist_tensor,
)
from .layers import linear, roi_align_stack
from .params import ParamStore
from .tensor import Tensor, add, attach_loss, no_grad, relu, reshape, scale, sigmoid


@dataclass
class TrainSample:
    """One supervised instance: an image crop, its box, and polygon targets."""

    image: np.ndarray  # (1, S, S), values in [0, 1]
    box: BBox
    tokens: VertexTokenSeq
    vertex_target: np.ndarray
    edge_target: np.ndarray
    polygon: Polygon


@dataclass
class LossBreakdown:
    total: float
    sv: float
    ver: float = 0.0
    edge: float = 0.0
    cls: float = 0.0
    bbox: float = 0.0


def build_sample(image: np.ndarray, polygon: Polygon, cfg: PolygonHeadConfig) -> TrainSample:
    """Prepare crop, token sequence, and target maps for one instance.

    Instances of the same image should pass the same (1, S, S) float array
    object so the stem pass is shared; see `corpus_samples`.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 2:
        img = img[None, :, :]
    if img.max() > 1.0:
        img = img / 255.0
    box = BBox.of_polygon(polygon)
    tokens = encode_gt_sequence(polygon, cfg.grid_size, cfg.queries, box)
    vmap, emap = encode_gt_maps(polygon, cfg.grid_size, box)
    return TrainSample(
        image=img, box=box, tokens=tokens,
        vertex_target=vmap, edge_target=emap, polygon=polygon,
    )


def corpus_samples(doc, rasters: dict[str, np.ndarray], cfg: PolygonHeadConfig) -> list[TrainSample]:
    """Build one sample per annotation, sharing a normalized array per image."""
    shared = {
        name: np.ascontiguousarray(arr, dtype=np.float64)[None, :, :] / 255.0
        for name, arr in rasters.items()
    }
    names = {img["id"]: img["file_name"] for img in doc.images}
    samples = []
    for a, polygon in zip(doc.annotations, doc.annotation_polygons()):
        image = shared[names[a["image_id"]]]
        samples.append(build_sample(image, polygon, cfg))
    return samples


def forward_batch(
    store: ParamStore,
    cfg: PolygonHeadConfig,
    batch: list[TrainSample],
    training: bool,
):
    """Stem, ROI align, encoder, decoder, and class distributions for a batch.

    Samples referencing the same image array share one stem pass.
    """
    slot: dict[int, int] = {}
    arrays: list[np.ndarray] = []
    for s in batch:
        if id(s.image) not in slot:
            slot[id(s.image)] = len(arrays)
            arrays.append(s.image)
    images = Tensor(np.stack(arrays))
    features = stem_forward(images, cfg, store, training)
    rois = [(slot[id(s.image)], s.box) for s in batch]
    instance_feats = roi_align_stack(features, rois, cfg.grid_size)
    b_emd, vmap, emap = encoder_forward(instance_feats, cfg, store, training)
    v_emd = decoder_forward(b_emd, cfg, store)
    dists = vertex_dist_tensor(v_emd, store)
    slots = [slot[id(s.image)] for s in batch]
    return dists, vmap, emap, features, slots


def _sequence_loss_node(dists: Tensor, batch: list[TrainSample], grid: int) -> Tensor:
    def fn(data: np.ndarray):
        total = 0.0
        grads = np.zeros_like(data)
        for r, sample in enumerate(batch):
            value, grad = _bidirectional_arrays(
                sample.tokens.tokens, sample.tokens.valid_count, data[r], grid
            )
            total += value
            grads[r] = grad
        n = len(batch)
        return total / n, grads / n

    return attach_loss(dists, fn, op="sequence_loss")


def _focal_loss_node(
    prob_map: Tensor, targets: np.ndarray, focal: FocalParams
) -> Tensor:
    def fn(data: np.ndarray):
        total = 0.0
        grads = np.zeros_like(data)
        for r in range(data.shape[0]):
            value, grad = _focal_terms(data[r, 0], targets[r], focal.alpha, focal.gamma)
            total += value
            grads[r, 0] = grad
        n = data.shape[0]
        return total / n, grads / n

    return attach_loss(prob_map, fn, op="focal_loss")


def _box_iou_xywh(a: BBox, b: BBox) -> float:
    ax0, ay0, ax1, ay1 = a.corners()
    bx0, by0, bx1, by1 = b.corners()
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.w * a.h + b.w * b.h - inter)


def _sample_proposals(
    batch: list[TrainSample], slots: list[int], rng: np.random.RandomState
) -> tuple[list[tuple[int, BBox]], list[int], list[int]]:
    """One jittered positive and one background negative per instance."""
    rois: list[tuple[int, BBox]] = []
    labels: list[int] = []
    positives: list[int] = []
    for i, s in enumerate(batch):
        height, width = s.image.shape[-2:]
        b = s.box
        for _ in range(20):
            w = b.w * rng.uniform(0.85, 1.15)
            h = b.h * rng.uniform(0.85, 1.15)
            cx = b.cx + rng.uniform(-0.1, 0.1) * b.w
            cy = b.cy + rng.uniform(-0.1, 0.1) * b.h
            pos = BBox(cx=cx, cy=cy, w=w, h=h)
            if _box_iou_xywh(pos, b) >= 0.5:
                break
        positives.append(len(rois))
        rois.append((slots[i], pos))
        labels.append(1)
        for _ in range(10):
            w = rng.uniform(6.0, max(8.0, width / 3))
            h = rng.uniform(6.0, max(8.0, height / 3))
            cx = rng.uniform(w / 2, width - w / 2)
            cy = rng.uniform(h / 2, height - h / 2)
            neg = BBox(cx=cx, cy=cy, w=w, h=h)
            if _box_iou_xywh(neg, b) < 0.3:
                break
        rois.append((slots[i], neg))
        labels.append(0)
    return rois, labels, positives


def _detection_losses(
    store: ParamStore,
    features: Tensor,
    batch: list[TrainSample],
    slots: list[int],
    rng: np.random.RandomState,
) -> tuple[Tensor, Tensor, float, float]:
    rois, labels, positives = _sample_proposals(batch, slots, rng)
    roi_feats = roi_align_stack(features, rois, 7)
    n = roi_feats.shape[0]
    flat = reshape(roi_feats, (n, roi_feats.shape[1] * 49))
    hidden = relu(linear(relu(linear(flat, store, "det.fc1")), store, "det.fc2"))
    scores = sigmoid(linear(hidden, store, "det.cls"))
    boxes = linear(hidden, store, "det.bbox")

    def cls_fn(data: np.ndarray):
        value, grad = cls_loss_with_grad(labels, data[:, 0])
        return value, grad[:, None]

    targets = np.zeros((n, 4))
    mask = np.zeros((n, 1))
    for i, s in enumerate(batch):
        r = positives[i]
        height, width = s.image.shape[-2:]
        targets[r] = (s.box.cx / width, s.box.cy / height, s.box.w / width, s.box.h / height)
        mask[r] = 1.0
    n_pos = int(mask.sum())

    def bbox_fn(data: np.ndarray):
        diff = (data - targets) * mask
        value = float(np.abs(diff).sum() / max(1, n_pos))
        grad = np.sign(diff) * mask / max(1, n_pos)
        return value, grad

    cls_node = attach_loss(scores, cls_fn, op="cls_loss")
    bbox_node = attach_loss(boxes, bbox_fn, op="bbox_loss")
    return cls_node, bbox_node, cls_node.item(), bbox_node.item()


def compute_losses(
    store: ParamStore,
    cfg: PolygonHeadConfig,
    batch: list[TrainSample],
    training: bool = True,
    weights: LossWeights | None = None,
    focal: FocalParams | None = None,
    detection_rng: np.random.RandomState | None = None,
) -> tuple[Tensor, LossBreakdown]:
    """Build the scalar training loss graph for a batch.

    The polygon loss is the sequence loss plus focal losses over whichever
    weight maps the encoder variant produces.  Passing `detection_rng`
    enables the box/classification branch so the loss weights trade off
    against each other on the shared stem.
    """
    if not batch:
        raise ValueError("empty batch")
    w = weights or LossWeights()
    fp = focal or FocalParams()
    dists, vmap, emap, features, slots = forward_batch(store, cfg, batch, training)
    sv_node = _sequence_loss_node(dists, batch, cfg.grid_size)
    poly_node = sv_node
    breakdown = LossBreakdown(total=0.0, sv=sv_node.item())
    if vmap is not None:
        node = _focal_loss_node(vmap, np.stack([s.vertex_target for s in batch]), fp)
        poly_node = add(poly_node, node)
        breakdown.ver = node.item()
    if emap is not None:
        node = _focal_loss_node(emap, np.stack([s.edge_target for s in batch]), fp)
        poly_node = add(poly_node, node)
        breakdown.edge = node.item()

    total = scale(poly_node, w.lambda_poly)
    if detection_rng is not None and "det.fc1.w" in store:
        cls_node, bbox_node, cls_v, bbox_v = _detection_losses(
            store, features, batch, slots, detection_rng
        )
        total = add(total, add(scale(cls_node, w.lambda_cls), scale(bbox_node, w.lambda_bbox)))
        breakdown.cls = cls_v
        breakdown.bbox = bbox_v
    breakdown.total = total.item()
    return total, breakdown


def train_step(
    batch: list[TrainSample],
    store: ParamStore,
    cfg: PolygonHeadConfig,
    lr: float,
    weight_decay: float = 1e-4,
    weights: LossWeights | None = None,
    detection_rng: np.random.RandomState | None = None,
    stem_lr_scale: float = 0.1,
) -> float:
    """One forward/backward/update pass; returns the batch loss."""
    return train_step_detailed(
        batch, store, cfg, lr, weight_decay, weights, detection_rng, stem_lr_scale
    ).total


def train_step_detailed(
    batch: list[TrainSample],
    store: ParamStore,
    cfg: PolygonHeadConfig,
    lr: float,
    weight_decay: float = 1e-4,
    weights: LossWeights | None = None,
    detection_rng: np.random.RandomState | None = None,
    stem_lr_scale: float = 0.1,
) -> LossBreakdown:
    """As train_step, returning the per-term loss breakdown.

    The image stem plays the backbone's role and by default trains ten
    times slower than the heads, matching the backbone/head learning-rate
    ratio used for the full-scale model.
    """
    store.zero_grads()
    total, breakdown = compute_losses(
        store, cfg, batch, training=True, weights=weights, detection_rng=detection_rng
    )
    if not math.isfinite(breakdown.total):
        raise FloatingPointError(f"non-finite training loss: {breakdown.total}")
    total.backward()
    store.adamw_step(lr=lr, weight_decay=weight_decay, lr_scales={"stem.": stem_lr_scale})
    return breakdown


def held_out_sv_loss(
    store: ParamStore, cfg: PolygonHeadConfig, samples: list[TrainSample], batch_size: int = 16
) -> float:
    """Mean sequence loss over samples, inference mode, no updates."""
    total = 0.0
    with no_grad():
        for start in range(0, len(samples), batch_size):
            chunk = samples[start:start + batch_size]
            dists, _, _, _, _ = forward_batch(store, cfg, chunk, training=False)
            for r, s in enumerate(chunk):
                value, _ = _bidirectional_arrays(
                    s.tokens.tokens, s.tokens.valid_count, dists.data[r], cfg.grid_size
                )
                total += value
    return total / len(samples)


def decode_prediction(
    dists: np.ndarray, box: BBox, grid_size: int
) -> tuple[Polygon | None, float]:
    """Tokens to a polygon in image coordinates via cell centers.

    Every query whose argmax is a grid cell contributes a vertex, in query
    order (NO-VERTEX rows are skipped; each query is classified as vertex
    or not).  Returns (None, score) when fewer than three distinct cells
    remain or the ring is degenerate.  The score is the mean argmax
    probability over all query rows.
    """
    no_vertex = no_vertex_index(grid_size)
    args = np.argmax(dists, axis=1)
    score = float(np.mean(dists[np.arange(len(args)), args]))
    cells: list[int] = []
    for a in args:
        if a == no_vertex:
            continue
        if not cells or cells[-1] != a:
            cells.append(int(a))
    while len(cells) > 1 and cells[-1] == cells[0]:
        cells.pop()
    if len(cells) < 3:
        return None, score
    x0, y0, _, _ = box.corners()
    pts = []
    for c in cells:
        row, col = divmod(c, grid_size)
        pts.append((
            x0 + (col + 0.5) / grid_size * box.w,
            y0 + (row + 0.5) / grid_size * box.h,
        ))
    try:
        return Polygon.from_points(pts), score
    except ValueError:
        return None, score


def predict_batch(
    store: ParamStore,
    cfg: PolygonHeadConfig,
    batch: list[TrainSample],
    chunk_size: int = 16,
) -> list[tuple[Polygon | None, float]]:
    """Inference-mode polygon predictions for prepared samples."""
    out: list[tuple[Polygon | None, float]] = []
    with no_grad():
        for start in range(0, len(batch), chunk_size):
            chunk = batch[start:start + chunk_size]
            dists, _, _, _, _ = forward_batch(store, cfg, chunk, training=False)
            out.extend(
                decode_prediction(dists.data[r], chunk[r].box, cfg.grid_size)
                for r in range(len(chunk))
            )
    return out


@dataclass
class TrainHistory:
    steps: list[LossBreakdown] = field(default_factory=list)

    def rows(self) -> list[dict]:
        return [
            {
                "step": i,
                "total": b.total,
                "sv": b.sv,
                "ver": b.ver,
                "edge": b.edge,
                "cls": b.cls,
                "bbox": b.bbox,
            }
            for i, b in enumerate(self.steps)
        ]


def train_toy(
    samples: list[TrainSample],
    cfg: PolygonHeadConfig,
    seed: int = 0,
    epochs: int = 8,
    batch_size: int = 8,
    lr: float = 1e-3,
    weight_decay: float = 1e-4,
    weights: LossWeights | None = None,
    detection: bool = False,
    stem_lr_scale: float = 0.1,
) -> tuple[ParamStore, TrainHistory]:
    """Seeded full training run over prepared samples; bit-reproducible."""
    store = init_model(cfg, seed=seed, detection=detection)
    order_rng = np.random.RandomState(seed + 1)
    det_rng = np.random.RandomState(seed + 2) if detection else None
    history = TrainHistory()
    for _ in range(epochs):
        order = order_rng.permutation(len(samples))
        for start in range(0, len(samples), batch_size):
            batch = [samples[i] for i in order[start:start + batch_size]]
            breakdown = train_step_detailed(
                batch, store, cfg, lr, weight_decay, weights, det_rng, stem_lr_scale
            )
            history.steps.append(breakdown)
    return store, history
