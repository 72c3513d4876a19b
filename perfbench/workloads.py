"""The benchmark's workloads: inputs from a seed, one operation, and its checks.

A workload's constructor is its set-up: it makes the inputs from the seed.
Then `op()` runs one timed call into polymap and returns its output,
`check(out)` returns the problems found in that output (empty when
correct), and `finish()` runs the end-of-run checks.  `items(out)` is the
number of work items one operation handled.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import refs
from polymap import cli, dataio
from polymap.neural import checkpoint, head, training

# Noisy rect / L-shape corpus, made like the acceptance toy-training corpus.
TOY_CORPUS = dict(families=("rect", "l_shape"), fg_level=150, bg_level=90,
                  noise=25, speckle=0.5)
TRAIN_IMAGES = 500
INFER_IMAGES = 200
INFER_CHUNK = 16
# Two buildings in every held-out image, so that each 16-instance chunk spans
# eight images and every infer call does the same work.
INFER_SHAPES = dict(min_shapes=2, max_shapes=2)
HEAD = dict(channels=24, decoder_blocks=2)
TRAIN_STEP = dict(lr=1.5e-3, weight_decay=1e-4, stem_lr_scale=0.1)
BATCH = 8
HELD_OUT_SEED = 7919  # infer's corpus differs from train's at the same seed
LOSS_WINDOW = 10  # steps averaged at each end of a train run

# Crowded convex scenes for eval.
# The counts are fixed so that the work per prediction varies little between
# seeds; eight buildings in a 128-pixel image leave most same-image pairs
# with disjoint boxes.
EVAL_SCENE = dict(image_size=128, families=("rect", "rotated_rect"),
                  min_shapes=8, max_shapes=8)
EVAL_IMAGES = 5
CANDIDATES = 3  # scored candidates per building
FALSE_POSITIVES = 2  # per image
COLLINEAR_SHARE = 0.35  # candidates given extra collinear vertices
# Rasterized IoU at resolution 256 was off the exact IoU by at most 0.0055 on
# 2548 overlapping pairs of these shapes (tests/test_refs.py measures it
# again).  Every exact IoU is kept further than this margin from each
# threshold, so the program's matches cannot differ from the reference's.
IOU_MARGIN = 0.015


class ForwardCapture:
    """Keeps the distributions of every `forward_batch` call since `clear`."""

    def __init__(self):
        self.dists: list[np.ndarray] = []
        inner = training.forward_batch

        def capture(*args, **kwargs):
            out = inner(*args, **kwargs)
            self.dists.append(out[0].data)
            return out

        training.forward_batch = capture

    def clear(self):
        self.dists = []


def _seq_loss(sample, rows, grid):
    return refs.sequence_loss(sample.tokens.tokens, sample.tokens.valid_count, rows, grid)


def _close(a, b, rel=1e-9):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# --- train -------------------------------------------------------------------

class Train:
    name = "train"

    def __init__(self, seed: int, workdir: Path):
        doc, rasters = dataio.gen_synthetic(
            dataio.SynthSpec(n_images=TRAIN_IMAGES, seed=seed, **TOY_CORPUS))
        self.cfg = head.PolygonHeadConfig.desk(**HEAD)
        self.samples = training.corpus_samples(doc, rasters, self.cfg)
        self.store = head.init_model(self.cfg, seed=seed, detection=True)
        self.order_rng = np.random.RandomState(seed + 1)
        self.det_rng = np.random.RandomState(seed + 2)
        self.queue: list[int] = []
        self.workdir = workdir
        self.capture = ForwardCapture()
        self.totals: list[float] = []
        self.batch = []
        self.counts = {}

    def op(self):
        if len(self.queue) < BATCH:
            self.queue = list(self.order_rng.permutation(len(self.samples)))
        idx, self.queue = self.queue[:BATCH], self.queue[BATCH:]
        self.batch = [self.samples[i] for i in idx]
        self.capture.clear()
        return training.train_step_detailed(
            self.batch, self.store, self.cfg, detection_rng=self.det_rng, **TRAIN_STEP)

    def items(self, out):
        return 1

    def check(self, out):
        self.totals.append(out.total)
        return check_train_step(out, self.batch, self.capture.dists, self.cfg.grid_size)

    def finish(self):
        problems = check_loss_fell(self.totals)
        path = self.workdir / "final.pmck"
        checkpoint.save_checkpoint(path, self.cfg, self.store)
        cfg2, store2 = checkpoint.load_checkpoint(path)
        return problems + check_round_trip(self.cfg, self.store, cfg2, store2)


def check_train_step(out, batch, dists, grid):
    """Finite terms that add up, and a sequence loss equal to the reference."""
    terms = (out.sv, out.ver, out.edge, out.cls, out.bbox)
    if not all(math.isfinite(v) for v in terms + (out.total,)):
        return [f"non-finite loss terms {out}"]
    problems = []
    if not _close(out.total, sum(terms)):
        problems.append(f"total {out.total!r} is not the sum of its terms {sum(terms)!r}")
    if len(dists) != 1 or dists[0].shape[0] != len(batch):
        return problems + [f"expected one forward over {len(batch)} instances"]
    want = sum(_seq_loss(s, dists[0][r], grid) for r, s in enumerate(batch)) / len(batch)
    if not _close(out.sv, want):
        problems.append(f"sequence loss {out.sv!r} != reference {want!r}")
    return problems


def check_loss_fell(totals):
    if len(totals) < 2 * LOSS_WINDOW:
        return [f"only {len(totals)} steps; need {2 * LOSS_WINDOW} to compare"]
    first = sum(totals[:LOSS_WINDOW]) / LOSS_WINDOW
    last = sum(totals[-LOSS_WINDOW:]) / LOSS_WINDOW
    if not last < first:
        return [f"mean loss of the last {LOSS_WINDOW} steps {last:.4f} "
                f"is not below the first {first:.4f}"]
    return []


def check_round_trip(cfg, store, cfg2, store2):
    """Every array of the store comes back bit for bit, with config and step."""
    problems = []
    if cfg2 != cfg or store2.step != store.step:
        problems.append("checkpoint config or step differs")
    groups = (
        ("param", {k: t.data for k, t in store.params.items()},
         {k: t.data for k, t in store2.params.items()}),
        ("buffer", store.buffers, store2.buffers),
        ("moment1", store.moment1, store2.moment1),
        ("moment2", store.moment2, store2.moment2),
    )
    for kind, a, b in groups:
        if list(a) != list(b):
            problems.append(f"checkpoint {kind} names differ")
            continue
        for name in a:
            if a[name].shape != b[name].shape or a[name].tobytes() != b[name].tobytes():
                problems.append(f"checkpoint {kind} {name} does not round-trip")
    return problems


# --- infer -------------------------------------------------------------------

class Infer:
    name = "infer"

    def __init__(self, seed: int, workdir: Path):
        doc, rasters = dataio.gen_synthetic(
            dataio.SynthSpec(n_images=INFER_IMAGES, seed=seed + HELD_OUT_SEED,
                             **TOY_CORPUS, **INFER_SHAPES))
        self.cfg = head.PolygonHeadConfig.desk(**HEAD)
        self.samples = training.corpus_samples(doc, rasters, self.cfg)
        self.store = head.init_model(self.cfg, seed=seed)
        self.chunks = [self.samples[i:i + INFER_CHUNK]
                       for i in range(0, len(self.samples), INFER_CHUNK)]
        self.next = 0
        self.capture = ForwardCapture()
        self.chunk = []
        self.counts = {"polygons_decoded": 0, "instances_predicted": 0}

    def op(self):
        self.chunk = self.chunks[self.next % len(self.chunks)]
        self.next += 1
        self.capture.clear()
        return training.predict_batch(self.store, self.cfg, self.chunk, chunk_size=INFER_CHUNK)

    def items(self, out):
        return len(out)

    def check(self, out):
        self.counts["polygons_decoded"] += sum(1 for poly, _ in out if poly is not None)
        self.counts["instances_predicted"] += len(out)
        problems = check_predictions(out, self.capture.dists, len(self.chunk))
        # One instance per chunk, rotating, is predicted alone as well.
        r = (self.next - 1) % len(self.chunk)
        alone = training.predict_batch(self.store, self.cfg, [self.chunk[r]])
        return problems + check_same_prediction(out[r], alone[0])

    def finish(self):
        held = self.samples[:2 * INFER_CHUNK]
        self.capture.clear()
        got = training.held_out_sv_loss(self.store, self.cfg, held, batch_size=INFER_CHUNK)
        rows = np.concatenate(self.capture.dists)
        return check_held_out(got, held, rows, self.cfg.grid_size)


def check_predictions(out, dists, n):
    """Rows are distributions; each score is the mean of its rows' maxima."""
    if len(out) != n or len(dists) != 1 or dists[0].shape[0] != n:
        return [f"expected {n} predictions from one forward"]
    problems = []
    d = dists[0]
    if np.any(d < 0) or np.any(np.abs(d.sum(axis=2) - 1.0) > 1e-12):
        problems.append("an output row is not a probability distribution")
    for r, (_, score) in enumerate(out):
        want = sum(max(row) for row in d[r].tolist()) / d.shape[1]
        if not abs(score - want) <= 1e-12:
            problems.append(f"instance {r}: score {score!r} != mean row maximum {want!r}")
    return problems


def check_same_prediction(batched, alone):
    (pa, sa), (pb, sb) = batched, alone
    if not abs(sa - sb) <= 1e-12:
        return [f"chunked score {sa!r} != single-instance score {sb!r}"]
    if (pa is None) != (pb is None) or (pa is not None and pa.to_flat() != pb.to_flat()):
        return ["chunked polygon differs from the single-instance polygon"]
    return []


def check_held_out(got, samples, rows, grid):
    want = sum(_seq_loss(s, rows[i], grid) for i, s in enumerate(samples)) / len(samples)
    if not _close(got, want):
        return [f"held_out_sv_loss {got!r} != reference mean {want!r}"]
    return []


# --- eval --------------------------------------------------------------------

def _ring(flat):
    return [(flat[i], flat[i + 1]) for i in range(0, len(flat), 2)]


def _transform(rng, ring):
    """A shifted, scaled and rotated copy about the ring's centroid."""
    cx = sum(x for x, _ in ring) / len(ring)
    cy = sum(y for _, y in ring) / len(ring)
    x0, y0, x1, y1 = refs.bounds(ring)
    dx = rng.uniform(-0.3, 0.3) * (x1 - x0)
    dy = rng.uniform(-0.3, 0.3) * (y1 - y0)
    sx, sy = rng.uniform(0.75, 1.3), rng.uniform(0.75, 1.3)
    a = rng.uniform(-0.35, 0.35)
    c, s = math.cos(a), math.sin(a)
    out = []
    for x, y in ring:
        u, v = (x - cx) * sx, (y - cy) * sy
        out.append((cx + dx + c * u - s * v, cy + dy + s * u + c * v))
    return out


def _with_collinear(rng, ring):
    """Insert a vertex inside one or two edges; the shape stays the same."""
    ring = list(ring)
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(ring))
        (x1, y1), (x2, y2) = ring[i], ring[(i + 1) % len(ring)]
        t = rng.uniform(0.3, 0.7)
        ring.insert(i + 1, (x1 + t * (x2 - x1), y1 + t * (y2 - y1)))
    return ring


def _false_positive(rng, size):
    w, h = rng.uniform(8, 30), rng.uniform(8, 30)
    cx, cy = rng.uniform(w / 2, size - w / 2), rng.uniform(h / 2, size - h / 2)
    a = rng.choice((0.0, rng.uniform(0.2, 1.3)))
    c, s = math.cos(a), math.sin(a)
    return [(cx + c * u - s * v, cy + s * u + c * v)
            for u, v in ((-w / 2, -h / 2), (w / 2, -h / 2), (w / 2, h / 2), (-w / 2, h / 2))]


def _exact_ious(ring, gts):
    """{gt index: exact IoU} over the nonzero pairs, or None if one is near a threshold."""
    out = {}
    for g, gring in gts:
        iou = refs.convex_iou(ring, gring)
        if any(abs(iou - t) < IOU_MARGIN for t in refs.IOU_THRESHOLDS):
            return None
        if iou > 0:
            out[g] = iou
    return out


@dataclass
class EvalInputs:
    gt_doc: dict
    pred_doc: dict
    scene: tuple  # the arguments of refs.reference_report
    counts: dict  # same-image pairs, and those with disjoint boxes


def make_eval_inputs(seed: int, n_images: int = EVAL_IMAGES) -> EvalInputs:
    """Ground truth from the synthetic generator, predictions made here."""
    doc, _ = dataio.gen_synthetic(
        dataio.SynthSpec(n_images=n_images, seed=seed, **EVAL_SCENE))
    rng = random.Random(seed)
    size = EVAL_SCENE["image_size"]
    gt_vertices, pred_rings, pred_image, pred_quality = [], [], [], []
    images = {}
    same = disjoint = 0
    by_image: dict = {}
    for a in doc.annotations:
        by_image.setdefault(a["image_id"], []).append(a)
    for img in doc.images:
        gts = []
        for a in by_image.get(img["id"], []):
            gts.append((len(gt_vertices), _ring(a["segmentation"][0])))
            gt_vertices.append(len(gts[-1][1]))
        preds, ious = [], {}

        def add(make):
            for _ in range(100):
                ring = make()
                hits = _exact_ious(ring, gts)
                if hits is not None:
                    p = len(pred_rings)
                    pred_rings.append(ring)
                    pred_image.append(img["id"])
                    pred_quality.append(max(hits.values(), default=0.0))
                    preds.append(p)
                    ious.update({(p, g): v for g, v in hits.items()})
                    return
            raise RuntimeError(f"image {img['id']}: no candidate clear of the IoU thresholds")

        for _, gring in gts:
            for _ in range(CANDIDATES):
                if rng.random() < COLLINEAR_SHARE:
                    add(lambda: _with_collinear(rng, _transform(rng, gring)))
                else:
                    add(lambda: _transform(rng, gring))
        for _ in range(FALSE_POSITIVES):
            add(lambda: _false_positive(rng, size))
        images[img["id"]] = ([g for g, _ in gts], preds, ious)
        same += len(preds) * len(gts)
        disjoint += sum(refs.boxes_disjoint(pred_rings[p], gring)
                        for p in preds for _, gring in gts)

    # Distinct scores that favour better candidates, as a detector's would.
    keys = [0.6 * q + 0.4 * rng.random() for q in pred_quality]
    order = sorted(range(len(keys)), key=lambda p: keys[p])
    scores = [0.0] * len(keys)
    for rank, p in enumerate(order):
        scores[p] = (rank + 1) / (len(keys) + 1)

    annotations = [
        {"id": p + 1, "image_id": pred_image[p], "category_id": 1,
         "segmentation": [[c for xy in ring for c in xy]], "score": scores[p]}
        for p, ring in enumerate(pred_rings)
    ]
    pred_doc = {"images": doc.images, "annotations": annotations,
                "categories": doc.categories}
    scene = (images, gt_vertices, [len(r) for r in pred_rings], scores)
    counts = {"eval.pairs_same_image": same, "eval.pairs_bbox_disjoint": disjoint}
    return EvalInputs(doc.data, pred_doc, scene, counts)


class Eval:
    name = "eval"

    def __init__(self, seed: int, workdir: Path):
        inputs = make_eval_inputs(seed)
        self.reference = refs.reference_report(*inputs.scene)
        self.counts = inputs.counts
        self.gt_path = workdir / "gt.json"
        self.pred_path = workdir / "pred.json"
        self.report_path = workdir / "report.json"
        self.gt_path.write_text(json.dumps(inputs.gt_doc))
        self.pred_path.write_text(json.dumps(inputs.pred_doc))
        self.n_preds = len(inputs.pred_doc["annotations"])

    def op(self):
        code = cli.main(["eval", str(self.gt_path), str(self.pred_path),
                         "--out", str(self.report_path)])
        if code != 0:
            raise RuntimeError(f"polymap eval exited {code}")
        return json.loads(self.report_path.read_text())

    def items(self, out):
        return self.n_preds

    def check(self, out):
        return check_report(out, self.reference)

    def finish(self):
        return []


def check_report(got, want):
    """The report against the reference made from exact IoUs."""
    problems = []
    for key in ("ap", "ap50", "ap75", "ar", "ar50", "ar75", "f1"):
        if not abs(got[key] - want[key]) <= 1e-12:
            problems.append(f"{key} {got[key]!r} != reference {want[key]!r}")
    if got["n_ratio"] != want["n_ratio"]:
        problems.append(f"n_ratio {got['n_ratio']!r} != reference {want['n_ratio']!r}")
    if got["c_iou"] is None or not abs(got["c_iou"] - want["c_iou"]) <= IOU_MARGIN:
        problems.append(f"c_iou {got['c_iou']!r} not within {IOU_MARGIN} of {want['c_iou']!r}")
    if got["mta"] is None or not 0.0 <= got["mta"] <= math.pi:
        problems.append(f"mta {got['mta']!r} outside [0, pi]")
    return problems


WORKLOADS = {w.name: w for w in (Train, Infer, Eval)}
