"""Spans around calls into polymap's public functions, and the per-layer metrics.

Tracing wraps module-level functions and two methods of polymap from the
outside: every module attribute that is the original function is replaced,
so callers that imported the name directly are traced too.  Spans are
recorded only inside a root span (set-up or one workload operation), so the
benchmark's own checks do not count.  Spans stay in memory and are written
out once, when the run ends.
"""
from __future__ import annotations

import contextlib
import sys
import time

# (span name, module, attribute, class or None, counter over (args, result))
TRACE_POINTS = (
    ("dataio.gen_synthetic", "polymap.dataio", "gen_synthetic", None, None),
    ("neural.training.corpus_samples", "polymap.neural.training", "corpus_samples", None, None),
    ("neural.training.forward_batch", "polymap.neural.training", "forward_batch", None, None),
    ("neural.training.compute_losses", "polymap.neural.training", "compute_losses", None, None),
    ("neural.training.decode_prediction", "polymap.neural.training", "decode_prediction", None,
     lambda args, out: int(out[0] is not None)),
    ("neural.head.stem_forward", "polymap.neural.head", "stem_forward", None,
     lambda args, out: args[0].shape[0]),
    ("neural.head.encoder_forward", "polymap.neural.head", "encoder_forward", None, None),
    ("neural.head.decoder_forward", "polymap.neural.head", "decoder_forward", None, None),
    ("neural.layers.roi_align_stack", "polymap.neural.layers", "roi_align_stack", None,
     lambda args, out: len(args[1])),
    ("neural.tensor.conv2d_3x3", "polymap.neural.tensor", "conv2d_3x3", None, None),
    ("neural.tensor.batch_norm", "polymap.neural.tensor", "batch_norm", None, None),
    ("neural.tensor.backward", "polymap.neural.tensor", "backward", "Tensor", None),
    ("neural.params.adamw_step", "polymap.neural.params", "adamw_step", "ParamStore", None),
    ("dataio.parse_coco", "polymap.dataio", "parse_coco", None, None),
    ("metrics.coco_suite", "polymap.metrics", "coco_suite", None, None),
    ("metrics.matched_pairs", "polymap.metrics", "matched_pairs", None, None),
    ("metrics.mta", "polymap.metrics", "mta", None, None),
    ("geometry.polygon_iou", "polymap.geometry", "polygon_iou", None, None),
)

# Per-layer metric -> (unit, how it is derived).  "per_op" totals over the
# workload's operations divide by their number; "per_run" totals are taken
# over the set-up, which happens once per process.
PER_LAYER = {
    "neural.training.forward_batch_ms": "ms/call",
    "neural.training.loss_build_ms": "ms/call",
    "neural.tensor.backward_ms": "ms/call",
    "neural.params.adamw_step_ms": "ms/call",
    "neural.head.stem_forward_ms": "ms/call",
    "neural.head.encoder_forward_ms": "ms/call",
    "neural.head.decoder_forward_ms": "ms/call",
    "neural.layers.roi_align_stack_ms": "ms/call",
    "neural.tensor.conv2d_3x3_fwd_ms": "ms/call",
    "neural.tensor.batch_norm_fwd_ms": "ms/call",
    "neural.training.stem_images": "count/call",
    "neural.training.rois": "count/call",
    "neural.training.decode_prediction_ms": "ms/call",
    "neural.training.polygons_decoded": "count/call",
    "dataio.parse_coco_ms": "ms/call",
    "metrics.coco_suite_ms": "ms/call",
    "metrics.matched_pairs_ms": "ms/call",
    "metrics.mta_ms": "ms/call",
    "geometry.polygon_iou.calls": "count/call",
    "geometry.polygon_iou_ms": "ms/call",
    "eval.pairs_same_image": "count/call",
    "eval.pairs_bbox_disjoint": "count/call",
    "dataio.gen_synthetic_ms": "ms/run",
    "neural.training.corpus_samples_ms": "ms/run",
}

# Metrics that are a span's total time, by span name.
_TIMED = {
    "neural.training.forward_batch_ms": "neural.training.forward_batch",
    "neural.tensor.backward_ms": "neural.tensor.backward",
    "neural.params.adamw_step_ms": "neural.params.adamw_step",
    "neural.head.stem_forward_ms": "neural.head.stem_forward",
    "neural.head.encoder_forward_ms": "neural.head.encoder_forward",
    "neural.head.decoder_forward_ms": "neural.head.decoder_forward",
    "neural.layers.roi_align_stack_ms": "neural.layers.roi_align_stack",
    "neural.tensor.conv2d_3x3_fwd_ms": "neural.tensor.conv2d_3x3",
    "neural.tensor.batch_norm_fwd_ms": "neural.tensor.batch_norm",
    "neural.training.decode_prediction_ms": "neural.training.decode_prediction",
    "dataio.parse_coco_ms": "dataio.parse_coco",
    "metrics.coco_suite_ms": "metrics.coco_suite",
    "metrics.matched_pairs_ms": "metrics.matched_pairs",
    "metrics.mta_ms": "metrics.mta",
    "geometry.polygon_iou_ms": "geometry.polygon_iou",
    "dataio.gen_synthetic_ms": "dataio.gen_synthetic",
    "neural.training.corpus_samples_ms": "neural.training.corpus_samples",
}

NAME, START, END, PARENT, COUNT = range(5)


class Tracer:
    """Holds spans as [name, start, end, parent index, count] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name):
        """A span that lets wrapped calls inside it be recorded."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span[COUNT] = counter(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every traced function of the loaded polymap modules."""
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "polymap" or name.startswith("polymap.")]
        for name, module, attr, cls, counter in TRACE_POINTS:
            owner = sys.modules[module]
            if cls is not None:
                klass = getattr(owner, cls)
                setattr(klass, attr, self.wrap(getattr(klass, attr), name, counter))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(original, name, counter)
            for m in loaded:
                if getattr(m, attr, None) is original:
                    setattr(m, attr, traced)

    def per_layer(self, op_root: str, extra_counts: dict) -> dict:
        """Per-layer metrics from the spans under `op_root` and "setup" roots."""
        spans = self.spans
        root_of = [-1] * len(spans)
        for i, s in enumerate(spans):
            root_of[i] = i if s[PARENT] < 0 else root_of[s[PARENT]]
        ops = sum(1 for s in spans if s[PARENT] < 0 and s[NAME] == op_root)
        per_op = max(ops, 1)
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, int] = {}
        child_forward: dict[int, float] = {}
        for i, s in enumerate(spans):
            if s[PARENT] < 0:
                continue
            key = (spans[root_of[i]][NAME], s[NAME])
            dur = s[END] - s[START]
            total[key] = total.get(key, 0.0) + dur
            calls[key] = calls.get(key, 0) + 1
            counts[key] = counts.get(key, 0) + s[COUNT]
            if s[NAME] == "neural.training.forward_batch":
                child_forward[s[PARENT]] = child_forward.get(s[PARENT], 0.0) + dur
        out = {}
        for metric, span in _TIMED.items():
            if PER_LAYER[metric] == "ms/run":
                out[metric] = 1e3 * total.get(("setup", span), 0.0)
            else:
                out[metric] = 1e3 * total.get((op_root, span), 0.0) / per_op
        loss_self = sum(
            (s[END] - s[START]) - child_forward.get(i, 0.0)
            for i, s in enumerate(spans)
            if s[NAME] == "neural.training.compute_losses" and spans[root_of[i]][NAME] == op_root
        )
        out["neural.training.loss_build_ms"] = 1e3 * loss_self / per_op
        out["neural.training.stem_images"] = (
            counts.get((op_root, "neural.head.stem_forward"), 0) / per_op)
        out["neural.training.rois"] = sum(
            s[COUNT] for s in spans
            if s[NAME] == "neural.layers.roi_align_stack" and s[PARENT] >= 0
            and spans[s[PARENT]][NAME] == "neural.training.forward_batch"
            and spans[root_of[s[PARENT]]][NAME] == op_root
        ) / per_op
        out["neural.training.polygons_decoded"] = (
            counts.get((op_root, "neural.training.decode_prediction"), 0) / per_op)
        out["geometry.polygon_iou.calls"] = (
            calls.get((op_root, "geometry.polygon_iou"), 0) / per_op)
        for name in ("eval.pairs_same_image", "eval.pairs_bbox_disjoint"):
            out[name] = float(extra_counts.get(name, 0))
        return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER.items()}
