"""Command-line front door.

Subcommands: eval, selftest, train-toy, gen-synth, simplify, polygonize.
Reports go to stdout (or --out); warnings go to stderr.  Exit codes:
0 success, 1 validation error, 2 internal check failure.
"""
from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import sys
from pathlib import Path

from . import __version__
from .dataio import (
    CocoDoc,
    CocoFormatError,
    SynthSpec,
    gen_synthetic,
    load_corpus,
    parse_coco,
    read_pgm,
    save_corpus,
    serialize_coco,
)
from .geometry import BBox, marching_squares, signed_area, simplify_polygon
from .metrics import MetricReport, evaluate_instances
from .polyloss import LossWeights
from .selftest import run_selftest

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CHECK_FAILURE = 2


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_doc(path: str) -> tuple[CocoDoc, str]:
    """The parsed document and the SHA-256 of the bytes it was parsed from."""
    p = Path(path)
    if not p.exists():
        raise CocoFormatError(f"input file not found: {path}")
    raw = p.read_bytes()
    return parse_coco(raw), hashlib.sha256(raw).hexdigest()


def _report_json(report: MetricReport, meta: dict) -> str:
    payload = report.as_dict()
    payload["meta"] = meta
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_eval(args) -> int:
    gt_doc, gt_sha = _load_doc(args.gt)
    pred_doc, pred_sha = _load_doc(args.pred)
    gts = gt_doc.gt_instances()
    preds = pred_doc.pred_instances()
    report = evaluate_instances(
        preds,
        gts,
        resolution=args.resolution,
        samples=args.samples,
        match_iou=args.match_iou,
    )
    if report.n_ratio is None:
        print("warning: no matched pairs at the matching threshold; "
              "polygonal metrics reported as null", file=sys.stderr)
    meta = {
        "tool_version": __version__,
        "seed": args.seed,
        "inputs": {args.gt: gt_sha, args.pred: pred_sha},
    }
    if args.format == "json":
        _emit(_report_json(report, meta), args.out)
    else:
        _emit(MetricReport.csv_header() + "\n" + report.csv_row() + "\n", args.out)
    return EXIT_OK


def cmd_selftest(args) -> int:
    ok, results = run_selftest(corrupt_op=args.corrupt_gradient)
    payload = {
        "tool_version": __version__,
        "passed": ok,
        "checks": [r.as_dict() for r in results],
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    if not ok:
        failing = ", ".join(r.name for r in results if not r.passed)
        print(f"selftest failures: {failing}", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    return EXIT_OK


def _head_config(args):
    from .neural.head import PolygonHeadConfig

    return PolygonHeadConfig(
        grid_size=args.grid,
        channels=args.channels,
        heads=args.heads,
        decoder_blocks=args.decoder_blocks,
        queries=args.queries,
        encoder_variant=args.variant,
    )


def _check_one_image_size(rasters: dict, corpus: str) -> None:
    """The stem batches a corpus's images, so they must share one size."""
    first = next(iter(rasters), None)
    for name, arr in rasters.items():
        (h, w), (h0, w0) = arr.shape, rasters[first].shape
        if (h, w) != (h0, w0):
            raise CocoFormatError(
                f"corpus {corpus}: image {name} is {w}x{h}, but {first} is {w0}x{h0}; "
                "train-toy needs images of one size"
            )


def cmd_train_toy(args) -> int:
    from .neural.checkpoint import save_checkpoint
    from .neural.training import corpus_samples, held_out_sv_loss, predict_corpus, train_toy

    cfg = _head_config(args)
    doc, rasters = load_corpus(args.corpus)
    _check_one_image_size(rasters, args.corpus)
    samples = corpus_samples(doc, rasters, cfg)
    if not samples:
        raise CocoFormatError(f"corpus {args.corpus} has no annotations")
    if args.eval_corpus:
        edoc, erasters = load_corpus(args.eval_corpus)
        _check_one_image_size(erasters, args.eval_corpus)
        esamples = corpus_samples(edoc, erasters, cfg)
        if not esamples:
            raise CocoFormatError(f"eval corpus {args.eval_corpus} has no annotations")
    weights = LossWeights(
        lambda_cls=args.lambda_cls, lambda_bbox=args.lambda_bbox, lambda_poly=args.lambda_poly
    )
    store, history = train_toy(
        samples,
        cfg,
        seed=args.seed,
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        weight_decay=args.weight_decay,
        weights=weights,
        detection=args.detection,
        stem_lr_scale=args.stem_lr_scale,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out_dir / "checkpoint.pmck", cfg, store)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["step", "total", "sv", "ver", "edge", "cls", "bbox"])
    writer.writeheader()
    for row in history.rows():
        writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
    (out_dir / "loss_curve.csv").write_text(buf.getvalue(), encoding="utf-8")

    summary = {
        "steps": len(history.steps),
        "final_total": history.steps[-1].total,
        "final_sv": history.steps[-1].sv,
        "checkpoint": str(out_dir / "checkpoint.pmck"),
        "loss_curve": str(out_dir / "loss_curve.csv"),
    }
    if args.eval_corpus:
        report = evaluate_instances(*predict_corpus(store, cfg, edoc, esamples))
        summary["eval"] = report.as_dict()
        summary["held_out_sv"] = held_out_sv_loss(store, cfg, esamples)
        (out_dir / "eval.json").write_text(
            json.dumps(summary["eval"], indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    _emit(json.dumps(summary, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def cmd_gen_synth(args) -> int:
    spec = SynthSpec(
        image_size=args.size,
        families=tuple(args.families.split(",")),
        min_shapes=args.min_shapes,
        max_shapes=args.max_shapes,
        n_images=args.images,
        seed=args.seed,
        fg_level=args.fg_level,
        bg_level=args.bg_level,
        noise=args.noise,
        speckle=args.speckle,
    )
    doc, rasters = gen_synthetic(spec)
    save_corpus(args.out_dir, doc, rasters)
    summary = {
        "out_dir": args.out_dir,
        "images": len(doc.images),
        "instances": len(doc.annotations),
    }
    _emit(json.dumps(summary, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def cmd_simplify(args) -> int:
    doc, _ = _load_doc(args.input)
    out_annotations = []
    for a, poly in zip(doc.annotations, doc.annotation_polygons()):
        simple = simplify_polygon(poly, args.epsilon)
        entry = dict(a)
        entry["segmentation"] = [simple.to_flat()]
        entry["area"] = abs(signed_area(simple))
        entry["bbox"] = list(BBox.of_polygon(simple).to_xywh())
        out_annotations.append(entry)
    out = CocoDoc(data={**doc.data, "annotations": out_annotations})
    payload = serialize_coco(out).decode("utf-8") + "\n"
    _emit(payload, args.out)
    return EXIT_OK


def cmd_polygonize(args) -> int:
    paths: list[Path] = []
    for raw in args.masks:
        p = Path(raw)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.pgm")))
        elif p.exists():
            paths.append(p)
        else:
            raise CocoFormatError(f"mask file not found: {raw}")
    if not paths:
        raise CocoFormatError("no PGM masks found")
    images = []
    annotations = []
    ann_id = 1
    for idx, path in enumerate(paths):
        image = read_pgm(path)
        mask = image > 127
        images.append(
            {
                "id": idx + 1,
                "width": mask.shape[1],
                "height": mask.shape[0],
                "file_name": path.name,
            }
        )
        for contour in marching_squares(mask):
            if signed_area(contour) <= 0:
                continue  # holes are not emitted as instances
            poly = simplify_polygon(contour, args.epsilon) if args.epsilon > 0 else contour
            annotations.append(
                {
                    "id": ann_id,
                    "image_id": idx + 1,
                    "category_id": 1,
                    "segmentation": [poly.to_flat()],
                    "area": abs(signed_area(poly)),
                    "bbox": list(BBox.of_polygon(poly).to_xywh()),
                    "iscrowd": 0,
                }
            )
            ann_id += 1
    doc = CocoDoc(
        data={
            "images": images,
            "annotations": annotations,
            "categories": [{"id": 1, "name": "building"}],
        }
    )
    _emit(serialize_coco(doc).decode("utf-8") + "\n", args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `polymap` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="polymap",
        description="Polygonal building mapping toolkit: losses, metrics, toy training.",
    )
    parser.add_argument("--version", action="version", version=f"polymap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("gt", help="ground-truth COCO-subset JSON")
    p.add_argument("pred", help="prediction COCO annotations JSON (entries carry a score)")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--resolution", type=int, default=256, help="IoU raster long side")
    p.add_argument("--samples", type=int, default=128, help="tangent-angle boundary samples")
    p.add_argument("--match-iou", type=float, default=0.5,
                   help="IoU threshold for the polygonal-metric pairing")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("selftest", help="run the built-in verification checks")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--corrupt-gradient", metavar="OP",
                   help="scale OP's backward gradients by 2 to prove detection works")
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("train-toy", help="train the polygon head on a synthetic corpus")
    p.add_argument("--corpus", required=True, help="corpus directory from gen-synth")
    p.add_argument("--eval-corpus", help="held-out corpus to evaluate after training")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--out", help="write the run summary here instead of stdout")
    p.add_argument("--variant", default="hierarchical")
    p.add_argument("--grid", type=int, default=20)
    p.add_argument("--channels", type=int, default=32)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--decoder-blocks", type=int, default=8)
    p.add_argument("--queries", type=int, default=12)
    p.add_argument("--epochs", type=int, default=4)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--lr", type=float, default=1.5e-3)
    p.add_argument("--weight-decay", type=float, default=1e-4)
    p.add_argument("--stem-lr-scale", type=float, default=0.1,
                   help="learning-rate multiplier for the image stem (backbone role)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--detection", action="store_true",
                   help="add the classification/box branch over jittered proposals")
    p.add_argument("--lambda-cls", type=float, default=1.0)
    p.add_argument("--lambda-bbox", type=float, default=1.0)
    p.add_argument("--lambda-poly", type=float, default=1.0)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("gen-synth", help="generate a deterministic synthetic corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--out", help="write the generation summary here instead of stdout")
    p.add_argument("--images", type=int, default=100)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--families", default="rect,rotated_rect,l_shape")
    p.add_argument("--min-shapes", type=int, default=1)
    p.add_argument("--max-shapes", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fg-level", type=float, default=255.0)
    p.add_argument("--bg-level", type=float, default=0.0)
    p.add_argument("--noise", type=float, default=0.0,
                   help="additive Gaussian pixel noise (grey levels)")
    p.add_argument("--speckle", type=float, default=0.0,
                   help="multiplicative texture amplitude in [0, 1)")
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("simplify", help="simplify every polygon in a COCO file")
    p.add_argument("input")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--out", help="write the simplified document here instead of stdout")
    p.set_defaults(func=cmd_simplify)

    p = sub.add_parser("polygonize", help="trace polygons from binary PGM masks")
    p.add_argument("masks", nargs="+", help="PGM files or directories containing them")
    p.add_argument("--epsilon", type=float, default=0.0,
                   help="optional simplification tolerance for traced contours")
    p.add_argument("--out", help="write the COCO document here instead of stdout")
    p.set_defaults(func=cmd_polygonize)

    return parser


def main(argv=None) -> int:
    # Python warnings already land on stderr, keeping stdout machine-parseable.
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CocoFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FloatingPointError as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
