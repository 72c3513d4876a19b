"""Each workload's checks pass on polymap's real outputs and fail on a wrong one."""
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import refs
import tracing
import workloads
from polymap import cli, dataio
from polymap.neural import head, training

BENCH = Path(__file__).resolve().parents[1]
TINY = dict(grid_size=8, channels=8, heads=2, decoder_blocks=1, queries=8)


@pytest.fixture
def capture(monkeypatch):
    monkeypatch.setattr(training, "forward_batch", training.forward_batch)
    return workloads.ForwardCapture()


@pytest.fixture(scope="module")
def tiny_samples():
    doc, rasters = dataio.gen_synthetic(
        dataio.SynthSpec(n_images=6, seed=5, **workloads.TOY_CORPUS))
    cfg = head.PolygonHeadConfig(**TINY)
    return cfg, training.corpus_samples(doc, rasters, cfg)


# --- eval --------------------------------------------------------------------

@pytest.fixture(scope="module")
def eval_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("eval")
    inputs = workloads.make_eval_inputs(seed=4, n_images=2)
    (tmp / "gt.json").write_text(json.dumps(inputs.gt_doc))
    (tmp / "pred.json").write_text(json.dumps(inputs.pred_doc))
    out = tmp / "report.json"
    assert cli.main(["eval", str(tmp / "gt.json"), str(tmp / "pred.json"), "--out", str(out)]) == 0
    return json.loads(out.read_text()), inputs


def test_eval_report_matches_the_reference(eval_case):
    report, inputs = eval_case
    assert workloads.check_report(report, refs.reference_report(*inputs.scene)) == []


def test_eval_check_catches_one_swapped_match(eval_case):
    """A report whose best-scored match at 0.5 went to no one is refused."""
    report, inputs = eval_case
    images, gt_vertices, pred_vertices, scores = inputs.scene
    first = next(iter(images))
    gts, preds, iou = images[first]
    top = max((p for (p, _), v in iou.items() if v >= 0.5), key=lambda p: scores[p])
    kept = {k: v for k, v in iou.items() if k[0] != top}
    wrong_scene = ({**images, first: (gts, preds, kept)}, gt_vertices, pred_vertices, scores)
    wrong = dict(report, **{k: v for k, v in refs.reference_report(*wrong_scene).items()
                            if k not in ("n_ratio", "c_iou")})
    assert workloads.check_report(wrong, refs.reference_report(*inputs.scene))


def test_eval_check_catches_polygonal_fields(eval_case):
    report, inputs = eval_case
    reference = refs.reference_report(*inputs.scene)
    assert workloads.check_report(dict(report, n_ratio=report["n_ratio"] * (1 + 1e-12)),
                                  reference)
    assert workloads.check_report(dict(report, c_iou=report["c_iou"] + 0.02), reference)
    assert workloads.check_report(dict(report, mta=4.0), reference)


# --- train -------------------------------------------------------------------

def test_train_step_check_and_an_altered_loss_term(tiny_samples, capture):
    cfg, samples = tiny_samples
    store = head.init_model(cfg, seed=0, detection=True)
    batch = samples[:4]
    out = training.train_step_detailed(batch, store, cfg, lr=1e-3,
                                       detection_rng=np.random.RandomState(0))
    assert workloads.check_train_step(out, batch, capture.dists, cfg.grid_size) == []
    sv = dataclasses.replace(out, sv=out.sv * (1 + 1e-6), total=out.total + out.sv * 1e-6)
    assert workloads.check_train_step(sv, batch, capture.dists, cfg.grid_size)
    ver = dataclasses.replace(out, ver=out.ver + 1e-3)
    assert workloads.check_train_step(ver, batch, capture.dists, cfg.grid_size)
    swapped = [capture.dists[0][::-1]]
    assert workloads.check_train_step(out, batch, swapped, cfg.grid_size)


def test_loss_fell_check():
    falling = list(np.linspace(6.0, 3.0, 25))
    assert workloads.check_loss_fell(falling) == []
    assert workloads.check_loss_fell(falling[::-1])
    assert workloads.check_loss_fell(falling[:10])


def test_round_trip_check_catches_one_flipped_bit(tiny_samples, tmp_path):
    from polymap.neural.checkpoint import load_checkpoint, save_checkpoint

    cfg, _ = tiny_samples
    store = head.init_model(cfg, seed=1)
    save_checkpoint(tmp_path / "c.pmck", cfg, store)
    cfg2, store2 = load_checkpoint(tmp_path / "c.pmck")
    assert workloads.check_round_trip(cfg, store, cfg2, store2) == []
    w = store2["out.w"].data
    w.view(np.uint64)[0, 0] ^= 1
    assert workloads.check_round_trip(cfg, store, cfg2, store2)


# --- infer -------------------------------------------------------------------

def test_infer_checks_and_wrong_outputs(tiny_samples, capture):
    cfg, samples = tiny_samples
    store = head.init_model(cfg, seed=2)
    chunk = samples[:5]
    out = training.predict_batch(store, cfg, chunk)
    dists = list(capture.dists)
    assert workloads.check_predictions(out, dists, len(chunk)) == []
    off = dists[0].copy()
    off[0, 0] *= 1.001
    assert workloads.check_predictions(out, [off], len(chunk))
    wrong_score = [(p, s + 1e-9) if i == 2 else (p, s) for i, (p, s) in enumerate(out)]
    assert workloads.check_predictions(wrong_score, dists, len(chunk))

    alone = training.predict_batch(store, cfg, [chunk[3]])
    assert workloads.check_same_prediction(out[3], alone[0]) == []
    assert workloads.check_same_prediction(out[3], (out[3][0], out[3][1] + 1e-9))

    capture.clear()
    got = training.held_out_sv_loss(store, cfg, chunk, batch_size=2)
    rows = np.concatenate(capture.dists)
    assert workloads.check_held_out(got, chunk, rows, cfg.grid_size) == []
    assert workloads.check_held_out(got * (1 + 1e-6), chunk, rows, cfg.grid_size)


# --- the command -------------------------------------------------------------

def _run(root, *args):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=170, check=False)


def test_traced_eval_run_reports_every_per_layer_metric():
    proc = _run(BENCH.parent, "--workload", "eval", "--seed", "3", "--seconds", "0",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(tracing.PER_LAYER)
    for name in ("metrics.coco_suite_ms", "geometry.polygon_iou.calls",
                 "eval.pairs_bbox_disjoint", "dataio.gen_synthetic_ms"):
        assert result["metrics"][name]["value"] > 0
    assert result["metrics"]["neural.tensor.backward_ms"]["value"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "train", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
