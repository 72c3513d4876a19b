import hashlib
import json
import math
import shutil

import numpy as np
import pytest

from polymap.cli import main
from polymap.dataio import load_corpus, parse_coco, write_pgm
from polymap.geometry import Polygon, mask_iou, rasterize
from polymap.metrics import evaluate_instances
from polymap.neural.head import PolygonHeadConfig
from polymap.neural.training import corpus_samples, held_out_sv_loss, predict_corpus, train_toy


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def corpus(tmp_path):
    out = tmp_path / "corpus"
    assert run("gen-synth", "--out-dir", out, "--images", 6, "--seed", 3,
               "--families", "rect,l_shape") == 0
    return out


def make_pred_file(tmp_path, gt_path, score=0.9):
    doc = json.loads(gt_path.read_text())
    doc["annotations"] = [dict(a, score=score) for a in doc["annotations"]]
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps(doc))
    return pred


class TestGenSynth:
    def test_writes_corpus(self, corpus):
        assert (corpus / "annotations.json").exists()
        names = sorted(p.name for p in (corpus / "images").glob("*.pgm"))
        assert len(names) == 6

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run("gen-synth", "--out-dir", out, "--images", 4, "--seed", 9,
                       "--noise", 25) == 0
        assert (a / "annotations.json").read_bytes() == (b / "annotations.json").read_bytes()
        name = sorted(p.name for p in (a / "images").glob("*.pgm"))[0]
        assert (a / "images" / name).read_bytes() == (b / "images" / name).read_bytes()


class TestEval:
    def test_identity_report(self, corpus, tmp_path, capsys):
        gt = corpus / "annotations.json"
        pred = make_pred_file(tmp_path, gt)
        assert run("eval", gt, pred) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ap"] == 1.0
        assert payload["f1"] == 1.0
        assert payload["n_ratio"] == 1.0
        assert payload["meta"]["tool_version"]
        assert payload["meta"]["inputs"] == {
            str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in (gt, pred)
        }

    def test_empty_predictions_null_polygonal(self, corpus, tmp_path, capsys):
        gt = corpus / "annotations.json"
        doc = json.loads(gt.read_text())
        doc["annotations"] = []
        pred = tmp_path / "empty.json"
        pred.write_text(json.dumps(doc))
        assert run("eval", gt, pred) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["ap"] == 0.0
        assert payload["n_ratio"] is None
        assert "warning" in captured.err

    def test_csv_format(self, corpus, tmp_path, capsys):
        gt = corpus / "annotations.json"
        pred = make_pred_file(tmp_path, gt)
        assert run("eval", gt, pred, "--format", "csv") == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("ap,ap50,ap75,ar,")
        assert out[1].split(",")[0] == "1.0"

    def test_missing_file_exit_1(self, tmp_path, capsys):
        assert run("eval", tmp_path / "nope.json", tmp_path / "nope2.json") == 1
        assert "error" in capsys.readouterr().err

    def test_predictions_without_score_exit_1(self, corpus, capsys):
        gt = corpus / "annotations.json"
        assert run("eval", gt, gt) == 1
        assert "score" in capsys.readouterr().err

    def test_half_overlap_fixture(self, tmp_path, capsys):
        gt_doc = {
            "images": [{"id": 1, "width": 64, "height": 64, "file_name": "x.pgm"}],
            "annotations": [{
                "id": 1, "image_id": 1, "category_id": 1,
                "segmentation": [[8, 8, 24, 8, 24, 24, 8, 24]],
                "bbox": [8, 8, 16, 16], "area": 256.0,
            }],
            "categories": [{"id": 1, "name": "building"}],
        }
        pred_doc = json.loads(json.dumps(gt_doc))
        pred_doc["annotations"][0]["segmentation"] = [[16, 8, 32, 8, 32, 24, 16, 24]]
        pred_doc["annotations"][0]["score"] = 0.8
        gt = tmp_path / "gt.json"
        pred = tmp_path / "pred.json"
        gt.write_text(json.dumps(gt_doc))
        pred.write_text(json.dumps(pred_doc))
        assert run("eval", gt, pred) == 0
        payload = json.loads(capsys.readouterr().out)
        # Half-overlapping squares: IoU 1/3 < 0.5, so nothing matches.
        assert payload["ap"] == 0.0
        assert payload["n_ratio"] is None
        # Lowering the pairing threshold matches the pair: C-IoU = IoU = 1/3
        # (equal vertex counts).  The tangent correspondence anchors at a GT
        # corner touching the prediction mid-edge, a quarter-turn phase.
        assert run("eval", gt, pred, "--match-iou", 0.25) == 0
        relaxed = json.loads(capsys.readouterr().out)
        assert relaxed["n_ratio"] == 1.0
        assert abs(relaxed["c_iou"] - 1 / 3) <= 0.02
        assert abs(relaxed["mta"] - math.pi / 2) <= 0.05

    @pytest.mark.parametrize("matching", ["no_match", "match"])
    def test_samples_below_floor_exit_1(self, corpus, tmp_path, capsys, matching):
        gt = corpus / "annotations.json"
        doc = json.loads(make_pred_file(tmp_path, gt).read_text())
        if matching == "no_match":
            # Far outside every image: nothing matches, so MTA never runs.
            for a in doc["annotations"]:
                a["segmentation"] = [[500, 500, 510, 500, 510, 510, 500, 510]]
        pred = tmp_path / "shifted.json"
        pred.write_text(json.dumps(doc))
        assert run("eval", gt, pred, "--samples", 0) == 1
        assert "samples must be at least 8, got 0" in capsys.readouterr().err
        assert run("eval", gt, pred, "--samples", 8) == 0

    def test_multi_ring_segmentation_exit_1(self, corpus, tmp_path, capsys):
        gt = corpus / "annotations.json"
        doc = json.loads(make_pred_file(tmp_path, gt).read_text())
        first = doc["annotations"][0]
        first["segmentation"].append([0, 0, 4, 0, 4, 4, 0, 4])
        pred = tmp_path / "two_rings.json"
        pred.write_text(json.dumps(doc))
        assert run("eval", gt, pred) == 1
        assert f"annotation {first['id']}: segmentation has 2 rings" in capsys.readouterr().err
        assert run("simplify", pred, "--epsilon", 1.0) == 1
        assert "segmentation has 2 rings" in capsys.readouterr().err

    def test_coordinate_too_large_for_a_float_exit_1(self, corpus, tmp_path, capsys):
        gt = corpus / "annotations.json"
        doc = json.loads(make_pred_file(tmp_path, gt).read_text())
        first = doc["annotations"][0]
        first["segmentation"][0][0] = 10 ** 400
        pred = tmp_path / "huge.json"
        pred.write_text(json.dumps(doc))
        assert run("eval", gt, pred) == 1
        err = capsys.readouterr().err
        assert f"error: annotation {first['id']}: bad segmentation (" in err
        assert "Traceback" not in err

    def test_deterministic_output_bytes(self, corpus, tmp_path):
        gt = corpus / "annotations.json"
        pred = make_pred_file(tmp_path, gt)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert run("eval", gt, pred, "--out", out1) == 0
        assert run("eval", gt, pred, "--out", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestSelftest:
    def test_passes_and_reports(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run("selftest", "--out", out) == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert len(payload["checks"]) >= 20
        assert all("name" in c and "passed" in c for c in payload["checks"])

    @pytest.mark.parametrize("op", ["sigmoid", "roi_align", "batch_norm", "conv2d_3x3", "conv_bn_relu"])
    def test_corrupted_gradient_detected(self, tmp_path, capsys, op):
        out = tmp_path / "report.json"
        assert run("selftest", "--out", out, "--corrupt-gradient", op) == 2
        payload = json.loads(out.read_text())
        failing = [c["name"] for c in payload["checks"] if not c["passed"]]
        assert f"gradients_{op}" in failing
        assert f"gradients_{op}" in capsys.readouterr().err


class TestSimplify:
    def test_epsilon_zero_identity(self, corpus, tmp_path, capsys):
        gt = corpus / "annotations.json"
        assert run("simplify", gt, "--epsilon", 0) == 0
        out = json.loads(capsys.readouterr().out)
        original = json.loads(gt.read_text())
        got = [a["segmentation"] for a in out["annotations"]]
        want = [a["segmentation"] for a in original["annotations"]]
        assert got == want

    def test_removes_redundant_vertices(self, tmp_path, capsys):
        doc = {
            "images": [{"id": 1, "width": 64, "height": 64, "file_name": "x.pgm"}],
            "annotations": [{
                "id": 1, "image_id": 1, "category_id": 1,
                "segmentation": [[8, 8, 16, 8, 24, 8, 24, 24, 8, 24]],
                "bbox": [8, 8, 16, 16], "area": 256.0,
            }],
            "categories": [],
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert run("simplify", path, "--epsilon", 0.5) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["annotations"][0]["segmentation"][0]) == 8


class TestPolygonize:
    def test_traces_square(self, tmp_path, capsys):
        poly = Polygon.from_points([(10, 12), (40, 12), (40, 44), (10, 44)])
        mask = rasterize(poly, 64, 64)
        img = (mask * 255).astype(np.uint8)
        path = tmp_path / "mask.pgm"
        write_pgm(path, img)
        assert run("polygonize", path) == 0
        out = parse_coco(capsys.readouterr().out)
        assert len(out.annotations) == 1
        traced = Polygon.from_flat(out.annotations[0]["segmentation"][0])
        again = rasterize(traced, 64, 64)
        assert mask_iou(mask, again) >= 0.95

    def test_directory_input_and_epsilon(self, tmp_path, capsys):
        d = tmp_path / "masks"
        d.mkdir()
        poly = Polygon.from_points([(8, 8), (30, 8), (30, 30), (8, 30)])
        write_pgm(d / "m1.pgm", (rasterize(poly, 48, 48) * 255).astype(np.uint8))
        assert run("polygonize", d, "--epsilon", 1.0) == 0
        out = parse_coco(capsys.readouterr().out)
        assert len(out.annotations) == 1
        assert len(out.annotations[0]["segmentation"][0]) == 8  # simplified to 4 corners

    def test_missing_mask_exit_1(self, tmp_path, capsys):
        assert run("polygonize", tmp_path / "ghost.pgm") == 1


class TestTrainToy:
    def test_artifacts_and_determinism(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        assert run("gen-synth", "--out-dir", corpus, "--images", 4, "--seed", 5,
                   "--size", 32, "--max-shapes", 1, "--families", "rect") == 0
        capsys.readouterr()
        args = [
            "train-toy", "--corpus", corpus, "--epochs", 1, "--batch-size", 4,
            "--grid", 8, "--channels", 16, "--decoder-blocks", 1, "--queries", 6,
            "--seed", 0,
        ]
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert run(*args, "--out-dir", out1) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["steps"] == 1
        assert (out1 / "checkpoint.pmck").exists()
        assert (out1 / "loss_curve.csv").read_text().startswith("step,total,sv,")
        assert run(*args, "--out-dir", out2) == 0
        assert (out1 / "checkpoint.pmck").read_bytes() == (out2 / "checkpoint.pmck").read_bytes()
        assert (out1 / "loss_curve.csv").read_bytes() == (out2 / "loss_curve.csv").read_bytes()

    def test_eval_corpus_path(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        assert run("gen-synth", "--out-dir", corpus, "--images", 4, "--seed", 5,
                   "--size", 32, "--max-shapes", 1, "--families", "rect") == 0
        held = tmp_path / "e"
        assert run("gen-synth", "--out-dir", held, "--images", 3, "--seed", 6, "--size", 32,
                   "--min-shapes", 2, "--max-shapes", 2, "--families", "rect") == 0
        capsys.readouterr()
        out = tmp_path / "run"
        # Enough training that the held-out polygons decode and the report is not all zeros.
        assert run(
            "train-toy", "--corpus", corpus, "--eval-corpus", held,
            "--out-dir", out, "--epochs", 20, "--batch-size", 4, "--lr", 0.01,
            "--grid", 8, "--channels", 16, "--decoder-blocks", 1, "--queries", 6,
        ) == 0
        summary = json.loads(capsys.readouterr().out)

        # The same run in process, evaluated through predict_corpus.
        cfg = PolygonHeadConfig(grid_size=8, channels=16, heads=4, decoder_blocks=1, queries=6)
        store, _ = train_toy(corpus_samples(*load_corpus(corpus), cfg), cfg,
                             seed=0, epochs=20, batch_size=4, lr=0.01)
        doc, rasters = load_corpus(held)
        samples = corpus_samples(doc, rasters, cfg)
        report = evaluate_instances(*predict_corpus(store, cfg, doc, samples)).as_dict()
        assert report["ap50"] > 0.0
        assert (out / "eval.json").read_text() == json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert summary["eval"] == report
        assert summary["held_out_sv"] == held_out_sv_loss(store, cfg, samples)

    def test_empty_eval_corpus_exit_1_before_training(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        assert run("gen-synth", "--out-dir", corpus, "--images", 4, "--seed", 5,
                   "--size", 32, "--max-shapes", 1, "--families", "rect") == 0
        empty = tmp_path / "empty"
        shutil.copytree(corpus, empty)
        doc = json.loads((empty / "annotations.json").read_text())
        doc["annotations"] = []
        (empty / "annotations.json").write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "run"
        assert run(
            "train-toy", "--corpus", corpus, "--eval-corpus", empty,
            "--out-dir", out, "--epochs", 1, "--batch-size", 4,
            "--grid", 8, "--channels", 16, "--decoder-blocks", 1, "--queries", 6,
        ) == 1
        err = capsys.readouterr().err
        assert str(empty) in err and "no annotations" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--corpus", "--eval-corpus"])
    def test_mixed_image_sizes_exit_1_before_training(self, tmp_path, capsys, flag):
        corpus = tmp_path / "c"
        assert run("gen-synth", "--out-dir", corpus, "--images", 3, "--seed", 5,
                   "--size", 64, "--max-shapes", 1, "--families", "rect") == 0
        mixed = tmp_path / "mixed"
        shutil.copytree(corpus, mixed)
        odd = sorted((mixed / "images").glob("*.pgm"))[1]
        write_pgm(odd, np.zeros((48, 48), dtype=np.uint8))
        capsys.readouterr()
        out = tmp_path / "run"
        corpora = {"--corpus": corpus, "--eval-corpus": corpus, flag: mixed}
        assert run(
            "train-toy", "--corpus", corpora["--corpus"],
            "--eval-corpus", corpora["--eval-corpus"],
            "--out-dir", out, "--epochs", 1, "--batch-size", 4,
            "--grid", 8, "--channels", 16, "--decoder-blocks", 1, "--queries", 6,
        ) == 1
        err = capsys.readouterr().err
        assert str(mixed) in err and odd.name in err and "48x48" in err
        assert not out.exists()


class TestVersionAndErrors:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit):
            run("frobnicate")
