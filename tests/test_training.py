import importlib
import re
import runpy
import warnings
from pathlib import Path

import numpy as np
import pytest

from polymap.geometry import BBox, Polygon, rasterize
from polymap.neural import tensor, training
from polymap.neural.head import ENCODER_VARIANTS, PolygonHeadConfig, init_model
from polymap.neural.tensor import Tensor
from polymap.neural.training import (
    _sample_proposals,
    build_sample,
    compute_losses,
    corpus_samples,
    decode_prediction,
    held_out_sv_loss,
    predict_batch,
    predict_corpus,
    train_step_detailed,
    train_toy,
)
from polymap.polyloss import LossWeights, no_vertex_index
from polymap.selftest import naive_conv_bn_relu

warnings.filterwarnings("ignore", message="batch_norm training")

# The params whose gradient is analytically zero: the bias of a conv that
# feeds batch norm, which subtracts each channel's batch mean.
PRE_BN_CONV_BIAS = re.compile(r"^(stem|enc\.wstem)\.\d+\.conv\.b$")


def tiny_cfg(**overrides):
    base = dict(grid_size=8, channels=16, heads=4, decoder_blocks=1, queries=6)
    base.update(overrides)
    return PolygonHeadConfig(**base)


def square_sample(cfg, size=16, x0=3, y0=2, w=10, h=9):
    poly = Polygon.from_points([(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)])
    image = rasterize(poly, size, size) * 255.0
    return build_sample(image, poly, cfg)


def small_corpus(cfg):
    """Four 32-pixel images with 7 rectangles; returns the document and its samples."""
    from polymap.dataio import SynthSpec, gen_synthetic

    doc, rasters = gen_synthetic(
        SynthSpec(n_images=4, seed=9, image_size=32, families=("rect",), max_shapes=2)
    )
    return doc, corpus_samples(doc, rasters, cfg)


def capture_dists(monkeypatch):
    """The distributions of every `forward_batch` call from now on, in order."""
    dists = []
    inner = training.forward_batch

    def capture(*args, **kwargs):
        out = inner(*args, **kwargs)
        dists.append(out[0].data)
        return out

    monkeypatch.setattr(training, "forward_batch", capture)
    return dists


class TestBuildSample:
    def test_fields(self):
        cfg = tiny_cfg()
        s = square_sample(cfg)
        assert s.image.shape == (1, 16, 16)
        assert s.image.max() <= 1.0
        assert s.tokens.valid_count == 4
        assert s.vertex_target.shape == (8, 8)
        assert s.vertex_target.sum() >= 3
        assert s.edge_target.sum() >= s.vertex_target.sum()

    def test_shared_image_objects_in_corpus(self):
        from polymap.dataio import SynthSpec, gen_synthetic

        doc, rasters = gen_synthetic(SynthSpec(n_images=4, seed=5, min_shapes=2, max_shapes=3))
        cfg = tiny_cfg(grid_size=8)
        samples = corpus_samples(doc, rasters, cfg)
        by_image = {}
        for a, s in zip(doc.annotations, samples):
            by_image.setdefault(a["image_id"], []).append(s)
        for group in by_image.values():
            assert all(s.image is group[0].image for s in group)


class TestTrainStep:
    def test_zero_lr_keeps_parameters(self):
        cfg = tiny_cfg()
        store = init_model(cfg, seed=0)
        sample = square_sample(cfg)
        before = {k: t.data.copy() for k, t in store.params.items()}
        train_step_detailed([sample], store, cfg, lr=0.0, weight_decay=1e-4)
        for k, t in store.params.items():
            assert np.array_equal(t.data, before[k]), k

    def test_descent_on_first_step(self):
        cfg = tiny_cfg()
        sample = square_sample(cfg)
        wins = 0
        for seed in range(10):
            store = init_model(cfg, seed=seed)
            first = train_step_detailed([sample], store, cfg, lr=1e-3)
            second = train_step_detailed([sample], store, cfg, lr=1e-3)
            if second.total < first.total:
                wins += 1
        assert wins >= 9

    def test_empty_batch_rejected(self):
        cfg = tiny_cfg()
        store = init_model(cfg, seed=0)
        with pytest.raises(ValueError):
            train_step_detailed([], store, cfg, lr=1e-3)

    def test_non_finite_loss_aborts_step(self):
        cfg = tiny_cfg()
        store = init_model(cfg, seed=0)
        store["out.w"].data[0, 0] = float("nan")
        with pytest.raises(FloatingPointError, match="non-finite"):
            train_step_detailed([square_sample(cfg)], store, cfg, lr=1e-3)

    def test_detection_branch_adds_losses(self):
        cfg = tiny_cfg()
        store = init_model(cfg, seed=0, detection=True)
        sample = square_sample(cfg)
        b = train_step_detailed(
            [sample], store, cfg, lr=1e-3, detection_rng=np.random.RandomState(0)
        )
        assert b.cls > 0.0
        assert b.bbox > 0.0
        assert b.total >= b.sv

    @pytest.mark.parametrize("lambdas", [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (10.0, 0.5, 0.01)],
                             ids=["zeros", "unit_weights", "weighted"])
    def test_total_is_weighted_sum_of_terms(self, lambdas):
        cfg = tiny_cfg()
        store = init_model(cfg, seed=0, detection=True)
        w = LossWeights(lambda_cls=lambdas[0], lambda_bbox=lambdas[1], lambda_poly=lambdas[2])
        _, b = compute_losses(store, cfg, [square_sample(cfg)], weights=w,
                              detection_rng=np.random.RandomState(0))
        assert min(b.sv, b.ver, b.edge, b.cls, b.bbox) > 0.0
        want = (w.lambda_poly * (b.sv + b.ver + b.edge)
                + w.lambda_cls * b.cls + w.lambda_bbox * b.bbox)
        assert b.total == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_detection_branch_on_non_square_image(self):
        # 96 wide, 24 high: proposals and box targets follow each axis.
        cfg = tiny_cfg()
        poly = Polygon.from_points([(60, 5), (80, 5), (80, 19), (60, 19)])
        sample = build_sample(rasterize(poly, 96, 24) * 255.0, poly, cfg)
        assert sample.image.shape == (1, 24, 96)
        rng = np.random.RandomState(0)
        for _ in range(40):
            rois, labels, _ = _sample_proposals([sample], [0], rng)
            (_, neg), = [r for r, label in zip(rois, labels) if label == 0]
            x0, y0, x1, y1 = neg.corners()
            assert 0.0 <= x0 and x1 <= 96.0 and 0.0 <= y0 and y1 <= 24.0
        store = init_model(cfg, seed=0, detection=True)
        rng = np.random.RandomState(1)
        for _ in range(40):
            b = train_step_detailed([sample], store, cfg, lr=1e-3, detection_rng=rng)
            assert np.isfinite(b.bbox) and b.bbox > 0.0
        # A box head that outputs (cx/W, cy/H, w/W, h/H) has zero box loss.
        store["det.bbox.w"].data[:] = 0.0
        store["det.bbox.b"].data[:] = (70 / 96, 12 / 24, 20 / 96, 14 / 24)
        _, b = compute_losses(store, cfg, [sample], detection_rng=rng)
        assert b.bbox == pytest.approx(0.0, abs=1e-12)


class TestOverfitAndDecode:
    def test_single_sample_overfits_and_decodes(self):
        # Spec-pinned desk scale: d=32, G=20, M=12 drives the loss below
        # 0.05 within 500 steps; argmax decoding then reproduces the GT
        # token sequence on the training crop.
        cfg = PolygonHeadConfig.desk(grid_size=20)
        store = init_model(cfg, seed=0)
        poly = Polygon.from_points([(12, 10), (50, 10), (50, 44), (12, 44)])
        image = rasterize(poly, 64, 64) * 255.0
        sample = build_sample(image, poly, cfg)
        reached = None
        for step in range(500):
            loss = train_step_detailed([sample], store, cfg, lr=1e-3).total
            if loss < 0.05:
                reached = step + 1
                break
        assert reached is not None, f"loss still {loss} after 500 steps"

        from polymap.neural.training import forward_batch
        from polymap.polyloss import PredDistSeq, exhaustive_alignment_loss

        dists, _, _, _, _ = forward_batch(store, cfg, [sample], training=False)
        args = np.argmax(dists.data[0], axis=1)
        # The objective is traversal-invariant, so the learned sequence may
        # be any rotation/reflection of the GT tokens; assert equality up to
        # that equivalence via the exhaustive alignment.
        one_hot = np.zeros_like(dists.data[0])
        one_hot[np.arange(len(args)), args] = 1.0
        assert exhaustive_alignment_loss(sample.tokens, PredDistSeq(one_hot)) < 1e-6

    def test_decode_prediction_from_tokens(self):
        grid = 8
        box = BBox.from_xywh(8, 8, 16, 16)
        tokens = [0, 7, 63, 56]
        rows = np.zeros((6, grid * grid + 1))
        for i, t in enumerate(tokens):
            rows[i, t] = 1.0
        rows[4:, no_vertex_index(grid)] = 1.0
        poly, score = decode_prediction(rows, box, grid)
        assert score == 1.0
        assert poly.vertices.tolist() == [[9, 9], [23, 9], [23, 23], [9, 23]]

    def test_decode_too_few_cells(self):
        grid = 8
        rows = np.zeros((4, grid * grid + 1))
        rows[:, no_vertex_index(grid)] = 1.0
        poly, _ = decode_prediction(rows, BBox.from_xywh(0, 0, 8, 8), grid)
        assert poly is None

    def test_decode_skips_no_vertex_rows(self):
        grid = 8
        rows = np.zeros((6, grid * grid + 1))
        for i, t in enumerate([0, 7, 63]):
            rows[i, t] = 1.0
        rows[3, no_vertex_index(grid)] = 1.0
        rows[4, 56] = 1.0  # vertex-classified query after a gap still counts
        rows[5, no_vertex_index(grid)] = 1.0
        poly, _ = decode_prediction(rows, BBox.from_xywh(0, 0, 8, 8), grid)
        assert poly is not None and len(poly) == 4


class TestToyLoop:
    def test_bit_reproducible_runs(self):
        from polymap.dataio import SynthSpec, gen_synthetic

        doc, rasters = gen_synthetic(
            SynthSpec(n_images=6, seed=3, image_size=32, families=("rect",), max_shapes=2)
        )
        cfg = tiny_cfg(grid_size=8)
        samples = corpus_samples(doc, rasters, cfg)
        store1, hist1 = train_toy(samples, cfg, seed=4, epochs=1, batch_size=4, lr=1e-3)
        store2, hist2 = train_toy(samples, cfg, seed=4, epochs=1, batch_size=4, lr=1e-3)
        assert [b.total for b in hist1.steps] == [b.total for b in hist2.steps]
        for name, t in store1.params.items():
            assert np.array_equal(t.data, store2.params[name].data), name

    def test_held_out_and_predict_paths(self):
        cfg = tiny_cfg(grid_size=8)
        doc, samples = small_corpus(cfg)
        store, _ = train_toy(samples, cfg, seed=0, epochs=1, batch_size=4, lr=1e-3)
        value = held_out_sv_loss(store, cfg, samples)
        assert np.isfinite(value) and value > 0
        results = predict_batch(store, cfg, samples)
        assert len(results) == len(samples)
        for poly, score in results:
            assert 0.0 <= score <= 1.0
        with pytest.raises(ValueError, match="samples for"):
            predict_corpus(store, cfg, doc, samples[:-1])


class TestFusedStemBlock:
    def test_training_is_bit_identical_to_the_three_ops(self, monkeypatch):
        """The fused conv-BN-ReLU node trains exactly as conv, batch norm and ReLU nodes."""
        cfg = tiny_cfg()
        _, samples = small_corpus(cfg)

        def run():
            # 7 samples in batches of 3: the last step has a batch of one.
            store, history = train_toy(samples, cfg, seed=0, epochs=1, batch_size=3,
                                       lr=1e-3, detection=True)
            groups = ({n: t.data for n, t in store.params.items()}, store.buffers,
                      store.moment1, store.moment2)
            return history.rows(), [{n: a.tobytes() for n, a in g.items()} for g in groups]

        fused = run()
        calls = []

        def oracle(*args):
            calls.append(args[-1])
            return naive_conv_bn_relu(*args)

        monkeypatch.setattr(tensor, "conv_bn_relu", oracle)
        unfused = run()
        assert len(samples) == 7 and calls and all(calls)
        assert fused[0] == unfused[0]
        assert fused[1] == unfused[1]


class TestBenchmarkHooks:
    """The benchmark patches these names from outside the package."""

    def test_trace_points_resolve(self):
        tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        for _, module, attr, cls, _ in runpy.run_path(str(tracing))["TRACE_POINTS"]:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            assert callable(getattr(owner, attr, None)), (module, cls, attr)

    def test_one_forward_per_step_and_chunk(self, monkeypatch):
        cfg = tiny_cfg()
        samples = [square_sample(cfg, x0=x) for x in range(1, 6)]
        store = init_model(cfg, seed=0)
        sizes = []
        inner = training.forward_batch

        def counting(*args, **kwargs):
            sizes.append(len(args[2]))
            return inner(*args, **kwargs)

        monkeypatch.setattr(training, "forward_batch", counting)
        train_step_detailed(samples[:3], store, cfg, lr=1e-3)
        assert sizes == [3]
        sizes.clear()
        predict_batch(store, cfg, samples, chunk_size=2)
        assert sizes == [2, 2, 1]
        sizes.clear()
        held_out_sv_loss(store, cfg, samples, batch_size=2)
        assert sizes == [2, 2, 1]


class TestGradientStructure:
    @pytest.mark.parametrize("variant", ENCODER_VARIANTS)
    def test_only_pre_bn_conv_biases_get_no_gradient(self, variant):
        cfg = tiny_cfg(encoder_variant=variant)
        batch = small_corpus(cfg)[1][:6]
        store = init_model(cfg, seed=0, detection=True)
        total, _ = compute_losses(store, cfg, batch, detection_rng=np.random.RandomState(5))
        total.backward()
        norms = {name: float(np.linalg.norm(t.grad)) for name, t in store.params.items()}
        floor = 1e-10 * np.sqrt(sum(n * n for n in norms.values()))
        vanishing = {name for name, n in norms.items() if n <= floor}
        assert vanishing == {name for name in store.params if PRE_BN_CONV_BIAS.match(name)}
        assert "stem.0.conv.b" in vanishing and "det.cls.w" in store


class TestFloat32Compute:
    """Training and inference compute in float32 on float64 master weights."""

    @staticmethod
    def record_nodes(monkeypatch):
        """(op, dtype, shape) of every tensor built from now on, in order."""
        records = []
        original = Tensor.__init__

        def recording(self, data, requires_grad=False, op="leaf"):
            original(self, data, requires_grad, op)
            records.append((op, self.data.dtype, self.data.shape))

        monkeypatch.setattr(Tensor, "__init__", recording)
        return records

    @staticmethod
    def assert_float32_until_cast(records, forwards):
        """Only the casts, the softmax after each and the scalar losses are float64."""
        assert sum(op == "cast" for op, _, _ in records) == forwards
        for i, (op, dtype, shape) in enumerate(records):
            wide = (op == "cast" or shape == ()
                    or (op == "softmax" and records[i - 1][0] == "cast"))
            assert dtype == (np.float64 if wide else np.float32), (i, op, dtype, shape)

    def test_no_float64_leaks_into_train_step(self, monkeypatch):
        cfg = tiny_cfg()
        _, samples = small_corpus(cfg)
        store = init_model(cfg, seed=0, detection=True)
        buffers = {name: arr.copy() for name, arr in store.buffers.items()}
        records = self.record_nodes(monkeypatch)
        b = train_step_detailed(samples[:4], store, cfg, lr=1e-3,
                                detection_rng=np.random.RandomState(0))
        monkeypatch.undo()
        for name, arr in store.buffers.items():  # running statistics of the masters moved
            assert not np.array_equal(arr, buffers[name]), name
        assert b.cls > 0.0 and b.ver > 0.0
        self.assert_float32_until_cast(records, forwards=1)
        assert {op for op, _, _ in records} >= {
            "conv_bn_relu", "roi_align", "layer_norm", "conv2d_1x1", "constant"}
        for name, t in store.params.items():
            assert t.data.dtype == np.float64 and t.grad.dtype == np.float64, name
        for group in (store.buffers, store.moment1, store.moment2):
            assert all(arr.dtype == np.float64 for arr in group.values())

    def test_no_float64_leaks_into_predict_batch(self, monkeypatch):
        cfg = tiny_cfg()
        _, samples = small_corpus(cfg)
        store = init_model(cfg, seed=0)
        dists = capture_dists(monkeypatch)
        records = self.record_nodes(monkeypatch)
        predict_batch(store, cfg, samples, chunk_size=4)
        monkeypatch.undo()
        self.assert_float32_until_cast(records, forwards=2)
        assert [d.dtype for d in dists] == [np.float64, np.float64]

    def test_float32_gradients_match_the_float64_oracle(self):
        cfg = tiny_cfg()
        batch = small_corpus(cfg)[1][:6]
        oracle = init_model(cfg, seed=0, detection=True)
        total, _ = compute_losses(oracle, cfg, batch, detection_rng=np.random.RandomState(5))
        total.backward()
        store = init_model(cfg, seed=0, detection=True)
        train_step_detailed(batch, store, cfg, lr=0.0, weight_decay=0.0,
                            detection_rng=np.random.RandomState(5))
        err2 = norm2 = 0.0
        checked = 0
        for name, t in store.params.items():
            if PRE_BN_CONV_BIAS.match(name):
                continue
            want = oracle[name].grad
            err = float(np.linalg.norm(t.grad - want))
            norm = float(np.linalg.norm(want))
            assert err <= 1e-4 * norm, (name, err / norm)
            err2 += err * err
            norm2 += norm * norm
            checked += 1
        assert checked > 40 and "det.cls.w" in store
        assert np.sqrt(err2 / norm2) <= 1e-5

    def test_chunked_predictions_equal_single_instance(self, monkeypatch):
        cfg = tiny_cfg()
        _, samples = small_corpus(cfg)
        store, _ = train_toy(samples, cfg, seed=0, epochs=1, batch_size=4, lr=1e-3)
        dists = capture_dists(monkeypatch)
        chunked = predict_batch(store, cfg, samples, chunk_size=4)
        alone = [predict_batch(store, cfg, [s])[0] for s in samples]
        rows = np.concatenate(dists)
        n = len(samples)
        for r in range(n):
            assert np.array_equal(rows[r], rows[n + r]), r
            (pa, sa), (pb, sb) = chunked[r], alone[r]
            assert sa == sb, r
            assert (pa is None) == (pb is None), r
            assert pa is None or pa.to_flat() == pb.to_flat(), r
