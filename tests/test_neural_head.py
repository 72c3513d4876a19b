import json

import numpy as np
import pytest

from polymap.neural.checkpoint import load_checkpoint, save_checkpoint
from polymap.neural.head import (
    ENCODER_VARIANTS,
    PolygonHeadConfig,
    decoder_forward,
    encoder_forward,
    init_model,
    vertex_dist_tensor,
)
from polymap.neural.layers import multi_head_attention, sinusoidal_encoding
from polymap.neural.params import ParamStore
from polymap.neural.tensor import Tensor, layer_norm, add
from polymap.neural.layers import ffn as ffn_layer


def tiny_cfg(variant="hierarchical"):
    return PolygonHeadConfig(
        grid_size=8, channels=16, heads=4, decoder_blocks=2, queries=6,
        encoder_variant=variant,
    )


class TestConfig:
    def test_default_is_paper_faithful(self):
        cfg = PolygonHeadConfig()
        assert (cfg.grid_size, cfg.channels, cfg.heads, cfg.decoder_blocks, cfg.queries) == (
            20, 256, 4, 8, 30,
        )
        assert cfg.hidden == 512
        assert cfg.encoder_variant == "hierarchical"

    def test_validation(self):
        with pytest.raises(ValueError):
            PolygonHeadConfig(channels=30, heads=4)
        with pytest.raises(ValueError):
            PolygonHeadConfig(grid_size=2)
        with pytest.raises(ValueError):
            PolygonHeadConfig(queries=2)
        with pytest.raises(ValueError, match="variant"):
            PolygonHeadConfig(encoder_variant="bogus")

    def test_desk_preset(self):
        cfg = PolygonHeadConfig.desk()
        assert cfg.channels == 32 and cfg.queries == 12


class TestEncoder:
    @pytest.mark.parametrize("variant", ENCODER_VARIANTS)
    def test_output_contract_all_variants(self, variant):
        cfg = tiny_cfg(variant)
        store = init_model(cfg, seed=0)
        rng = np.random.RandomState(0)
        single = Tensor(rng.randn(16, 8, 8))
        out, vmap, emap = encoder_forward(single, cfg, store)
        assert out.shape == (64, 16)
        assert np.isfinite(out.data).all()
        batched = Tensor(rng.randn(3, 16, 8, 8))
        out_b, _, _ = encoder_forward(batched, cfg, store)
        assert out_b.shape == (3, 64, 16)

    def test_none_variant_is_flatten(self):
        cfg = tiny_cfg("none")
        store = init_model(cfg, seed=0)
        x = np.random.RandomState(1).randn(16, 8, 8)
        out, vmap, emap = encoder_forward(Tensor(x), cfg, store)
        assert vmap is None and emap is None
        assert np.array_equal(out.data, x.reshape(16, 64).T)

    def test_zero_input_gives_half_weight_maps(self):
        cfg = tiny_cfg("hierarchical")
        store = init_model(cfg, seed=0)
        zero = Tensor(np.zeros((16, 8, 8)))
        _, vmap, emap = encoder_forward(zero, cfg, store, training=False)
        assert np.allclose(vmap.data, 0.5)
        assert np.allclose(emap.data, 0.5)
        # The multiplicative attention of a zero feature map is zero.
        assert np.allclose(zero.data * vmap.data, 0.0)

    def test_map_variants_expose_expected_maps(self):
        for variant, has_v, has_e in (
            ("vertex_wise", True, False),
            ("edge_wise", False, True),
            ("vertex_edge_enhanced", True, True),
            ("original", False, False),
        ):
            cfg = tiny_cfg(variant)
            store = init_model(cfg, seed=0)
            _, vmap, emap = encoder_forward(Tensor(np.random.RandomState(2).randn(16, 8, 8)), cfg, store)
            assert (vmap is not None) == has_v
            assert (emap is not None) == has_e


class TestDecoder:
    def test_shape_and_finiteness(self):
        cfg = tiny_cfg()
        store = init_model(cfg, seed=0)
        b_emd = Tensor(np.random.RandomState(3).randn(64, 16))
        out = decoder_forward(b_emd, cfg, store)
        assert out.shape == (6, 16)
        assert np.isfinite(out.data).all()

    def test_deterministic(self):
        cfg = tiny_cfg()
        store = init_model(cfg, seed=0)
        b_emd = Tensor(np.random.RandomState(4).randn(64, 16))
        a = decoder_forward(b_emd, cfg, store).data
        b = decoder_forward(b_emd, cfg, store).data
        assert np.array_equal(a, b)

    def test_zeroed_attention_reduces_to_ffn_chain(self):
        # With both attention output projections zeroed, each block is
        # LN1(x) then LN2(x) then LN3(x + FFN(x)); verify against a
        # hand-built reduced graph sharing the same parameters.
        cfg = tiny_cfg()
        store = init_model(cfg, seed=5)
        for i in range(cfg.decoder_blocks):
            store[f"dec.block{i}.self.wo.w"].data[:] = 0.0
            store[f"dec.block{i}.cross.wo.w"].data[:] = 0.0
        b_emd = Tensor(np.random.RandomState(6).randn(64, 16))
        got = decoder_forward(b_emd, cfg, store).data

        x = add(Tensor(store["dec.query"].data),
                Tensor(sinusoidal_encoding(cfg.queries, cfg.channels)))
        for i in range(cfg.decoder_blocks):
            p = f"dec.block{i}"
            x = layer_norm(x, store[f"{p}.ln1.gamma"], store[f"{p}.ln1.beta"])
            x = layer_norm(x, store[f"{p}.ln2.gamma"], store[f"{p}.ln2.beta"])
            x = layer_norm(add(x, ffn_layer(x, store, f"{p}.ffn")),
                           store[f"{p}.ln3.gamma"], store[f"{p}.ln3.beta"])
        assert np.allclose(got, x.data, atol=1e-12)

    def test_attention_weight_rows_sum_to_one_per_head(self):
        cfg = tiny_cfg()
        store = init_model(cfg, seed=0)
        q = Tensor(np.random.RandomState(7).randn(1, 6, 16))
        _, attn = multi_head_attention(q, q, q, store, "dec.block0.self", cfg.heads,
                                       return_weights=True)
        assert attn.shape == (1, 4, 6, 6)
        assert np.allclose(attn.data.sum(axis=-1), 1.0, atol=1e-12)


class TestPredict:
    def test_rows_sum_to_one(self):
        cfg = tiny_cfg()
        store = init_model(cfg, seed=0)
        v = Tensor(np.random.RandomState(8).randn(2, 6, 16))
        dists = vertex_dist_tensor(v, store).data
        assert dists.shape == (2, 6, 8 * 8 + 1)
        assert np.allclose(dists.sum(axis=2), 1.0, atol=1e-12)

    def test_zero_logits_uniform(self):
        cfg = tiny_cfg()
        store = init_model(cfg, seed=0)
        store["out.w"].data[:] = 0.0
        store["out.b"].data[:] = 0.0
        v = Tensor(np.random.RandomState(9).randn(6, 16))
        assert np.allclose(vertex_dist_tensor(v, store).data, 1.0 / 65, atol=1e-15)

    def test_tensor_path_matches(self):
        cfg = tiny_cfg()
        store = init_model(cfg, seed=0)
        v = np.random.RandomState(10).randn(6, 16)
        logits = v @ store["out.w"].data + store["out.b"].data
        want = np.exp(logits - logits.max(axis=1, keepdims=True))
        want /= want.sum(axis=1, keepdims=True)
        got = vertex_dist_tensor(Tensor(v), store).data
        assert np.allclose(got, want, rtol=1e-12, atol=1e-15)


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        cfg = tiny_cfg()
        store = init_model(cfg, seed=11, detection=True)
        store.step = 17
        store.moment1["out.w"][:] = np.random.RandomState(12).randn(*store.moment1["out.w"].shape)
        store.buffers["stem.0.bn.running_mean"][:] = 0.25
        path = tmp_path / "model.pmck"
        save_checkpoint(path, cfg, store)
        cfg2, store2 = load_checkpoint(path)
        assert cfg2 == cfg
        assert store2.step == 17
        assert set(store2.params) == set(store.params)
        for name, t in store.params.items():
            assert np.array_equal(t.data, store2.params[name].data), name
        for name, arr in store.buffers.items():
            assert np.array_equal(arr, store2.buffers[name]), name
        for name, arr in store.moment1.items():
            assert np.array_equal(arr, store2.moment1[name]), name
        save_checkpoint(tmp_path / "again.pmck", cfg2, store2)
        assert (tmp_path / "model.pmck").read_bytes() == (tmp_path / "again.pmck").read_bytes()

    def test_rejects_other_files(self, tmp_path):
        bad = tmp_path / "bad.pmck"
        bad.write_bytes(b'{"format":"something-else"}\n')
        with pytest.raises(ValueError, match="polymap-checkpoint"):
            load_checkpoint(bad)

    @staticmethod
    def saved(tmp_path):
        """A checkpoint's header and data; the last manifest entry is moment2 'out.b'."""
        cfg = tiny_cfg()
        path = tmp_path / "model.pmck"
        save_checkpoint(path, cfg, init_model(cfg, seed=3))
        header, data = path.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        assert header["manifest"][-1]["name"] == "out.b"
        return path, header, data

    @staticmethod
    def write(path, header, data):
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + data)

    def test_entry_past_the_end_names_it(self, tmp_path):
        path, header, data = self.saved(tmp_path)
        header["manifest"][-1]["shape"][0] += 1
        self.write(path, header, data)
        with pytest.raises(ValueError, match=rf"{path}: moment2 'out\.b' needs bytes .* "
                                             rf"but the data holds {len(data)}"):
            load_checkpoint(path)

    def test_entry_off_its_place_names_it(self, tmp_path):
        path, header, data = self.saved(tmp_path)
        entry = header["manifest"][1]
        entry["offset"] += 8
        self.write(path, header, data)
        with pytest.raises(ValueError, match=rf"{path}: param '{entry['name']}' starts at byte"):
            load_checkpoint(path)

    def test_truncated_file_names_the_entry(self, tmp_path):
        path, header, data = self.saved(tmp_path)
        self.write(path, header, data[:-3])
        with pytest.raises(ValueError, match=rf"{path}: moment2 'out\.b' needs bytes"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path, header, data = self.saved(tmp_path)
        self.write(path, header, data + bytes(8))
        with pytest.raises(ValueError, match=rf"{path}: 8 bytes follow the last entry "
                                             rf"\(moment2 'out\.b'\)"):
            load_checkpoint(path)

    def test_entry_the_model_lacks_names_it(self, tmp_path):
        # The layout from before attention keys lost their bias.
        cfg = tiny_cfg()
        store = init_model(cfg, seed=3)
        store.add_param("dec.block0.self.wk.b", np.zeros(cfg.channels))
        path = tmp_path / "model.pmck"
        save_checkpoint(path, cfg, store)
        with pytest.raises(ValueError, match=rf"{path}: param 'dec\.block0\.self\.wk\.b' "
                                             rf"is not in the model"):
            load_checkpoint(path)

    def test_model_entry_missing_from_the_file_names_it(self, tmp_path):
        path, header, data = self.saved(tmp_path)
        last = header["manifest"].pop()
        self.write(path, header, data[:last["offset"]])
        with pytest.raises(ValueError, match=rf"{path}: the model's moment2 'out\.b' "
                                             rf"is missing from the file"):
            load_checkpoint(path)

    def test_shape_mismatch_names_the_entry(self, tmp_path):
        path, header, data = self.saved(tmp_path)
        entry = next(e for e in header["manifest"] if e["name"] == "dec.query")
        assert entry["kind"] == "param" and entry["shape"] == [6, 16]
        entry["shape"] = [16, 6]
        self.write(path, header, data)
        with pytest.raises(ValueError, match=rf"{path}: param 'dec\.query' has shape \(16, 6\), "
                                             rf"the model's is \(6, 16\)"):
            load_checkpoint(path)

    def test_entry_twice_names_it(self, tmp_path):
        path, header, data = self.saved(tmp_path)
        again = dict(header["manifest"][-1], offset=len(data))
        header["manifest"].append(again)
        self.write(path, header, data + data[header["manifest"][-2]["offset"]:])
        with pytest.raises(ValueError, match=rf"{path}: moment2 'out\.b' appears twice"):
            load_checkpoint(path)

    def test_float32_trained_store_round_trips_as_float64(self, tmp_path):
        from polymap.neural.training import build_sample, train_step_detailed
        from polymap.geometry import Polygon, rasterize

        cfg = tiny_cfg()
        poly = Polygon.from_points([(3, 2), (13, 2), (13, 11), (3, 11)])
        sample = build_sample(rasterize(poly, 16, 16) * 255.0, poly, cfg)
        store = init_model(cfg, seed=4, detection=True)
        rng = np.random.RandomState(0)
        for _ in range(3):
            train_step_detailed([sample, sample], store, cfg, lr=1e-3, detection_rng=rng)
        first, second = tmp_path / "a.pmck", tmp_path / "b.pmck"
        save_checkpoint(first, cfg, store)
        cfg2, store2 = load_checkpoint(first)
        save_checkpoint(second, cfg2, store2)
        assert first.read_bytes() == second.read_bytes()
        header, data = first.read_bytes().split(b"\n", 1)
        count = sum(int(np.prod(e["shape"])) for e in json.loads(header)["manifest"])
        assert len(data) == 8 * count
        assert store2.step == 3
        for name, t in store2.params.items():
            assert t.data.dtype == np.float64
            assert t.data.tobytes() == store.params[name].data.tobytes(), name


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add_param("w", np.zeros(3))
        with pytest.raises(ValueError):
            store.add_param("w", np.zeros(3))

    def test_adamw_zero_lr_keeps_params(self):
        store = ParamStore()
        t = store.add_param("w", np.ones(4))
        t.grad = np.full(4, 0.5)
        before = t.data.copy()
        store.adamw_step(lr=0.0, weight_decay=1e-4)
        assert np.array_equal(t.data, before)

    def test_adamw_moves_against_gradient(self):
        store = ParamStore()
        t = store.add_param("w", np.ones(4))
        t.grad = np.full(4, 0.5)
        store.adamw_step(lr=0.01)
        assert (t.data < 1.0).all()
