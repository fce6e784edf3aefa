import json
import math
import struct

import numpy as np
import pytest

from umod import data as dt
from umod import diffmath as dm
from umod import model as md
from umod import training as tr


def tiny_config(**overrides):
    kwargs = dict(n_entities=4, history=2, horizon=2, d_input=3, d_adaptive=5,
                  d_output=4, seed=1)
    kwargs.update(overrides)
    return md.ModelConfig(**kwargs)


class TestConfig:
    def test_hidden_width_concatenates_enabled_parts(self):
        assert tiny_config().d_hidden == 8
        assert tiny_config(use_input_embedding=False).d_hidden == 5
        assert tiny_config(use_adaptive_embedding=False).d_hidden == 3

    def test_default_dims_match_protocol(self):
        cfg = md.ModelConfig(n_entities=10, history=2, horizon=2)
        assert (cfg.d_input, cfg.d_adaptive) == (24, 80)
        assert cfg.d_hidden == 104
        assert cfg.d_output == 10
        assert cfg.spatial_hidden == 10

    def test_both_embeddings_disabled_rejected(self):
        with pytest.raises(dt.ConfigurationError):
            tiny_config(use_input_embedding=False, use_adaptive_embedding=False)

    def test_dict_roundtrip(self):
        cfg = tiny_config()
        assert md.ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestInit:
    def test_same_seed_bit_identical(self):
        a = md.init_params(tiny_config())
        b = md.init_params(tiny_config())
        for pa, pb in zip(a.all(), b.all()):
            assert pa.name == pb.name
            assert np.array_equal(pa.data, pb.data)

    def test_xavier_bound_for_big_fan(self):
        cfg = md.ModelConfig(n_entities=172, history=2, horizon=2, seed=3)
        params = md.init_params(cfg)
        w = params["W_in"].data
        bound = math.sqrt(6.0 / (172 + 24))
        assert abs(bound - 0.17496) < 5e-6
        assert np.abs(w).max() <= bound

    def test_biases_zero(self):
        params = md.init_params(tiny_config())
        for name in ("b_in", "b_s1", "b_s2", "b_out"):
            assert not params[name].data.any()

    def test_param_presence_tracks_ablations(self):
        full = md.init_params(tiny_config())
        assert "E_a" in full and "W_in" in full
        no_ea = md.init_params(tiny_config(use_adaptive_embedding=False))
        assert "E_a" not in no_ea
        no_ei = md.init_params(tiny_config(use_input_embedding=False))
        assert "W_in" not in no_ei and "b_in" not in no_ei

    @pytest.mark.parametrize("overrides, count", [
        ({}, 423), ({"use_input_embedding": False}, 243),
        ({"use_adaptive_embedding": False}, 138), ({"d_input": 7, "d_adaptive": 2}, 486),
        ({"spatial_hidden": 9}, 468), ({"history": 3, "horizon": 5}, 807),
    ], ids=[f"overrides{i}" for i in range(6)])
    def test_closed_form_count_matches(self, overrides, count):
        cfg = tiny_config(**overrides)
        assert sum(math.prod(s) for _, s in md.param_shapes(cfg)) == count


class TestEmbed:
    def test_no_input_embedding_ignores_x(self):
        cfg = tiny_config(use_input_embedding=False)
        params = md.init_params(cfg)
        rng = np.random.default_rng(0)
        a = md.embed(dm.Tensor(rng.normal(size=(2, 2, 4, 4))), params, cfg)
        b = md.embed(dm.Tensor(rng.normal(size=(2, 2, 4, 4))), params, cfg)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.data[0], params["E_a"].data)

    def test_no_adaptive_embedding_is_pure_projection(self):
        cfg = tiny_config(use_adaptive_embedding=False)
        params = md.init_params(cfg)
        x = np.random.default_rng(1).normal(size=(1, 2, 4, 4))
        e = md.embed(dm.Tensor(x), params, cfg)
        expect = x @ params["W_in"].data + params["b_in"].data
        assert np.allclose(e.data, expect)
        assert e.shape[-1] == cfg.d_input

    def test_concat_width_with_defaults(self):
        cfg = md.ModelConfig(n_entities=6, history=2, horizon=2, seed=0)
        params = md.init_params(cfg)
        e = md.embed(dm.Tensor(np.zeros((1, 2, 6, 6))), params, cfg)
        assert e.shape == (1, 2, 6, 104)


class TestTemporalAttention:
    def test_single_step_returns_value_projection(self):
        cfg = tiny_config(history=1)
        params = md.init_params(cfg)
        e = dm.Tensor(np.random.default_rng(2).normal(size=(2, 1, 4, 8)))
        o, a = md.temporal_attention(e, params, return_weights=True)
        # same projection path as the module: time axis swapped inward
        v = np.matmul(e.data.transpose(0, 2, 1, 3),
                      params["W_V"].data).transpose(0, 2, 1, 3)
        assert np.array_equal(o.data, v)
        assert np.array_equal(a.data, np.ones((2, 4, 1, 1)))

    def test_entity_equivariance_exact(self):
        cfg = tiny_config()
        params = md.init_params(cfg)
        rng = np.random.default_rng(3)
        e = rng.normal(size=(1, 2, 4, 8))
        perm = rng.permutation(4)
        o = md.temporal_attention(dm.Tensor(e), params)
        o_perm = md.temporal_attention(dm.Tensor(e[:, :, perm, :]), params)
        assert np.array_equal(o.data[:, :, perm, :], o_perm.data)

    def test_matches_scalar_loop_oracle(self):
        cfg = md.ModelConfig(n_entities=1, history=2, horizon=1, d_input=1,
                             d_adaptive=1, d_output=1, seed=4)
        params = md.init_params(cfg)
        wq = params["W_Q"].data
        wk = params["W_K"].data
        wv = params["W_V"].data
        x = np.random.default_rng(5).normal(size=(1, 2, 1, 2))
        o = md.temporal_attention(dm.Tensor(x), params)
        xn = x[0, :, 0, :]  # [H, d]
        q, k, v = xn @ wq, xn @ wk, xn @ wv
        d = 2
        for t in range(2):
            scores = [sum(q[t, c] * k[u, c] for c in range(d)) / math.sqrt(d)
                      for u in range(2)]
            mx = max(scores)
            es = [math.exp(s - mx) for s in scores]
            z = sum(es)
            for c in range(d):
                expect = sum(es[u] / z * v[u, c] for u in range(2))
                assert abs(o.data[0, t, 0, c] - expect) < 1e-12

    def test_attention_rows_stochastic_many_trials(self):
        cfg = tiny_config()
        for trial in range(100):
            params = md.init_params(tiny_config(seed=trial))
            x = np.random.default_rng(1000 + trial).normal(size=(1, 2, 4, 4))
            _, acts = md.forward(x, params, cfg, return_activations=True)
            assert np.abs(acts["A"].data.sum(-1) - 1.0).max() < 1e-9


class TestSpatialHead:
    def test_zero_mixing_weights_give_residual_identity(self):
        cfg = tiny_config()
        params = md.init_params(cfg)
        for name in ("W_s1", "b_s1", "W_s2", "b_s2"):
            params[name].data[...] = 0.0
        o_t = dm.Tensor(np.random.default_rng(6).normal(size=(2, 2, 4, 8)))
        y = md.spatial_head(o_t, params, cfg)
        # with zero mixing the head reduces to the linear readout of O_t itself
        r = np.transpose(o_t.data, (0, 2, 1, 3)).reshape(2, 4, 16)
        expect = (r @ params["W_out"].data + params["b_out"].data)
        expect = np.transpose(expect.reshape(2, 4, 2, 4), (0, 2, 1, 3))
        assert np.allclose(y.data, expect)

    def test_output_shape_contract(self):
        for cfg in (tiny_config(), tiny_config(horizon=5, d_output=2),
                    md.ModelConfig(n_entities=3, history=4, horizon=1, seed=0)):
            params = md.init_params(cfg)
            x = np.zeros((3, cfg.history, cfg.n_entities, cfg.feature_dim))
            y = md.forward(x, params, cfg)
            assert y.shape == (3, cfg.horizon, cfg.n_entities, cfg.d_output)


class TestForward:
    def test_deterministic(self):
        cfg = tiny_config()
        params = md.init_params(cfg)
        x = np.random.default_rng(7).normal(size=(2, 2, 4, 4))
        assert np.array_equal(md.forward(x, params, cfg).data,
                              md.forward(x, params, cfg).data)

    def test_batch_independence(self):
        cfg = tiny_config()
        params = md.init_params(cfg)
        x = np.random.default_rng(8).normal(size=(3, 2, 4, 4))
        batched = md.forward(x, params, cfg).data
        singles = np.concatenate(
            [md.forward(x[i:i + 1], params, cfg).data for i in range(3)])
        assert np.abs(batched - singles).max() < 1e-12

    def test_finite_for_extreme_inputs(self):
        cfg = tiny_config()
        params = md.init_params(cfg)
        x = np.full((1, 2, 4, 4), 1e3)
        assert np.isfinite(md.forward(x, params, cfg).data).all()

    def test_end_to_end_gradient_check(self):
        cfg = tiny_config()
        params = md.init_params(cfg)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 2, 4, 4))
        y = rng.normal(size=(2, 2, 4, 4))

        def loss_fn(plist):
            return tr.loss(md.forward(x, params, cfg), y, tr.MEAN_SQUARED)

        assert dm.finite_diff_check(loss_fn, params.all(), eps=1e-5) < 1e-4

    def test_input_gradient_zero_without_input_embedding(self):
        cfg = tiny_config(use_input_embedding=False)
        params = md.init_params(cfg)
        x = dm.Tensor(np.random.default_rng(10).normal(size=(1, 2, 4, 4)))
        out = md.forward(x, params, cfg)
        dm.sum_all(out).backward()
        assert x.grad is None or not np.any(x.grad)


class TestFlattenPairs:
    def make_series(self):
        flows = np.zeros((10, 2, 2))
        flows[:, 0, 1] = 5.0
        flows[:, 1, 0] = 3.0
        return dt.ODSeries(["A", "B"], 0, 1800, flows)

    def test_hand_ranking(self):
        pairs, view = md.flatten_pairs(self.make_series(), 2)
        assert pairs == [(0, 1), (1, 0)]
        assert view.shape == (10, 2, 1)
        assert np.array_equal(view[:, 0, 0], np.full(10, 5.0))

    def test_all_pairs_conserve_flow(self):
        series = self.make_series()
        _, view = md.flatten_pairs(series, 4)
        assert view.sum() == series.flows.sum()

    def test_tie_breaks_to_lower_indices(self):
        flows = np.zeros((4, 2, 2))
        flows[:, 0, 1] = 2.0
        flows[:, 1, 0] = 2.0
        series = dt.ODSeries(["A", "B"], 0, 1800, flows)
        pairs, _ = md.flatten_pairs(series, 1)
        assert pairs == [(0, 1)]

    def test_k_out_of_range(self):
        with pytest.raises(dt.ConfigurationError):
            md.flatten_pairs(self.make_series(), 5)

    def test_pair_mode_forward_shapes(self):
        series = self.make_series()
        pairs, view = md.flatten_pairs(series, 3)
        cfg = md.ModelConfig(n_entities=3, history=2, horizon=2, d_input=2,
                             d_adaptive=2, entity_mode=md.TOP_K_PAIRS, top_k=3,
                             seed=0)
        assert cfg.feature_dim == 1
        params = md.init_params(cfg)
        y = md.forward(view[:2][None, ...], params, cfg)
        assert y.shape == (1, 2, 3, 1)


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, tmp_path):
        cfg = tiny_config()
        params = md.init_params(cfg)
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, params, cfg)
        loaded, loaded_cfg = md.load_checkpoint(path)
        assert loaded_cfg == cfg
        for a, b in zip(params.all(), loaded.all()):
            assert a.name == b.name
            assert np.array_equal(a.data, b.data)

    def test_config_mismatch_rejected(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, md.init_params(cfg), cfg)
        with pytest.raises(md.CheckpointError, match="config"):
            md.load_checkpoint(path, expected_config=tiny_config(d_input=32))

    def test_truncated_file_rejected(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, md.init_params(cfg), cfg)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 11])
        with pytest.raises(md.CheckpointError):
            md.load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"WRONGMAG" + b"\0" * 16)
        with pytest.raises(md.CheckpointError, match="magic"):
            md.load_checkpoint(path)

    def test_version_1_rejected(self, tmp_path):
        # the version-1 layout: magic, u32 version, u32 config length, config, u32 count
        blob = json.dumps(tiny_config().to_dict(), sort_keys=True).encode()
        path = tmp_path / "model.ckpt"
        path.write_bytes(md.CHECKPOINT_MAGIC + struct.pack("<II", 1, len(blob)) + blob
                         + struct.pack("<I", 0))
        with pytest.raises(md.CheckpointError):
            md.load_checkpoint(path)

    @staticmethod
    def rewrite(path, edit):
        """Apply ``edit`` to a saved checkpoint's header and write it back."""
        header, arrays = dt.read_container(
            path, md.CHECKPOINT_MAGIC, md.CHECKPOINT_VERSION,
            lambda h: [shape for _, shape in h["params"]], md.CheckpointError)
        edit(header)
        dt.write_container(path, md.CHECKPOINT_MAGIC, header, arrays)

    @pytest.mark.parametrize("edit, match", [
        (lambda h: h["config"].update(dropout=0.1), "dropout"),
        (lambda h: h["config"].update(history="2"), "config"),
        (lambda h: h["config"].update(d_input=4), r"parameters .* are not the .* of its config"),
        (lambda h: h["params"][3].__setitem__(0, "W_X"), "W_X"),
        (lambda h: h["params"][0][1].reverse(), "parameters"),
        (lambda h: h["config"].update(d_adaptive=10**9), "1000000000"),
        (lambda h: h["config"].update(d_input=3.0), "integer"),
    ], ids=["unknown_key", "ill_typed_field", "config_disagrees", "renamed",
            "transposed", "huge_config", "float_width"])
    def test_header_must_match_its_config(self, tmp_path, edit, match):
        cfg = tiny_config()
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, md.init_params(cfg), cfg)
        self.rewrite(path, edit)
        with pytest.raises(md.CheckpointError, match=match):
            md.load_checkpoint(path)
