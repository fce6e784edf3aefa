import dataclasses
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
    kwargs = dict(n_entities=4, history=2, horizon=2, d_input=3, d_adaptive=5, seed=1)
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
        assert cfg.feature_dim == 10
        assert cfg.spatial_hidden == 10

    def test_both_embeddings_disabled_rejected(self):
        with pytest.raises(dt.ConfigurationError):
            tiny_config(use_input_embedding=False, use_adaptive_embedding=False)

    def test_dict_roundtrip(self):
        cfg = tiny_config()
        assert md.ModelConfig(**dataclasses.asdict(cfg)) == cfg


class TestInit:
    def test_same_seed_bit_identical(self):
        a = md.init_params(tiny_config())
        b = md.init_params(tiny_config())
        assert list(a) == list(b)
        for pa, pb in zip(a.values(), b.values()):
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
        o, a = md.temporal_attention(e, params)
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
        o, _ = md.temporal_attention(dm.Tensor(e), params)
        o_perm, _ = md.temporal_attention(dm.Tensor(e[:, :, perm, :]), params)
        assert np.array_equal(o.data[:, :, perm, :], o_perm.data)

    def test_matches_scalar_loop_oracle(self):
        cfg = md.ModelConfig(n_entities=1, history=2, horizon=1, d_input=1,
                             d_adaptive=1, seed=4)
        params = md.init_params(cfg)
        wq = params["W_Q"].data
        wk = params["W_K"].data
        wv = params["W_V"].data
        x = np.random.default_rng(5).normal(size=(1, 2, 1, 2))
        o, _ = md.temporal_attention(dm.Tensor(x), params)
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
            _, a = md.temporal_attention(md.embed(dm.Tensor(x), params, cfg), params)
            assert np.abs(a.data.sum(-1) - 1.0).max() < 1e-9


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
        for cfg in (tiny_config(), tiny_config(horizon=5, entity_mode=md.TOP_K_PAIRS),
                    md.ModelConfig(n_entities=3, history=4, horizon=1, seed=0)):
            params = md.init_params(cfg)
            x = np.zeros((3, cfg.history, cfg.n_entities, cfg.feature_dim))
            y = md.forward(x, params, cfg)
            assert y.shape == (3, cfg.horizon, cfg.n_entities, cfg.feature_dim)


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

        assert dm.finite_diff_check(loss_fn, list(params.values()), eps=1e-5) < 1e-4

    @pytest.mark.parametrize("embeddings", ["both", "input_only", "adaptive_only"])
    @pytest.mark.parametrize("axis", [1, 2, 3], ids=["history", "entities", "features"])
    def test_mis_shaped_input(self, embeddings, axis):
        cfg = tiny_config(use_input_embedding=embeddings != "adaptive_only",
                          use_adaptive_embedding=embeddings != "input_only")
        params = md.init_params(cfg)
        shape = [2, cfg.history, cfg.n_entities, cfg.feature_dim]
        good = np.zeros(shape)
        shape[axis] += 1
        x = np.full(shape, np.nan)
        if cfg.use_input_embedding:
            with pytest.raises(dm.DimensionError):
                md.forward(x, params, cfg)
        else:
            # only the batch size of x is read, so a NaN input of any width is ignored
            assert np.array_equal(md.forward(x, params, cfg).data,
                                  md.forward(good, params, cfg).data)

    def test_input_gradient_zero_without_input_embedding(self):
        cfg = tiny_config(use_input_embedding=False)
        params = md.init_params(cfg)
        x = dm.Tensor(np.random.default_rng(10).normal(size=(1, 2, 4, 4)))
        out = md.forward(x, params, cfg)
        dm.mean_error(out, np.zeros(out.shape), squared=True).backward()
        assert x.grad is None or not np.any(x.grad)


def read_header(path) -> dict:
    """The JSON header of a ``write_container`` file."""
    raw = path.read_bytes()
    (n,) = struct.unpack("<I", raw[8:12])
    return json.loads(raw[12:12 + n])


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, tmp_path):
        cfg = tiny_config()
        params = md.init_params(cfg)
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, params, cfg)
        loaded, loaded_cfg = md.load_checkpoint(path)
        assert loaded_cfg == cfg
        assert list(loaded) == list(params)
        for a, b in zip(params.values(), loaded.values()):
            assert np.array_equal(a.data, b.data)

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
        blob = json.dumps(dataclasses.asdict(tiny_config()), sort_keys=True).encode()
        path = tmp_path / "model.ckpt"
        path.write_bytes(md.CHECKPOINT_MAGIC + struct.pack("<II", 1, len(blob)) + blob
                         + struct.pack("<I", 0))
        with pytest.raises(md.CheckpointError):
            md.load_checkpoint(path)

    def test_header_holds_only_the_config(self, tmp_path):
        # param_shapes(config) is the one layout: the header keeps no copy of it
        cfg = tiny_config()
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, md.init_params(cfg), cfg)
        assert read_header(path) == {"config": dataclasses.asdict(cfg), "version": 3}

    @staticmethod
    def rewrite(path, edit):
        """Apply ``edit`` to a saved checkpoint's header and write it back."""
        params, header = md.load_checkpoint(path)[0], read_header(path)
        edit(header)
        dt.write_container(path, md.CHECKPOINT_MAGIC, header, [p.data for p in params.values()])

    @pytest.mark.parametrize("edit, match", [
        (lambda h: h["config"].update(dropout=0.1), "bad header: TypeError: .*dropout"),
        (lambda h: h["config"].update(history="2"), "bad header: ConfigurationError: history"),
        (lambda h: h["config"].update(d_input=4), "payload ends at byte"),
        (lambda h: h["config"].update(d_adaptive=10**9), "payload ends at byte"),
        (lambda h: h["config"].update(d_adaptive=2**63), "bad header: ConfigurationError: "),
        (lambda h: h["config"].update(d_input=3.0), "integer"),
    ], ids=["unknown_key", "ill_typed_field", "config_disagrees", "huge_config",
            "unsized_config", "float_width"])
    def test_header_must_match_its_config(self, tmp_path, edit, match):
        cfg = tiny_config()
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, md.init_params(cfg), cfg)
        self.rewrite(path, edit)
        with pytest.raises(md.CheckpointError, match=match):
            md.load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda p: {("W_X" if name == "W_K" else name): t for name, t in p.items()},
        lambda p: dict(sorted(p.items(), key=lambda item: item[0] == "W_Q")),
        lambda p: {name: dm.Tensor(t.data.T) if name == "W_in" else t for name, t in p.items()},
    ], ids=["renamed", "reordered", "transposed"])
    def test_save_rejects_another_layout(self, tmp_path, edit):
        # the writer owns the layout check, so no file holds another layout
        cfg = tiny_config()
        path = tmp_path / "model.ckpt"
        with pytest.raises(md.CheckpointError, match="are not the .* of its config"):
            md.save_checkpoint(path, edit(md.init_params(cfg)), cfg)
        assert not path.exists()
