"""Acceptance gate: one test per criterion, one printed verdict line each."""

import dataclasses
import functools
import math
import time

import numpy as np
import pytest

from umod import cli
from umod import data as dt
from umod import diffmath as dm
from umod import evaluation as ev
from umod import model as md
from umod import training as tr


def verdict(num, description):
    """Print a pass/fail line for a criterion as the test resolves."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num}: FAIL - {description}")
                raise
            print(f"ACCEPTANCE {num}: PASS - {description}")
        return run
    return wrap


def tiny_config(**overrides):
    kwargs = dict(n_entities=4, history=2, horizon=2, d_input=3, d_adaptive=5, seed=1)
    kwargs.update(overrides)
    return md.ModelConfig(**kwargs)


@verdict(1, "end-to-end gradient fidelity < 1e-4 on tiny config, < 30 s")
def test_criterion_1_gradient_fidelity():
    cfg = tiny_config()
    params = md.init_params(cfg)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 2, 4, 4))
    y = rng.normal(size=(2, 2, 4, 4))

    def loss_fn(plist):
        return tr.loss(md.forward(x, params, cfg), y, tr.MEAN_SQUARED)

    t0 = time.perf_counter()
    err = dm.finite_diff_check(loss_fn, list(params.values()), eps=1e-5)
    elapsed = time.perf_counter() - t0
    assert err < 1e-4, f"max relative error {err}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


@verdict(2, "attention invariants: row sums, H=1 identity, entity equivariance")
def test_criterion_2_attention_invariants():
    # row-stochasticity over 100 random trials
    for trial in range(100):
        cfg = tiny_config(seed=trial)
        params = md.init_params(cfg)
        x = np.random.default_rng(trial).normal(size=(1, 2, 4, 4))
        _, a = md.temporal_attention(md.embed(dm.Tensor(x), params, cfg), params)
        assert np.abs(a.data.sum(-1) - 1.0).max() < 1e-9
    # H=1 returns the value projection exactly
    cfg1 = tiny_config(history=1)
    params = md.init_params(cfg1)
    e = dm.Tensor(np.random.default_rng(7).normal(size=(2, 1, 4, 8)))
    o, a = md.temporal_attention(e, params)
    v = np.matmul(e.data.transpose(0, 2, 1, 3),
                  params["W_V"].data).transpose(0, 2, 1, 3)
    assert np.array_equal(o.data, v)
    assert np.array_equal(a.data, np.ones((2, 4, 1, 1)))
    # exact entity-permutation equivariance
    cfg = tiny_config()
    params = md.init_params(cfg)
    rng = np.random.default_rng(8)
    e = rng.normal(size=(1, 2, 4, 8))
    perm = rng.permutation(4)
    o, _ = md.temporal_attention(dm.Tensor(e), params)
    o_perm, _ = md.temporal_attention(dm.Tensor(e[:, :, perm, :]), params)
    assert np.array_equal(o.data[:, :, perm, :], o_perm.data)


@verdict(3, "metric oracle agreement < 1e-9 over 100 trials, mae <= rmse, mask invariance")
def test_criterion_3_metric_oracle():
    from test_evaluation import metrics_oracle
    rng = np.random.default_rng(9)
    for trial in range(100):
        shape = (rng.integers(1, 4), rng.integers(1, 6), rng.integers(1, 6))
        stats = dt.NormStats(float(rng.normal()), float(rng.uniform(0.5, 3.0)))
        pred = rng.normal(size=shape)
        target = rng.normal(size=shape)
        if trial % 4 == 0:
            target.reshape(-1)[::3] = stats.apply(0.0)
        rep = ev.compute_metrics(pred, target, stats)
        mae, rmse, mape, used = metrics_oracle(pred, target, stats)
        assert abs(rep.mae - mae) < 1e-9
        assert abs(rep.rmse - rmse) < 1e-9
        assert rep.n_mape_used == used
        if mape is None:
            assert rep.mape_percent is None
        else:
            assert abs(rep.mape_percent - mape) < 1e-9
        assert rep.mae <= rep.rmse + 1e-12
    # MAPE mask invariance: masked entries never move the metric
    pred = rng.normal(size=20)
    target = rng.uniform(1.0, 4.0, size=20)
    base = ev.compute_metrics(pred, target, dt.NormStats(0.0, 1.0))
    pred2 = np.concatenate([pred, rng.normal(size=6) * 1e3])
    target2 = np.concatenate([target, np.zeros(6)])
    grown = ev.compute_metrics(pred2, target2, dt.NormStats(0.0, 1.0))
    assert abs(grown.mape_percent - base.mape_percent) < 1e-12


@verdict(4, "normalization roundtrip identity and training-split-only fit")
def test_criterion_4_normalization():
    rng = np.random.default_rng(10)
    flows = rng.random((100, 3, 3)) * 50
    series = dt.ODSeries([f"S{k}" for k in range(3)], dt.Grid(0, 1800, None), flows)
    stats = dt.fit_normalizer(series, 0.7)
    x = rng.random((5, 3, 3)) * 200
    assert np.abs(stats.invert(stats.apply(x)) - x).max() < 1e-9
    perturbed = flows.copy()
    perturbed[85] *= 1e6  # test split only
    after = dt.fit_normalizer(
        dt.ODSeries([f"S{k}" for k in range(3)], dt.Grid(0, 1800, None), perturbed), 0.7)
    assert after.mean == stats.mean and after.std == stats.std


@verdict(5, "overfit sanity: >= 90% loss reduction on 8 samples within 500 epochs, < 2 min")
def test_criterion_5_overfit():
    series = dt.synth_generate(dt.SyntheticSpec(4, days=1, seed=2, noise_std=0.5))
    stats = dt.fit_normalizer(series, 1.0)
    norm = stats.apply(series.flows)
    samples = [dt.WindowSample(norm[t - 1:t + 1], norm[t + 1:t + 3], t)
               for t in range(1, 9)]
    cfg = tiny_config()
    params = md.init_params(cfg)
    t0 = time.perf_counter()
    _, report = tr.train(cfg, params, samples, samples,
                         tr.TrainConfig(max_epochs=500, patience=500, lr=0.01))
    elapsed = time.perf_counter() - t0
    first = report.epochs[0].train_loss
    best = min(r.train_loss for r in report.epochs)
    assert best <= 0.1 * first, f"loss only fell {1 - best / first:.1%}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


@verdict(6, "learning signal: beats last_value by >= 20%, within 15% of historical_average, < 10 min")
def test_criterion_6_learning_signal():
    t0 = time.perf_counter()
    series = dt.synth_generate(dt.SyntheticSpec(8, days=14, seed=0, noise_std=0.5))
    stats = dt.fit_normalizer(series, 0.7)
    train_s, val_s, test_s = dt.split_and_window(
        series.flows, stats, (0.7, 0.1, 0.2), 2, 2)
    cfg = md.ModelConfig(n_entities=8, history=2, horizon=2, seed=0)
    params = md.init_params(cfg)
    params, _ = tr.train(cfg, params, train_s, val_s,
                         tr.TrainConfig(max_epochs=300, patience=30))
    targets = np.stack([s.y for s in test_s])
    model_mae = ev.compute_metrics(
        tr.predict(cfg, params, test_s), targets, stats).mae
    last_mae = ev.compute_metrics(
        ev.LastValueBaseline().predict(test_s), targets, stats).mae
    hist = ev.fit_baseline("historical_average", series=series, stats=stats)
    hist_mae = ev.compute_metrics(hist.predict(test_s), targets, stats).mae
    elapsed = time.perf_counter() - t0
    assert model_mae <= 0.8 * last_mae, \
        f"model {model_mae:.4f} vs last_value {last_mae:.4f}"
    assert model_mae <= 1.15 * hist_mae, \
        f"model {model_mae:.4f} vs historical_average {hist_mae:.4f}"
    assert elapsed < 600.0, f"took {elapsed:.1f}s"


def _sweep_fixture():
    series = dt.synth_generate(dt.SyntheticSpec(
        3, days=16, granularity=3600, seed=1, noise_std=0.3,
        operating_window=(6, 18)))
    stats = dt.fit_normalizer(series, 0.7)
    cfg = md.ModelConfig(n_entities=3, history=2, horizon=2, d_input=3,
                         d_adaptive=4, seed=0)
    tc = tr.TrainConfig(max_epochs=2, patience=2)
    return series, stats, cfg, tc


@verdict(7, "protocol shape: 7 H-P rows, 3 ablation rows, 5+5 dim rows with fixed complement")
def test_criterion_7_protocol_shape():
    series, stats, cfg, tc = _sweep_fixture()
    hp = ev.run_hp_sweep(series, stats, cfg, tc)
    assert [(d["H"], d["P"]) for d, _ in hp.rows] == \
        [(6, 2), (6, 4), (2, 2), (4, 4), (6, 6), (2, 4), (2, 6)]
    ab = ev.run_ablations(series, stats, cfg, tc)
    assert [d["ablation"] for d, _ in ab.rows] == \
        ["full", "no_input_embedding", "no_adaptive_embedding"]
    small = [2, 3, 4, 5, 6]  # five values sized for the desk-scale fixture
    di = ev.run_dim_sweep(series, stats,
                          dataclasses.replace(cfg, d_adaptive=80),
                          tc, axis="input_dim", values=small)
    assert len(di.rows) == 5
    assert all(d["d_adaptive"] == 80 for d, _ in di.rows)
    da = ev.run_dim_sweep(series, stats,
                          dataclasses.replace(cfg, d_input=24),
                          tc, axis="adaptive_dim", values=small)
    assert len(da.rows) == 5
    assert all(d["d_input"] == 24 for d, _ in da.rows)
    assert ev.DIM_VALUES == [4, 8, 16, 32, 64]


@verdict(8, "ablation semantics: zero input gradient without E_i; no E_a and d_h == d_i without E_a")
def test_criterion_8_ablation_semantics():
    cfg = tiny_config(use_input_embedding=False)
    params = md.init_params(cfg)
    x = dm.Tensor(np.random.default_rng(11).normal(size=(2, 2, 4, 4)))
    out = md.forward(x, params, cfg)
    tr.loss(out, np.zeros(out.shape)).backward()
    assert x.grad is None or not np.any(x.grad)
    cfg2 = tiny_config(use_adaptive_embedding=False)
    params2 = md.init_params(cfg2)
    assert "E_a" not in params2
    assert cfg2.d_hidden == cfg2.d_input


@verdict(9, "determinism: reruns of one resolved config give bit-identical artifacts")
def test_criterion_9_determinism(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[data]\ngranularity = 3600\noperating_start = 6\noperating_end = 18\n"
        "[synthetic]\nstations = 3\ndays = 8\nseed = 3\nnoise_std = 0.4\n"
        "[model]\nd_input = 3\nd_adaptive = 4\n"
        "[train]\nmax_epochs = 3\npatience = 3\n")
    for d in ("r1", "r2"):
        assert cli.main(["train", str(cfg), "--output-dir",
                         str(tmp_path / d)]) == 0
    # second pass from the first run's own resolved config
    assert cli.main(["train", str(tmp_path / "r1" / "resolved.ini"),
                     "--output-dir", str(tmp_path / "r3")]) == 0
    ck = [(tmp_path / d / "model.ckpt").read_bytes() for d in ("r1", "r2", "r3")]
    assert ck[0] == ck[1] == ck[2]
    mt = [(tmp_path / d / "metrics.csv").read_bytes() for d in ("r1", "r2", "r3")]
    assert mt[0] == mt[1] == mt[2]

    def log_without_timing(d):
        # wall-clock column necessarily varies between runs; compare the rest
        lines = (tmp_path / d / "epochs.log").read_text().strip().split("\n")
        return [",".join(line.split(",")[:3]) for line in lines]

    assert log_without_timing("r1") == log_without_timing("r2") == \
        log_without_timing("r3")


@verdict(10, "windowing law: L - H - P + 1 samples per split; 100 bins split 70/10/20")
def test_criterion_10_windowing_law():
    assert dt.split_lengths(100) == (70, 10, 20)
    rng = np.random.default_rng(12)
    flows = rng.random((100, 2, 2))
    stats = dt.NormStats(0.0, 1.0)
    for h, p in [(1, 1), (2, 2), (6, 2), (2, 6), (4, 4), (3, 5)]:
        train, val, test = dt.split_and_window(flows, stats, (0.7, 0.1, 0.2), h, p)
        assert len(train) == 70 - h - p + 1
        assert len(val) == 10 - h - p + 1
        assert len(test) == 20 - h - p + 1
