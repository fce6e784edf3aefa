import math

import numpy as np
import pytest

from umod import data as dt
from umod import evaluation as ev
from umod import model as md
from umod import training as tr

IDENTITY = dt.NormStats(0.0, 1.0)


def metrics_oracle(pred, target, stats, threshold=1e-6):
    """Scalar-loop reference for the metric computation."""
    pred = stats.invert(np.asarray(pred)).ravel()
    target = stats.invert(np.asarray(target)).ravel()
    abs_sum = 0.0
    sq_sum = 0.0
    mape_sum = 0.0
    used = 0
    for p, t in zip(pred, target):
        abs_sum += abs(p - t)
        sq_sum += (p - t) ** 2
        if abs(t) > threshold:
            mape_sum += abs((p - t) / t)
            used += 1
    n = len(pred)
    mape = 100.0 * mape_sum / used if used else None
    return abs_sum / n, math.sqrt(sq_sum / n), mape, used


class TestComputeMetrics:
    def test_perfect_prediction(self):
        x = np.random.default_rng(0).random((3, 3)) + 1.0
        rep = ev.compute_metrics(x, x, IDENTITY)
        assert (rep.mae, rep.rmse, rep.mape_percent) == (0.0, 0.0, 0.0)

    def test_hand_arithmetic(self):
        rep = ev.compute_metrics(np.array([2.0, 2.0, 5.0]),
                                 np.array([1.0, 2.0, 3.0]), IDENTITY)
        assert abs(rep.mae - 1.0) < 1e-12
        assert abs(rep.rmse - math.sqrt(5.0 / 3.0)) < 1e-12
        assert abs(rep.mape_percent - 100.0 * (1.0 + 0.0 + 2.0 / 3.0) / 3.0) < 1e-9

    def test_masking_rule(self):
        rep = ev.compute_metrics(np.array([1.0, 2.0]), np.array([0.0, 2.0]),
                                 IDENTITY)
        assert rep.mape_percent == 0.0
        assert rep.n_mape_used == 1
        assert rep.mae == 0.5

    def test_all_masked_is_undefined_not_zero(self):
        rep = ev.compute_metrics(np.array([1.0, 2.0]), np.zeros(2), IDENTITY)
        assert rep.mape_percent is None
        assert rep.n_mape_used == 0

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            shape = (rng.integers(1, 4), rng.integers(1, 5), rng.integers(1, 5))
            stats = dt.NormStats(float(rng.normal()), float(rng.uniform(0.5, 3.0)))
            pred = rng.normal(size=shape)
            target = rng.normal(size=shape)
            if trial % 3 == 0:  # sprinkle exact zeros into the target scale
                flat = target.reshape(-1)
                flat[:: 2] = stats.apply(0.0)
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

    def test_mask_invariance(self):
        rng = np.random.default_rng(2)
        pred = rng.normal(size=10)
        target = rng.uniform(1.0, 5.0, size=10)
        base = ev.compute_metrics(pred, target, IDENTITY)
        pred2 = np.concatenate([pred, rng.normal(size=4) * 100])
        target2 = np.concatenate([target, np.zeros(4)])
        extended = ev.compute_metrics(pred2, target2, IDENTITY)
        assert abs(extended.mape_percent - base.mape_percent) < 1e-12
        assert extended.n_mape_used == base.n_mape_used

    def test_scale_consistency(self):
        # scaling stats and data together leaves reports unchanged
        rng = np.random.default_rng(3)
        pred = rng.normal(size=(4, 4))
        target = rng.normal(size=(4, 4))
        stats = dt.NormStats(10.0, 4.0)
        a = ev.compute_metrics(pred, target, stats)
        # same original-scale values expressed against different stats
        stats2 = dt.NormStats(2.0, 8.0)
        pred2 = stats2.apply(stats.invert(pred))
        target2 = stats2.apply(stats.invert(target))
        b = ev.compute_metrics(pred2, target2, stats2)
        assert abs(a.mae - b.mae) < 1e-9
        assert abs(a.rmse - b.rmse) < 1e-9
        assert abs(a.mape_percent - b.mape_percent) < 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(dt.ConfigurationError):
            ev.compute_metrics(np.zeros(2), np.zeros(3), IDENTITY)


def small_series(days=8, n=3, noise=0.0, seed=0):
    return dt.synth_generate(dt.SyntheticSpec(
        n, days=days, granularity=3600, seed=seed, noise_std=noise,
        operating_window=(6, 18)))


def windows(series, h=2, p=2):
    stats = dt.fit_normalizer(series)
    return stats, dt.split_and_window(series.flows, stats, dt.SPLIT, h, p)


class TestBaselines:
    def test_last_value_zero_error_on_constant_series(self):
        series = dt.ODSeries(["A", "B"], 0, 3600, np.full((48, 2, 2), 4.0), (6, 18))
        stats, (train, val, test) = windows(series)
        preds = ev.fit_baseline("last_value", series=series, stats=stats).predict(test)
        targets = np.stack([s.y for s in test])
        rep = ev.compute_metrics(preds, targets, stats)
        assert rep.mae == 0.0

    def test_historical_average_exact_on_periodic_series(self):
        series = small_series(noise=0.0)
        stats, (train, val, test) = windows(series)
        baseline = ev.fit_baseline("historical_average", series=series, stats=stats)
        preds = baseline.predict(test)
        targets = np.stack([s.y for s in test])
        rep = ev.compute_metrics(preds, targets, stats)
        assert rep.mae < 1e-9

    def test_plain_mlp_output_shape(self):
        series = small_series(noise=0.4, seed=4)
        stats, (train, val, test) = windows(series)
        tc = tr.TrainConfig(max_epochs=2, patience=2, batch_size=8)
        baseline = ev.fit_baseline("plain_mlp", series=series, stats=stats,
                                   train_samples=train, val_samples=val,
                                   train_config=tc)
        preds = baseline.predict(test)
        assert preds.shape == (len(test), 2, 3, 3)

    def test_plain_mlp_refit_is_bit_identical(self):
        series = small_series(noise=0.4, seed=4)
        stats, (train, val, test) = windows(series)
        tc = tr.TrainConfig(max_epochs=3, patience=3, batch_size=8)
        a = ev.PlainMLPBaseline().fit(train, val, tc).predict(test)
        b = ev.PlainMLPBaseline().fit(train, val, tc).predict(test)
        assert np.array_equal(a, b)

    def test_plain_mlp_keeps_best_validation_weights(self):
        # At lr 0.01 the second epoch raises the validation loss on this
        # series, so the two-epoch fit must restore its epoch-1 weights.
        series = small_series(noise=0.4, seed=4)
        stats, (train, val, test) = windows(series)

        def fitted_val_loss(epochs):
            tc = tr.TrainConfig(max_epochs=epochs, patience=2, batch_size=8, lr=0.01)
            mlp = ev.PlainMLPBaseline().fit(train, val, tc)
            return tr.evaluate_loss(mlp.shape_out, mlp.params, val, tc,
                                    forward=ev._mlp_forward)

        assert fitted_val_loss(2) <= fitted_val_loss(1)

    def test_unfitted_query_errors(self):
        with pytest.raises(RuntimeError):
            ev.HistoricalAverageBaseline().predict([])
        with pytest.raises(RuntimeError):
            ev.PlainMLPBaseline().predict([])

    def test_unknown_kind(self):
        with pytest.raises(dt.ConfigurationError):
            ev.fit_baseline("arima", series=small_series(), stats=IDENTITY)


def fast_model_config(series, **overrides):
    kwargs = dict(n_entities=series.n_stations, history=2, horizon=2,
                  d_input=3, d_adaptive=4, seed=0)
    kwargs.update(overrides)
    return md.ModelConfig(**kwargs)


FAST_TRAIN = tr.TrainConfig(max_epochs=2, patience=2, batch_size=16)


class TestSweeps:
    def test_hp_sweep_default_grid_rows(self):
        series = small_series(days=16)
        stats = dt.fit_normalizer(series, 0.7)
        result = ev.run_hp_sweep(series, stats, fast_model_config(series),
                                 FAST_TRAIN)
        assert [(d["H"], d["P"]) for d, _ in result.rows] == ev.HP_GRID
        assert not result.skipped

    def test_hp_sweep_skips_infeasible_pairs(self):
        series = small_series(days=4)
        stats = dt.fit_normalizer(series, 0.7)
        result = ev.run_hp_sweep(series, stats, fast_model_config(series),
                                 FAST_TRAIN, grid=[(2, 2), (30, 30)])
        assert len(result.rows) == 1
        assert len(result.skipped) == 1
        assert result.skipped[0][0] == {"H": 30, "P": 30}

    def test_hp_row_matches_standalone_run(self):
        series = small_series(days=8, noise=0.3, seed=6)
        stats = dt.fit_normalizer(series, 0.7)
        cfg = fast_model_config(series)
        result = ev.run_hp_sweep(series, stats, cfg, FAST_TRAIN, grid=[(2, 2)])
        _, _, standalone = ev._train_and_score(series, cfg, FAST_TRAIN, stats)
        assert result.rows[0][1].mae == standalone.mae
        assert result.rows[0][1].rmse == standalone.rmse

    def test_ablations_three_rows_and_embedding_dump(self, tmp_path):
        series = small_series(days=8, noise=0.3, seed=7)
        stats = dt.fit_normalizer(series, 0.7)
        cfg = fast_model_config(series)
        dump = tmp_path / "embedding.bin"
        result = ev.run_ablations(series, stats, cfg, FAST_TRAIN,
                                  embedding_dump_path=dump)
        assert [d["ablation"] for d, _ in result.rows] == ev.ABLATION_ORDER
        emb = ev.load_embedding(dump)
        assert emb.shape == (cfg.history, cfg.n_entities, cfg.d_adaptive)

    def test_ablation_requires_both_embeddings(self):
        series = small_series()
        stats = dt.fit_normalizer(series, 0.7)
        cfg = fast_model_config(series, use_input_embedding=False)
        with pytest.raises(dt.ConfigurationError):
            ev.run_ablations(series, stats, cfg, FAST_TRAIN)

    def test_dim_sweep_holds_complement_fixed(self):
        series = small_series(days=8)
        stats = dt.fit_normalizer(series, 0.7)
        cfg = fast_model_config(series, d_input=24, d_adaptive=80)
        result = ev.run_dim_sweep(series, stats, cfg, FAST_TRAIN,
                                  axis="input_dim", values=[2, 3])
        assert [d["d_input"] for d, _ in result.rows] == [2, 3]
        assert all(d["d_adaptive"] == 80 for d, _ in result.rows)
        result = ev.run_dim_sweep(series, stats, cfg, FAST_TRAIN,
                                  axis="adaptive_dim", values=[2, 3])
        assert [d["d_adaptive"] for d, _ in result.rows] == [2, 3]
        assert all(d["d_input"] == 24 for d, _ in result.rows)

    def test_dim_sweep_checks_every_value_before_training(self, monkeypatch):
        series = small_series()
        stats = dt.fit_normalizer(series, 0.7)
        trained = []
        monkeypatch.setattr(ev, "_train_and_score", lambda *args: trained.append(args))
        with pytest.raises(dt.ConfigurationError, match="d_input"):
            ev.run_dim_sweep(series, stats, fast_model_config(series), FAST_TRAIN,
                             axis="input_dim", values=[4, 0])
        assert trained == []

    def test_dim_sweep_rejects_bad_axis(self):
        series = small_series()
        stats = dt.fit_normalizer(series, 0.7)
        with pytest.raises(dt.ConfigurationError):
            ev.run_dim_sweep(series, stats, fast_model_config(series),
                             FAST_TRAIN, axis="output_dim")


class TestSweepOutput:
    def test_format_and_write(self, tmp_path):
        rep = ev.MetricsReport(1.0, 2.0, 50.0, 10, 8)
        result = ev.SweepResult(rows=[({"H": 2, "P": 2}, rep)])
        text = ev.format_sweep(result)
        lines = text.strip().split("\n")
        assert lines[0] == "H,P,mae,rmse,mape_percent,n_mape_used"
        assert lines[1] == "2,2,1.000000,2.000000,50.000000,8"
        path = tmp_path / "sweep.csv"
        ev.write_sweep(path, result)
        assert path.read_text() == text

    def test_undefined_mape_marker(self):
        rep = ev.MetricsReport(1.0, 2.0, None, 10, 0)
        text = ev.format_sweep(ev.SweepResult(rows=[({"k": 1}, rep)]))
        assert ",NA," in text
