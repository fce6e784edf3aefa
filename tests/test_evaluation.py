import gc
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from umod import cli
from umod import data as dt
from umod import diffmath as dm
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
        series = dt.ODSeries(["A", "B"], dt.Grid(0, 3600, (6, 18)), np.full((48, 2, 2), 4.0))
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

    @pytest.mark.parametrize("start, window", [
        (0, (6, 23)), (8 * 3600, (6, 23)), (12 * 3600 + 1800, (6, 23)),
        (23 * 3600 + 1800, (6, 23)), (12 * 3600 + 1800, None),
    ], ids=["00:00", "08:00", "12:30", "23:30", "12:30_windowless"])
    def test_historical_average_follows_wall_clock(self, tmp_path, start, window):
        # one trip log ingested from spans that start at different times of day:
        # profile[t % bins_per_day] is always the training mean of bin t's
        # wall-clock second of day
        rng = np.random.default_rng(8)
        stamps = rng.integers(0, 8 * 86400, size=4000)
        names = rng.choice(["A", "B", "C"], size=(stamps.size, 2))
        trips, stations = tmp_path / "trips.csv", tmp_path / "stations.txt"
        trips.write_text("".join(f"{o},{d},{t}\n" for (o, d), t in zip(names, stamps)))
        stations.write_text("A\nB\nC\n")
        granularity, end = 1800, start + 6 * 86400
        series = cli._ingest(str(trips), str(stations), start, end, granularity,
                             window)[0].dense()
        bin_starts = np.arange(start, end, granularity) % 86400
        start_h, end_h = window or (0, 24)
        second_of_day = bin_starts[(bin_starts >= start_h * 3600) & (bin_starts < end_h * 3600)]
        assert second_of_day.size == series.n_bins
        baseline = ev.fit_baseline("historical_average", series=series,
                                   stats=dt.fit_normalizer(series))
        n_train = dt.split_lengths(series.n_bins)[0]
        for t in range(series.n_bins):
            same = np.flatnonzero(second_of_day[:n_train] == second_of_day[t])
            assert np.array_equal(baseline.profile[t % series.grid.bins_per_day],
                                  series.flows[same].mean(axis=0))

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
        a = ev.PlainMLPBaseline(train, val, tc).predict(test)
        b = ev.PlainMLPBaseline(train, val, tc).predict(test)
        assert np.array_equal(a, b)

    def test_plain_mlp_keeps_best_validation_weights(self):
        # At lr 0.01 the second epoch raises the validation loss on this
        # series, so the two-epoch fit must restore its epoch-1 weights.
        series = small_series(noise=0.4, seed=4)
        stats, (train, val, test) = windows(series)

        def fitted_val_loss(epochs):
            tc = tr.TrainConfig(max_epochs=epochs, patience=2, batch_size=8, lr=0.01)
            mlp = ev.PlainMLPBaseline(train, val, tc)
            return tr.evaluate_loss(mlp.shape_out, mlp.params, val, tc,
                                    forward=ev._mlp_forward)

        assert fitted_val_loss(2) <= fitted_val_loss(1)

    def test_unknown_kind(self):
        with pytest.raises(dt.ConfigurationError):
            ev.fit_baseline("arima", series=small_series(), stats=IDENTITY)


def pair_view(series, k):
    """The ``[T, K, 1]`` entity view that ``entity_windows`` builds in pair mode."""
    cfg = md.ModelConfig(n_entities=k, history=1, horizon=1, d_input=2, d_adaptive=2,
                         entity_mode=md.TOP_K_PAIRS, seed=0)
    return ev.entity_windows(series, cfg, IDENTITY)[0]


class TestPairView:
    # 20 bins split 14 : 2 : 4, so every portion holds a window at H = P = 1
    def make_series(self):
        flows = np.zeros((20, 2, 2))
        flows[:, 0, 1] = 5.0
        flows[:, 1, 0] = 3.0
        return dt.ODSeries(["A", "B"], dt.Grid(0, 1800, None), flows)

    def test_hand_ranking(self):
        view = pair_view(self.make_series(), 2)
        assert view.shape == (20, 2, 1)
        assert np.array_equal(view[:, 0, 0], np.full(20, 5.0))
        assert np.array_equal(view[:, 1, 0], np.full(20, 3.0))

    def test_all_pairs_conserve_flow(self):
        series = self.make_series()
        assert pair_view(series, 4).sum() == series.flows.sum()

    def test_tie_breaks_to_lower_indices(self):
        # tied on the 14 training bins; after them (1, 0) is busier, so the
        # view shows which pair was picked, and that only training bins rank
        flows = np.zeros((20, 2, 2))
        flows[:, 0, 1] = 2.0
        flows[:, 1, 0] = 2.0
        flows[14:, 1, 0] = 7.0
        series = dt.ODSeries(["A", "B"], dt.Grid(0, 1800, None), flows)
        assert np.array_equal(pair_view(series, 1)[:, 0, 0], flows[:, 0, 1])

    def test_k_out_of_range(self):
        with pytest.raises(dt.ConfigurationError, match=r"K=5 out of range for 2x2 pairs"):
            pair_view(self.make_series(), 5)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 17])
    def test_matches_sorted_tuple_ranking(self, n):
        # few distinct flow values, so most means tie
        flows = np.random.default_rng(n).integers(0, 3, (20, n, n)).astype(float)
        series = dt.ODSeries([f"S{k}" for k in range(n)], dt.Grid(0, 1800, None), flows)
        means = flows[:int(20 * dt.SPLIT[0])].mean(axis=0)
        ranked = sorted(((i, j) for i in range(n) for j in range(n)),
                        key=lambda ij: (-means[ij], *ij))
        for k in sorted({1, n, n * n // 2 + 1, n * n}):
            rows, cols = np.array(ranked[:k]).T
            assert np.array_equal(pair_view(series, k)[:, :, 0], flows[:, rows, cols])

    def test_pair_mode_forward_shapes(self):
        cfg = md.ModelConfig(n_entities=3, history=1, horizon=1, d_input=2,
                             d_adaptive=2, entity_mode=md.TOP_K_PAIRS, seed=0)
        assert cfg.feature_dim == 1
        view, (train_s, _, _) = ev.entity_windows(self.make_series(), cfg, IDENTITY)
        assert view.shape == (20, 3, 1)
        y = md.forward(train_s[0].x[None, ...], md.init_params(cfg), cfg)
        assert y.shape == (1, 1, 3, 1)


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
        _, windows = ev.entity_windows(series, cfg, stats)
        _, _, standalone = ev._train_and_score(md.init_params(cfg), cfg, FAST_TRAIN, stats,
                                               windows)
        assert result.rows[0][1].mae == standalone.mae
        assert result.rows[0][1].rmse == standalone.rmse

    def test_ablations_three_rows_and_embedding_dump(self):
        # the full row's trained parameters, E_a among them, are kept for the CLI
        series = small_series(days=8, noise=0.3, seed=7)
        stats = dt.fit_normalizer(series, 0.7)
        cfg = fast_model_config(series)
        result = ev.run_ablations(series, stats, cfg, FAST_TRAIN)
        assert [d["ablation"] for d, _ in result.rows] == ev.ABLATION_ORDER
        _, windows = ev.entity_windows(series, cfg, stats)
        params, _, metrics = ev._train_and_score(md.init_params(cfg), cfg, FAST_TRAIN,
                                                 stats, windows)
        assert result.rows[0][1] == metrics
        assert [(k, p.data.tobytes()) for k, p in result.full_params.items()] == \
            [(k, p.data.tobytes()) for k, p in params.items()]
        assert result.full_params["E_a"].shape == (cfg.history, cfg.n_entities,
                                                   cfg.d_adaptive)

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


class TestSweepOutput:
    def test_format_and_write(self):
        rep = ev.MetricsReport(1.0, 2.0, 50.0, 10, 8)
        result = ev.SweepResult(rows=[({"H": 2, "P": 2}, rep)])
        text = ev.format_sweep(result)
        lines = text.strip().split("\n")
        assert lines[0] == "H,P,mae,rmse,mape_percent,n_mape_used"
        assert lines[1] == "2,2,1.000000,2.000000,50.000000,8"

    def test_undefined_mape_marker(self):
        rep = ev.MetricsReport(1.0, 2.0, None, 10, 0)
        text = ev.format_sweep(ev.SweepResult(rows=[({"k": 1}, rep)]))
        assert ",NA," in text


# ---------------------------------------------------------------------------
# The scoring path against its earlier per-window and boolean-mask versions.
# The functions below are the earlier code, verbatim: the faster versions
# make the same elementwise operations and reductions, so every result is
# held to them bit for bit.


def compute_metrics_oracle(pred_norm: np.ndarray, target_norm: np.ndarray,
                           stats: dt.NormStats) -> ev.MetricsReport:
    """MAE / RMSE / masked MAPE after inverting the normalization."""
    pred_norm = np.asarray(pred_norm, dtype=np.float64)
    target_norm = np.asarray(target_norm, dtype=np.float64)
    if pred_norm.shape != target_norm.shape:
        raise dt.ConfigurationError(
            f"metrics: prediction {pred_norm.shape} vs target {target_norm.shape}"
        )
    pred = stats.invert(pred_norm).ravel()
    target = stats.invert(target_norm).ravel()
    resid = pred - target
    n = resid.size
    mae = float(np.abs(resid).mean())
    rmse = float(math.sqrt((resid ** 2).mean()))
    mask = np.abs(target) > ev.MAPE_MASK_THRESHOLD
    used = int(mask.sum())
    if used == 0:
        mape = None
    else:
        mape = float(100.0 * np.abs(resid[mask] / target[mask]).mean())
    return ev.MetricsReport(mae=mae, rmse=rmse, mape_percent=mape,
                            n_total=n, n_mape_used=used)


class LastValueOracle:
    """Repeats the final history bin across the horizon."""

    def predict(self, samples) -> np.ndarray:
        return np.stack([
            np.repeat(s.x[-1:], s.y.shape[0], axis=0) for s in samples
        ])


class HistoricalAverageOracle:
    """Predicts the training-split mean flow per (bin-of-day, entity, feature)."""

    def __init__(self):
        self.profile = None
        self.bins_per_day = None
        self.stats = None

    def fit(self, flows: np.ndarray, n_train: int, bins_per_day: int,
            stats: dt.NormStats) -> "HistoricalAverageOracle":
        flows = np.asarray(flows, dtype=np.float64)
        bods = np.arange(n_train) % bins_per_day
        profile = np.zeros((bins_per_day,) + flows.shape[1:])
        for b in range(bins_per_day):
            sel = flows[:n_train][bods == b]
            profile[b] = sel.mean(axis=0) if len(sel) else 0.0
        self.profile = profile
        self.bins_per_day = bins_per_day
        self.stats = stats
        return self

    def predict(self, samples) -> np.ndarray:
        if self.profile is None:
            raise RuntimeError("historical_average baseline queried before fit")
        out = []
        for s in samples:
            horizon = s.y.shape[0]
            bods = (s.t_anchor + 1 + np.arange(horizon)) % self.bins_per_day
            out.append(self.stats.apply(self.profile[bods]))
        return np.stack(out)


ORACLE = settings(derandomize=True, database=None, max_examples=150, deadline=None)
FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def metric_inputs(draw):
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=4, max_side=7))
    pred = draw(hnp.arrays(np.float64, shape, elements=FINITE))
    # a target drawn from few values holds ties, zeros and near-threshold entries
    levels = st.sampled_from([0.0, 1e-7, -1e-6, 2e-6, 1.0, -3.5, 250.0])
    target = draw(hnp.arrays(np.float64, shape, elements=st.one_of(levels, FINITE)))
    stats = dt.NormStats(draw(st.floats(-100, 100)), draw(st.floats(0.01, 100)))
    return pred, target, stats


class TestScoringMatchesEarlierCode:
    @ORACLE
    @given(metric_inputs())
    def test_compute_metrics(self, inputs):
        pred, target, stats = inputs
        pred_before, target_before = pred.copy(), target.copy()
        assert ev.compute_metrics(pred, target, stats) == compute_metrics_oracle(
            pred, target, stats)
        assert np.array_equal(pred, pred_before) and np.array_equal(target, target_before)

    @ORACLE
    @given(metric_inputs())
    def test_compute_metrics_over_small_leaves(self, inputs):
        pred, target, stats = inputs
        with mock.patch.object(dm, "LEAF", 128):
            assert ev.compute_metrics(pred, target, stats) == compute_metrics_oracle(
                pred, target, stats)

    def test_compute_metrics_on_a_transposed_prediction(self):
        rng = np.random.default_rng(5)
        pred = rng.normal(size=(96, 96, 2, 4)).T  # [4, 2, 96, 96], more than one leaf
        target = rng.normal(size=pred.shape)
        target[..., ::5] = 0.0
        stats = dt.NormStats(1.5, 4.0)
        assert not pred.flags.c_contiguous and pred.size > dm.LEAF
        assert ev.compute_metrics(pred, target, stats) == compute_metrics_oracle(
            pred, target, stats)

    def test_compute_metrics_lets_go_of_its_inputs(self):
        # no reference cycle holds the caller's arrays once it drops them
        rng = np.random.default_rng(6)
        pred, target = rng.normal(size=3 * dm.LEAF + 8), rng.normal(size=3 * dm.LEAF + 8)
        refs = [weakref.ref(pred), weakref.ref(target)]
        gc.disable()
        try:
            ev.compute_metrics(pred, target, dt.NormStats(0.0, 2.0))
            del pred, target
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    @pytest.mark.parametrize("size", [1, 9, 128, 129, 100_003, 2 * dm.LEAF + 9,
                                      3 * dm.LEAF + 8])
    def test_compute_metrics_across_pairwise_block_sizes(self, size):
        # numpy's mean sums in blocks; sizes around and far past a block
        rng = np.random.default_rng(size)
        pred, target = rng.normal(size=(2, size))
        target[::7] = 0.0
        stats = dt.NormStats(0.0, 3.0)
        assert ev.compute_metrics(pred, target, stats) == compute_metrics_oracle(
            pred, target, stats)

    def test_every_target_masked(self):
        # targets exactly at the threshold are masked too
        pred = np.ones((2, 3))
        target = np.array([[1e-6, -1e-6, 0.0], [1e-7, -0.0, 5e-7]])
        rep = ev.compute_metrics(pred, target, IDENTITY)
        assert rep.mape_percent is None and rep.n_mape_used == 0
        assert rep == compute_metrics_oracle(pred, target, IDENTITY)

    @staticmethod
    def samples(flows, stats, history, horizon, anchors):
        norm = stats.apply(flows)
        return [dt.WindowSample(norm[a - history + 1:a + 1], norm[a + 1:a + 1 + horizon], a)
                for a in anchors]

    @ORACLE
    @given(st.data())
    def test_baselines(self, data):
        bins_per_day = data.draw(st.integers(1, 9), label="bins_per_day")
        history = data.draw(st.integers(1, 3), label="history")
        horizon = data.draw(st.integers(1, 4), label="horizon")
        T = data.draw(st.integers(history + horizon, 40), label="T")
        E, F = data.draw(st.sampled_from([(1, 1), (3, 1), (2, 2), (3, 3)]), label="E, F")
        flows = data.draw(hnp.arrays(np.float64, (T, E, F), elements=st.integers(0, 50)))
        n_train = data.draw(st.integers(0, T), label="n_train")
        stats = dt.NormStats(data.draw(st.floats(-5, 5)), data.draw(st.floats(0.1, 5)))
        anchors = data.draw(st.lists(st.integers(history - 1, T - horizon - 1),
                                     min_size=1, max_size=12), label="anchors")
        samples = self.samples(flows, stats, history, horizon, anchors)

        fitted = ev.HistoricalAverageBaseline(flows, n_train, bins_per_day, stats)
        oracle = HistoricalAverageOracle().fit(flows, n_train, bins_per_day, stats)
        assert np.array_equal(fitted.profile, oracle.profile)
        assert np.array_equal(fitted.predict(samples), oracle.predict(samples))
        assert np.array_equal(ev.LastValueBaseline().predict(samples),
                              LastValueOracle().predict(samples))

    def test_pinned_day_boundaries_and_short_training_split(self):
        # 5 bins a day; 3 training bins leave bins-of-day 3 and 4 unfitted,
        # and the anchors' horizons wrap past the end of a day
        flows = np.arange(60, dtype=np.float64).reshape(20, 3, 1) % 7
        stats = dt.NormStats(1.5, 2.0)
        samples = self.samples(flows, stats, 2, 3, [1, 3, 4, 8, 9, 15])
        for n_train in (3, 5, 16):
            fitted = ev.HistoricalAverageBaseline(flows, n_train, 5, stats)
            oracle = HistoricalAverageOracle().fit(flows, n_train, 5, stats)
            assert np.array_equal(fitted.predict(samples), oracle.predict(samples))
        assert np.array_equal(ev.LastValueBaseline().predict(samples),
                              LastValueOracle().predict(samples))

    @pytest.mark.parametrize("cells, integral", [((3, 2), False), ((1, 1), True)],
                             ids=["fractional", "one_cell_counts"])
    def test_historical_average_over_many_days(self, cells, integral):
        # 60 whole days and a partial one; with one cell the earlier per-bin
        # mean sums pairwise, which rounds alike only on whole numbers
        bins_per_day, n_train = 34, 34 * 60 + 13
        rng = np.random.default_rng(8)
        flows = rng.random((n_train + 40,) + cells) * 300.0
        flows = np.round(flows) if integral else flows
        stats = dt.NormStats(10.0, 3.0)
        fitted = ev.HistoricalAverageBaseline(flows, n_train, bins_per_day, stats)
        oracle = HistoricalAverageOracle().fit(flows, n_train, bins_per_day, stats)
        assert fitted.profile.tobytes() == oracle.profile.tobytes()
