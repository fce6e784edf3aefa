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


def make_samples(n, seed=0, n_entities=4):
    rng = np.random.default_rng(seed)
    return [dt.WindowSample(x=rng.normal(size=(2, n_entities, n_entities)),
                            y=rng.normal(size=(2, n_entities, n_entities)),
                            t_anchor=i + 1)
            for i in range(n)]


class TestLoss:
    def test_zero_on_equal(self):
        p = dm.Tensor([1.0, 2.0])
        assert tr.loss(p, np.array([1.0, 2.0])).item() == 0.0

    def test_mean_absolute(self):
        out = tr.loss(dm.Tensor([2.0, 2.0, 5.0]), np.array([1.0, 2.0, 3.0]),
                      tr.MEAN_ABSOLUTE)
        assert abs(out.item() - 1.0) < 1e-15

    def test_mean_squared(self):
        out = tr.loss(dm.Tensor([2.0, 2.0, 5.0]), np.array([1.0, 2.0, 3.0]),
                      tr.MEAN_SQUARED)
        assert abs(out.item() - 5.0 / 3.0) < 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(dm.DimensionError):
            tr.loss(dm.Tensor([1.0]), np.array([1.0, 2.0]))


class TestAdam:
    def test_first_step_closed_form(self):
        p = dm.Parameter("p", np.array([0.0]))
        p.grad = np.array([1.0])
        tr.adam_step([p], tr.TrainConfig(lr=0.001), t=1)
        expect = -0.001 * 1.0 / (1.0 + 1e-8)
        assert abs(p.data[0] - expect) < 1e-15

    def test_zero_gradient_is_noop(self):
        p = dm.Parameter("p", np.array([1.5, -2.5]))
        p.grad = np.zeros(2)
        before = p.data.copy()
        tr.adam_step([p], tr.TrainConfig(), t=1)
        assert np.array_equal(p.data, before)

    def test_first_update_direction_is_negative_sign(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=8) * 10
        p = dm.Parameter("p", np.zeros(8))
        p.grad = g.copy()
        tr.adam_step([p], tr.TrainConfig(lr=0.01), t=1)
        assert np.array_equal(np.sign(p.data), -np.sign(g))

    def test_nonfinite_gradient_aborts_before_mutation(self):
        p = dm.Parameter("p", np.array([1.0]))
        q = dm.Parameter("q", np.array([2.0]))
        p.grad = np.array([1.0])
        q.grad = np.array([float("inf")])
        with pytest.raises(dm.NumericError):
            tr.adam_step([p, q], tr.TrainConfig(), t=1)
        assert p.data[0] == 1.0
        assert not p.first_moment.any()

    def test_bad_step_index(self):
        with pytest.raises(ValueError):
            tr.adam_step([], tr.TrainConfig(), t=0)


class TestTrainLoop:
    def run(self, val_losses=None, **tc_overrides):
        cfg = tiny_config()
        params = md.init_params(cfg)
        tc = tr.TrainConfig(max_epochs=8, patience=3, **tc_overrides)
        train_s = make_samples(6, seed=1)
        val_s = make_samples(2, seed=2)
        return tr.train(cfg, params, train_s, val_s, tc)

    def test_constant_validation_stops_after_patience_plus_one(self):
        # all-zero params on all-zero data are a fixed point: gradients vanish,
        # so validation loss stays flat at its first value
        cfg = tiny_config(use_adaptive_embedding=False)
        params = md.init_params(cfg)
        for p in params.all():
            p.data[...] = 0.0
        samples = [dt.WindowSample(x=np.zeros((2, 4, 4)), y=np.zeros((2, 4, 4)),
                                   t_anchor=1)] * 4
        tc = tr.TrainConfig(max_epochs=50, patience=4)
        _, report = tr.train(cfg, params, samples, samples, tc)
        assert len(report.epochs) == 5  # epoch 1 sets best, 4 more fail
        assert report.stop_reason == "early_stopped"
        assert report.best_epoch == 1

    def test_runs_to_max_epochs_when_improving(self):
        params, report = self.run(lr=0.01)
        if report.stop_reason == "max_epochs":
            assert len(report.epochs) == 8

    def test_best_params_match_min_validation(self):
        params, report = self.run(lr=0.05)
        vals = [r.val_loss for r in report.epochs]
        assert report.best_epoch == int(np.argmin(vals)) + 1
        assert min(vals) == vals[report.best_epoch - 1]

    def test_determinism(self):
        a_params, a_report = self.run(lr=0.01)
        b_params, b_report = self.run(lr=0.01)
        assert [r.train_loss for r in a_report.epochs] == \
               [r.train_loss for r in b_report.epochs]
        assert [r.val_loss for r in a_report.epochs] == \
               [r.val_loss for r in b_report.epochs]
        for pa, pb in zip(a_params.all(), b_params.all()):
            assert np.array_equal(pa.data, pb.data)

    def test_needs_samples(self):
        cfg = tiny_config()
        with pytest.raises(ValueError):
            tr.train(cfg, md.init_params(cfg), [], make_samples(1),
                     tr.TrainConfig())

    def test_overfits_tiny_batch(self):
        # gradient/optimizer sanity: 8 synthetic samples, loss drops by >= 90%
        series = dt.synth_generate(dt.SyntheticSpec(4, days=1, seed=2,
                                                    noise_std=0.5))
        stats = dt.fit_normalizer(series, 1.0)
        norm = stats.apply(series.flows)
        train_s = [dt.WindowSample(norm[t - 1:t + 1], norm[t + 1:t + 3], t)
                   for t in range(1, 9)]
        cfg = tiny_config()
        params = md.init_params(cfg)
        tc = tr.TrainConfig(max_epochs=500, patience=500, lr=0.01)
        _, report = tr.train(cfg, params, train_s, train_s, tc)
        first = report.epochs[0].train_loss
        best = min(r.train_loss for r in report.epochs)
        assert best <= 0.1 * first


class TestEvaluatePredict:
    def test_evaluate_matches_manual_loss(self):
        cfg = tiny_config()
        params = md.init_params(cfg)
        samples = make_samples(5, seed=4)
        x, y = tr.stack_batch(samples)
        manual = float(tr.loss(md.forward(x, params, cfg), y).data)
        assert abs(tr.evaluate_loss(cfg, params, samples, tr.TrainConfig())
                   - manual) < 1e-12

    def test_predict_shape_and_batching(self):
        cfg = tiny_config()
        params = md.init_params(cfg)
        samples = make_samples(7, seed=5)
        preds = tr.predict(cfg, params, samples, batch_size=3)
        assert preds.shape == (7, 2, 4, 4)
        x, _ = tr.stack_batch(samples)
        assert np.abs(preds - md.forward(x, params, cfg).data).max() < 1e-12

    @pytest.mark.parametrize("mode", [md.STATION_ROWS, md.TOP_K_PAIRS])
    def test_no_grad_forward_is_bit_identical(self, mode):
        pairs = mode == md.TOP_K_PAIRS
        cfg = tiny_config(entity_mode=mode, top_k=4 if pairs else None,
                          d_output=None)
        params = md.init_params(cfg)
        x = np.random.default_rng(6).normal(size=(3, 2, 4, cfg.feature_dim))
        taped = md.forward(x, params, cfg)
        with dm.no_grad():
            free = md.forward(x, params, cfg)
        assert taped.parents and free.parents == ()
        assert free.data.tobytes() == taped.data.tobytes()

    def test_forward_only_passes_record_no_tape(self):
        cfg = tiny_config()
        params = md.init_params(cfg)
        samples = make_samples(5, seed=7)
        outputs = []

        def spy(x, params, config):
            outputs.append(md.forward(x, params, config))
            return outputs[-1]

        tr.evaluate_loss(cfg, params, samples, tr.TrainConfig(), batch_size=2,
                         forward=spy)
        tr.predict(cfg, params, samples, batch_size=2, forward=spy)
        assert len(outputs) == 6 and all(out.parents == () for out in outputs)


class TestTrainConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"batch_size": 0}, {"lr": 0.0}, {"patience": 0}, {"max_epochs": 0},
        {"loss_kind": "huber"}, {"lr": float("nan")},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            tr.TrainConfig(**kwargs)
