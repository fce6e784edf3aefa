"""Original-scale metrics, reference baselines, and experiment harnesses.

Predictions and targets arrive z-score normalized; every metric first
inverts them to the original count scale. MAPE divides by the target, so
near-zero targets are masked out and the surviving count is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import diffmath as dm
from . import model as m
from . import training as tr
from .data import SPLIT, ConfigurationError, NormStats, ODSeries, split_and_window, split_lengths

HP_GRID = [(6, 2), (6, 4), (2, 2), (4, 4), (6, 6), (2, 4), (2, 6)]
DIM_VALUES = [4, 8, 16, 32, 64]

BASELINE_KINDS = ("historical_average", "last_value", "plain_mlp")
MAPE_MASK_THRESHOLD = 1e-6  # targets at most this far from zero are left out of MAPE
MLP_HIDDEN = 64


@dataclass
class MetricsReport:
    mae: float
    rmse: float
    mape_percent: float | None  # None when every entry is masked
    n_total: int
    n_mape_used: int


@dataclass
class SweepResult:
    """Rows of (config descriptor, MetricsReport) plus skip reasons, and the
    ablation's trained full model (empty for the other sweeps)."""

    rows: list[tuple[dict, MetricsReport]] = field(default_factory=list)
    skipped: list[tuple[dict, str]] = field(default_factory=list)
    full_params: dict[str, dm.Tensor] = field(default_factory=dict)


def compute_metrics(pred_norm: np.ndarray, target_norm: np.ndarray,
                    stats: NormStats) -> MetricsReport:
    """MAE / RMSE / masked MAPE after inverting the normalization.

    The entries are inverted and scored one ``diffmath.pairwise_sum`` leaf at
    a time, so no temporary is larger than a leaf, and the sums are
    ``np.mean``'s bit for bit. The kept ``|r / t|`` are packed in order into
    one buffer, whose prefix ``np.mean`` then averages.
    """
    pred_norm = np.asarray(pred_norm, dtype=np.float64)
    target_norm = np.asarray(target_norm, dtype=np.float64)
    if pred_norm.shape != target_norm.shape:
        raise ConfigurationError(
            f"metrics: prediction {pred_norm.shape} vs target {target_norm.shape}"
        )
    pred, target = pred_norm.ravel(), target_norm.ravel()
    n = pred.size
    ratios = np.empty(n)
    used = 0

    def leaf(lo, m):
        nonlocal used
        t = stats.invert(target[lo:lo + m])
        r = stats.invert(pred[lo:lo + m])
        r -= t
        kept = np.flatnonzero(np.abs(t) > MAPE_MASK_THRESHOLD)  # gathers faster than a mask
        quotient = r[kept] / t[kept]
        np.abs(quotient, out=ratios[used:used + quotient.size])
        used += quotient.size
        a = np.abs(r)
        return np.array([a.sum(), np.multiply(r, r, out=a).sum()])

    abs_sum, square_sum = dm.pairwise_sum(n, leaf)
    mape = None if used == 0 else float(100.0 * ratios[:used].mean())
    return MetricsReport(mae=float(abs_sum / n), rmse=float(math.sqrt(square_sum / n)),
                         mape_percent=mape, n_total=n, n_mape_used=used)


# ---------------------------------------------------------------------------
# baselines


class LastValueBaseline:
    """Repeats the final history bin across the horizon."""

    def predict(self, samples) -> np.ndarray:
        last = np.stack([s.x[-1] for s in samples])  # [S, E, F]
        return np.repeat(last[:, None], samples[0].y.shape[0], axis=1)


class HistoricalAverageBaseline:
    """Predicts the training-split mean flow per (bin-of-day, entity, feature)."""

    def __init__(self, flows: np.ndarray, n_train: int, bins_per_day: int,
                 stats: NormStats):
        flows = np.asarray(flows, dtype=np.float64)
        days, extra = divmod(n_train, bins_per_day)
        whole = flows[:days * bins_per_day].reshape((days, bins_per_day) + flows.shape[1:])
        # each cell adds its days in order, as a per-bin mean(axis=0) adds its
        # rows; numpy sums the rows of a lone cell pairwise instead, which
        # gives the same bits on trip counts, since whole numbers add exactly
        self.profile = whole.sum(axis=0)
        self.profile[:extra] += flows[days * bins_per_day:n_train]
        fitted = min(bins_per_day, n_train)  # later bins have no rows and stay +0.0
        rows = days + (np.arange(fitted) < extra)
        self.profile[:fitted] /= rows.reshape((fitted,) + (1,) * (flows.ndim - 1))
        self.bins_per_day = bins_per_day
        self.stats = stats

    def predict(self, samples) -> np.ndarray:
        anchors = np.array([s.t_anchor for s in samples])
        steps = 1 + np.arange(samples[0].y.shape[0])
        bods = (anchors[:, None] + steps) % self.bins_per_day  # [S, P]
        return self.stats.apply(self.profile[bods])


def _mlp_forward(x, params: dict[str, dm.Tensor], out_shape: tuple) -> dm.Tensor:
    """Flattened window -> ReLU hidden layer -> ``[B, *out_shape]`` forecast."""
    batch = x.shape[0]
    flat = dm.reshape(dm.Tensor(x), (batch, int(np.prod(x.shape[1:]))))
    h = dm.relu(dm.linear(flat, params["W1"], params["b1"]))
    out = dm.linear(h, params["W2"], params["b2"])
    return dm.reshape(out, (batch,) + out_shape)


class PlainMLPBaseline:
    """Two-layer network (seed 0) on the flattened window, trained like the main model."""

    def __init__(self, train_samples, val_samples, train_config: tr.TrainConfig):
        s0 = train_samples[0]
        self.shape_out = s0.y.shape
        n_in, n_out = s0.x.size, s0.y.size
        self.params = m.xavier_init([("W1", (n_in, MLP_HIDDEN)), ("b1", (MLP_HIDDEN,)),
                                     ("W2", (MLP_HIDDEN, n_out)), ("b2", (n_out,))], 0)
        tr.train(self.shape_out, self.params, train_samples, val_samples,
                 train_config, forward=_mlp_forward)

    def predict(self, samples) -> np.ndarray:
        return tr.predict(self.shape_out, self.params, samples, forward=_mlp_forward)


def fit_baseline(kind: str, *, series: ODSeries, stats: NormStats, flows=None,
                 train_samples=None, val_samples=None,
                 train_config: tr.TrainConfig | None = None):
    """Build and fit one of the reference predictors on training data only.

    ``flows`` is the ``[T, E, F]`` entity view the samples were cut from
    (``entity_windows``); it defaults to the station rows of ``series``.
    """
    if kind == "last_value":
        return LastValueBaseline()
    if kind == "historical_average":
        return HistoricalAverageBaseline(series.flows if flows is None else flows,
                                         split_lengths(series.n_bins)[0],
                                         series.grid.bins_per_day, stats)
    if kind == "plain_mlp":
        if train_samples is None or val_samples is None or train_config is None:
            raise ConfigurationError("plain_mlp needs train/val samples and a config")
        return PlainMLPBaseline(train_samples, val_samples, train_config)
    raise ConfigurationError(f"unknown baseline kind {kind!r}")


# ---------------------------------------------------------------------------
# harnesses


def entity_windows(series: ODSeries, model_config: m.ModelConfig, stats: NormStats):
    """``model_config``'s ``[T, E, F]`` entity view of ``series`` and the (train,
    val, test) windows cut from it on the chronological ``SPLIT``.

    The view is the station rows, or in pair mode the K = ``n_entities`` OD
    pairs of highest training-portion mean flow as ``[T, K, 1]``, ties toward
    the lower (origin index, destination index). Raises ConfigurationError if
    K exceeds N² or ``[E, F]`` is not ``(n_entities, feature_dim)``. ``stats``
    is ``fit_normalizer``'s on ``series``, so the training portion has bins.
    """
    flows, n, k = series.flows, series.n_stations, model_config.n_entities
    if model_config.entity_mode == m.TOP_K_PAIRS:
        if k > n * n:
            raise ConfigurationError(f"K={k} out of range for {n}x{n} pairs")
        means = flows[:split_lengths(series.n_bins)[0]].mean(axis=0)  # [N, N]
        # a stable sort of the row-major means keeps ties in (i, j) order
        rows, cols = np.divmod(np.argsort(-means, axis=None, kind="stable")[:k], n)
        flows = flows[:, rows, cols][:, :, None]  # [T, K, 1]
    if flows.shape[1:] != (k, model_config.feature_dim):
        raise ConfigurationError(
            f"the series gives [E, F] = {list(flows.shape[1:])}, the model takes "
            f"{[k, model_config.feature_dim]}")
    return flows, split_and_window(flows, stats, SPLIT, model_config.history,
                                   model_config.horizon)


def _train_and_score(params, model_config: m.ModelConfig, train_config: tr.TrainConfig,
                     stats: NormStats, windows, epoch_callback=None):
    """Train the fresh ``params`` on the (train, val, test) ``windows`` and score
    them on the test windows; ``epoch_callback`` goes to ``training.train``."""
    train_s, val_s, test_s = windows
    params, report = tr.train(model_config, params, train_s, val_s,
                              train_config, epoch_callback=epoch_callback)
    preds = tr.predict(model_config, params, test_s)
    metrics = compute_metrics(preds, np.stack([s.y for s in test_s]), stats)
    return params, report, metrics


def run_hp_sweep(series: ODSeries, stats: NormStats,
                 model_config: m.ModelConfig, train_config: tr.TrainConfig,
                 grid=None) -> SweepResult:
    """Train one model per (history, horizon) pair with identical seeds.

    A pair whose windows do not fit the series is skipped with its reason.
    """
    grid = list(grid) if grid is not None else list(HP_GRID)
    configs = [replace(model_config, history=hist, horizon=horizon) for hist, horizon in grid]
    result = SweepResult()
    for (hist, horizon), cfg in zip(grid, configs):
        try:
            _, _, metrics = _train_and_score(
                m.init_params(cfg), cfg, train_config, stats,
                entity_windows(series, cfg, stats)[1])
        except ConfigurationError as exc:
            result.skipped.append(({"H": hist, "P": horizon}, str(exc)))
            continue
        result.rows.append(({"H": hist, "P": horizon}, metrics))
    return result


ABLATION_ORDER = ["full", "no_input_embedding", "no_adaptive_embedding"]


def run_ablations(series: ODSeries, stats: NormStats,
                  model_config: m.ModelConfig, train_config: tr.TrainConfig) -> SweepResult:
    """Full model vs each embedding removed, trained identically; the full
    model's trained parameters are kept as ``full_params``."""
    if not (model_config.use_input_embedding and model_config.use_adaptive_embedding):
        raise ConfigurationError("ablation base config must enable both embeddings")
    configs = [model_config, replace(model_config, use_input_embedding=False),
               replace(model_config, use_adaptive_embedding=False)]
    windows = entity_windows(series, model_config, stats)[1]  # the rows share the view
    result = SweepResult()
    for name, cfg in zip(ABLATION_ORDER, configs):
        params, _, metrics = _train_and_score(m.init_params(cfg), cfg, train_config,
                                              stats, windows)
        result.rows.append(({"ablation": name}, metrics))
        if name == "full":
            result.full_params = params
    return result


def run_dim_sweep(series: ODSeries, stats: NormStats,
                  model_config: m.ModelConfig, train_config: tr.TrainConfig,
                  axis: str, values=None) -> SweepResult:
    """Vary the ``axis`` ("input_dim" or "adaptive_dim") embedding width while
    the other stays at its default."""
    values = list(values) if values is not None else list(DIM_VALUES)
    width, use = (("d_input", "use_input_embedding") if axis == "input_dim"
                  else ("d_adaptive", "use_adaptive_embedding"))
    if not getattr(model_config, use):  # every row would train the same model
        raise ConfigurationError(f"{axis} sweep varies {width}, so it needs {use} = true")
    configs = [replace(model_config, **{width: v}) for v in values]
    windows = entity_windows(series, model_config, stats)[1]  # the rows share the view
    result = SweepResult()
    for v, cfg in zip(values, configs):
        _, _, metrics = _train_and_score(m.init_params(cfg), cfg, train_config, stats,
                                         windows)
        result.rows.append(
            ({"axis": axis, "value": v, "d_input": cfg.d_input,
              "d_adaptive": cfg.d_adaptive}, metrics))
    return result


# ---------------------------------------------------------------------------
# tables


def metric_cells(rep: MetricsReport) -> list[str]:
    """MAE, RMSE and MAPE to six places; MAPE is ``NA`` when every entry is masked."""
    mape = "NA" if rep.mape_percent is None else f"{rep.mape_percent:.6f}"
    return [f"{rep.mae:.6f}", f"{rep.rmse:.6f}", mape]


def format_sweep(result: SweepResult) -> str:
    """Delimited table: config columns, then the metric columns."""
    keys = list(result.rows[0][0].keys())
    lines = [",".join(keys + ["mae", "rmse", "mape_percent", "n_mape_used"])]
    for desc, rep in result.rows:
        lines.append(",".join([str(desc[k]) for k in keys] + metric_cells(rep)
                              + [str(rep.n_mape_used)]))
    return "\n".join(lines) + "\n"

