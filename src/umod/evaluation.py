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
from .data import (SPLIT, ConfigurationError, NormStats, ODSeries, read_container,
                   split_and_window, split_lengths, write_container)

HP_GRID = [(6, 2), (6, 4), (2, 2), (4, 4), (6, 6), (2, 4), (2, 6)]
DIM_VALUES = [4, 8, 16, 32, 64]
EMBEDDING_MAGIC = b"UMODEMB1"
EMBEDDING_VERSION = 1

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
    """Rows of (config descriptor, MetricsReport) plus skip reasons."""

    rows: list[tuple[dict, MetricsReport]] = field(default_factory=list)
    skipped: list[tuple[dict, str]] = field(default_factory=list)


def compute_metrics(pred_norm: np.ndarray, target_norm: np.ndarray,
                    stats: NormStats) -> MetricsReport:
    """MAE / RMSE / masked MAPE after inverting the normalization."""
    pred_norm = np.asarray(pred_norm, dtype=np.float64)
    target_norm = np.asarray(target_norm, dtype=np.float64)
    if pred_norm.shape != target_norm.shape:
        raise ConfigurationError(
            f"metrics: prediction {pred_norm.shape} vs target {target_norm.shape}"
        )
    pred = stats.invert(pred_norm).ravel()
    target = stats.invert(target_norm).ravel()
    resid = np.subtract(pred, target, out=pred)
    n = resid.size
    scratch = np.abs(resid)  # reused for |r|, r * r and |target|
    mae = float(scratch.mean())
    rmse = float(math.sqrt(np.multiply(resid, resid, out=scratch).mean()))
    kept = np.flatnonzero(np.abs(target, out=scratch) > MAPE_MASK_THRESHOLD)
    used = kept.size
    if used == 0:
        mape = None
    else:
        mape = float(100.0 * np.abs(resid[kept] / target[kept]).mean())
    return MetricsReport(mae=mae, rmse=rmse, mape_percent=mape,
                         n_total=n, n_mape_used=used)


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
        self.profile = np.zeros((bins_per_day,) + flows.shape[1:])
        for b in range(min(bins_per_day, n_train)):  # later bins have no rows
            self.profile[b] = flows[b:n_train:bins_per_day].mean(axis=0)
        self.bins_per_day = bins_per_day
        self.stats = stats

    def predict(self, samples) -> np.ndarray:
        if not samples:
            raise ValueError("no samples to predict")
        anchors = np.array([s.t_anchor for s in samples])
        steps = 1 + np.arange(samples[0].y.shape[0])
        bods = (anchors[:, None] + steps) % self.bins_per_day  # [S, P]
        return self.stats.apply(self.profile[bods])


def _mlp_forward(x, params: dict[str, dm.Parameter], out_shape: tuple) -> dm.Tensor:
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
    (``model.entity_flows``); it defaults to the station rows of ``series``.
    """
    if kind == "last_value":
        return LastValueBaseline()
    if kind == "historical_average":
        return HistoricalAverageBaseline(series.flows if flows is None else flows,
                                         split_lengths(series.n_bins)[0],
                                         series.bins_per_day, stats)
    if kind == "plain_mlp":
        if train_samples is None or val_samples is None or train_config is None:
            raise ConfigurationError("plain_mlp needs train/val samples and a config")
        return PlainMLPBaseline(train_samples, val_samples, train_config)
    raise ConfigurationError(f"unknown baseline kind {kind!r}")


# ---------------------------------------------------------------------------
# harnesses


def entity_windows(series: ODSeries, model_config: m.ModelConfig, stats: NormStats):
    """``model_config``'s entity view of ``series`` and the (train, val, test)
    windows cut from it on the chronological ``SPLIT``."""
    flows = m.entity_flows(series, model_config)
    return flows, split_and_window(flows, stats, SPLIT, model_config.history,
                                   model_config.horizon)


def _train_and_score(model_config: m.ModelConfig, train_config: tr.TrainConfig,
                     stats: NormStats, windows, epoch_callback=None):
    """Train a fresh model on the (train, val, test) ``windows`` and score it on
    the test windows; ``epoch_callback`` goes to ``training.train``."""
    train_s, val_s, test_s = windows
    params, report = tr.train(model_config, m.init_params(model_config), train_s, val_s,
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
                cfg, train_config, stats, entity_windows(series, cfg, stats)[1])
        except ConfigurationError as exc:
            result.skipped.append(({"H": hist, "P": horizon}, str(exc)))
            continue
        result.rows.append(({"H": hist, "P": horizon}, metrics))
    return result


ABLATION_ORDER = ["full", "no_input_embedding", "no_adaptive_embedding"]


def run_ablations(series: ODSeries, stats: NormStats,
                  model_config: m.ModelConfig, train_config: tr.TrainConfig,
                  embedding_dump_path=None) -> SweepResult:
    """Full model vs each embedding removed, trained identically.

    When ``embedding_dump_path`` is given, the trained full model's learnable
    embedding tensor is exported for external visualization.
    """
    if not (model_config.use_input_embedding and model_config.use_adaptive_embedding):
        raise ConfigurationError("ablation base config must enable both embeddings")
    configs = [model_config, replace(model_config, use_input_embedding=False),
               replace(model_config, use_adaptive_embedding=False)]
    result = SweepResult()
    for name, cfg in zip(ABLATION_ORDER, configs):
        params, _, metrics = _train_and_score(
            cfg, train_config, stats, entity_windows(series, cfg, stats)[1])
        result.rows.append(({"ablation": name}, metrics))
        if name == "full" and embedding_dump_path is not None:
            dump_embedding(embedding_dump_path, params["E_a"].data)
    return result


def run_dim_sweep(series: ODSeries, stats: NormStats,
                  model_config: m.ModelConfig, train_config: tr.TrainConfig,
                  axis: str, values=None) -> SweepResult:
    """Vary one embedding width while the other stays at its default."""
    values = list(values) if values is not None else list(DIM_VALUES)
    if axis not in ("input_dim", "adaptive_dim"):
        raise ConfigurationError(f"unknown sweep axis {axis!r}")
    width = "d_input" if axis == "input_dim" else "d_adaptive"
    configs = [replace(model_config, **{width: v}) for v in values]
    result = SweepResult()
    for v, cfg in zip(values, configs):
        _, _, metrics = _train_and_score(
            cfg, train_config, stats, entity_windows(series, cfg, stats)[1])
        result.rows.append(
            ({"axis": axis, "value": v, "d_input": cfg.d_input,
              "d_adaptive": cfg.d_adaptive}, metrics))
    return result


# ---------------------------------------------------------------------------
# output files


def format_sweep(result: SweepResult) -> str:
    """Delimited table: config columns, then the metric columns."""
    keys = list(result.rows[0][0].keys())
    lines = [",".join(keys + ["mae", "rmse", "mape_percent", "n_mape_used"])]
    for desc, rep in result.rows:
        mape = "NA" if rep.mape_percent is None else f"{rep.mape_percent:.6f}"
        lines.append(",".join(
            [str(desc[k]) for k in keys]
            + [f"{rep.mae:.6f}", f"{rep.rmse:.6f}", mape, str(rep.n_mape_used)]))
    return "\n".join(lines) + "\n"


def write_sweep(path, result: SweepResult) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_sweep(result))


def dump_embedding(path, tensor: np.ndarray) -> None:
    """``UMODEMB1`` container: the shape in the header, then the values."""
    tensor = np.asarray(tensor, dtype=np.float64)
    write_container(path, EMBEDDING_MAGIC,
                    {"version": EMBEDDING_VERSION, "shape": list(tensor.shape)}, [tensor])


def load_embedding(path) -> np.ndarray:
    _, (tensor,) = read_container(path, EMBEDDING_MAGIC, EMBEDDING_VERSION,
                                  lambda h: [h["shape"]], ConfigurationError)
    return tensor
