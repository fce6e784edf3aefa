"""Original-scale metrics, reference baselines, and experiment harnesses.

Predictions and targets arrive z-score normalized; every metric first
inverts them to the original count scale. MAPE divides by the target, so
near-zero targets are masked out and the surviving count is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model as m
from . import training as tr
from .data import (ConfigurationError, NormStats, ODSeries, split_and_window,
                   split_lengths)

HP_GRID = [(6, 2), (6, 4), (2, 2), (4, 4), (6, 6), (2, 4), (2, 6)]
DIM_VALUES = [4, 8, 16, 32, 64]
EMBEDDING_MAGIC = b"UMODEMB1"

BASELINE_KINDS = ("historical_average", "last_value", "plain_mlp")


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
                    stats: NormStats,
                    mape_mask_threshold: float = 1e-6) -> MetricsReport:
    """MAE / RMSE / masked MAPE after inverting the normalization."""
    pred_norm = np.asarray(pred_norm, dtype=np.float64)
    target_norm = np.asarray(target_norm, dtype=np.float64)
    if pred_norm.shape != target_norm.shape:
        raise ConfigurationError(
            f"metrics: prediction {pred_norm.shape} vs target {target_norm.shape}"
        )
    pred = stats.invert(pred_norm).ravel()
    target = stats.invert(target_norm).ravel()
    resid = pred - target
    n = resid.size
    mae = float(np.abs(resid).mean())
    rmse = float(math.sqrt((resid ** 2).mean()))
    mask = np.abs(target) > mape_mask_threshold
    used = int(mask.sum())
    if used == 0:
        mape = None
    else:
        mape = float(100.0 * np.abs(resid[mask] / target[mask]).mean())
    return MetricsReport(mae=mae, rmse=rmse, mape_percent=mape,
                         n_total=n, n_mape_used=used)


# ---------------------------------------------------------------------------
# baselines


class LastValueBaseline:
    """Repeats the final history bin across the horizon."""

    def predict(self, samples) -> np.ndarray:
        return np.stack([
            np.repeat(s.x[-1:], s.y.shape[0], axis=0) for s in samples
        ])


class HistoricalAverageBaseline:
    """Predicts the training-split mean flow per (bin-of-day, entity, feature)."""

    def __init__(self):
        self.profile = None
        self.bins_per_day = None
        self.stats = None

    def fit(self, flows: np.ndarray, n_train: int, bins_per_day: int,
            stats: NormStats) -> "HistoricalAverageBaseline":
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


class PlainMLPBaseline:
    """Two-layer network on the flattened window, trained like the main model."""

    def __init__(self, hidden: int = 64, seed: int = 0):
        self.hidden = hidden
        self.seed = seed
        self.params = None
        self.shape_in = None
        self.shape_out = None

    def fit(self, train_samples, val_samples,
            train_config: tr.TrainConfig) -> "PlainMLPBaseline":
        from . import diffmath as dm
        s0 = train_samples[0]
        self.shape_in = s0.x.shape
        self.shape_out = s0.y.shape
        n_in = int(np.prod(self.shape_in))
        n_out = int(np.prod(self.shape_out))
        rng = np.random.default_rng(self.seed)

        def xavier(fi, fo, shape):
            bound = math.sqrt(6.0 / (fi + fo))
            return rng.uniform(-bound, bound, size=shape)

        params = [
            dm.Parameter("W1", xavier(n_in, self.hidden, (n_in, self.hidden))),
            dm.Parameter("b1", np.zeros(self.hidden)),
            dm.Parameter("W2", xavier(self.hidden, n_out, (self.hidden, n_out))),
            dm.Parameter("b2", np.zeros(n_out)),
        ]
        self.params = params

        best_val = float("inf")
        best = {p.name: p.value.data.copy() for p in params}
        bad = 0
        step = 0
        for epoch in range(1, train_config.max_epochs + 1):
            order = np.random.default_rng(
                [train_config.shuffle_seed, epoch]).permutation(len(train_samples))
            for lo in range(0, len(order), train_config.batch_size):
                batch = [train_samples[i] for i in order[lo:lo + train_config.batch_size]]
                x, y = tr.stack_batch(batch)
                for p in params:
                    p.value.zero_grad()
                out = self._forward(x)
                batch_loss = tr.loss(out, y, train_config.loss_kind)
                batch_loss.backward()
                step += 1
                tr.adam_step(params, train_config, step)
            xv, yv = tr.stack_batch(val_samples)
            val = float(tr.loss(self._forward(xv), yv, train_config.loss_kind).data)
            if val < best_val:
                best_val = val
                best = {p.name: p.value.data.copy() for p in params}
                bad = 0
            else:
                bad += 1
                if bad >= train_config.patience:
                    break
        for p in params:
            p.value.data[...] = best[p.name]
        return self

    def _forward(self, x: np.ndarray):
        from . import diffmath as dm
        batch = x.shape[0]
        flat = dm.reshape(dm.Tensor(x), (batch, int(np.prod(self.shape_in))))
        h = dm.relu(dm.linear(flat, self.params[0], self.params[1]))
        out = dm.linear(h, self.params[2], self.params[3])
        return dm.reshape(out, (batch,) + self.shape_out)

    def predict(self, samples) -> np.ndarray:
        if self.params is None:
            raise RuntimeError("plain_mlp baseline queried before fit")
        x, _ = tr.stack_batch(samples)
        return self._forward(x).data


def fit_baseline(kind: str, *, series: ODSeries, stats: NormStats,
                 train_samples=None, val_samples=None,
                 train_config: tr.TrainConfig | None = None,
                 train_fraction: float = 0.7, seed: int = 0):
    """Build and fit one of the reference predictors on training data only."""
    if kind == "last_value":
        return LastValueBaseline()
    if kind == "historical_average":
        n_train = split_lengths(series.n_bins)[0]
        return HistoricalAverageBaseline().fit(
            series.flows, n_train, series.bins_per_day, stats)
    if kind == "plain_mlp":
        if train_samples is None or val_samples is None or train_config is None:
            raise ConfigurationError("plain_mlp needs train/val samples and a config")
        return PlainMLPBaseline(seed=seed).fit(train_samples, val_samples, train_config)
    raise ConfigurationError(f"unknown baseline kind {kind!r}")


def baseline_predict(baseline, samples) -> np.ndarray:
    return baseline.predict(samples)


# ---------------------------------------------------------------------------
# harnesses


def _train_and_score(series: ODSeries, model_config: m.ModelConfig,
                     train_config: tr.TrainConfig, stats: NormStats):
    """Train a fresh model for one harness row and return test metrics."""
    train_s, val_s, test_s = split_and_window(
        series.flows, stats, (0.7, 0.1, 0.2),
        model_config.history, model_config.horizon)
    params = m.init_params(model_config)
    params, report = tr.train(model_config, params, train_s, val_s, train_config)
    preds = tr.predict(model_config, params, test_s)
    targets = np.stack([s.y for s in test_s])
    metrics = compute_metrics(preds, targets, stats)
    return params, report, metrics


def run_hp_sweep(series: ODSeries, stats: NormStats,
                 model_config: m.ModelConfig, train_config: tr.TrainConfig,
                 grid=None) -> SweepResult:
    """Train one model per (history, horizon) pair with identical seeds."""
    grid = list(grid) if grid is not None else list(HP_GRID)
    result = SweepResult()
    for hist, horizon in grid:
        cfg = m.ModelConfig.from_dict({**model_config.to_dict(),
                                       "history": hist, "horizon": horizon})
        try:
            _, _, metrics = _train_and_score(series, cfg, train_config, stats)
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
    result = SweepResult()
    for name in ABLATION_ORDER:
        cfg_dict = model_config.to_dict()
        if name == "no_input_embedding":
            cfg_dict["use_input_embedding"] = False
        elif name == "no_adaptive_embedding":
            cfg_dict["use_adaptive_embedding"] = False
        cfg = m.ModelConfig.from_dict(cfg_dict)
        params, _, metrics = _train_and_score(series, cfg, train_config, stats)
        result.rows.append(({"ablation": name}, metrics))
        if name == "full" and embedding_dump_path is not None:
            dump_embedding(embedding_dump_path, params["E_a"].value.data)
    return result


def run_dim_sweep(series: ODSeries, stats: NormStats,
                  model_config: m.ModelConfig, train_config: tr.TrainConfig,
                  axis: str, values=None) -> SweepResult:
    """Vary one embedding width while the other stays at its default."""
    values = list(values) if values is not None else list(DIM_VALUES)
    if axis not in ("input_dim", "adaptive_dim"):
        raise ConfigurationError(f"unknown sweep axis {axis!r}")
    result = SweepResult()
    for v in values:
        if v < 1:
            raise ConfigurationError("dimension values must be positive")
        cfg_dict = model_config.to_dict()
        if axis == "input_dim":
            cfg_dict["d_input"] = v
        else:
            cfg_dict["d_adaptive"] = v
        cfg = m.ModelConfig.from_dict(cfg_dict)
        _, _, metrics = _train_and_score(series, cfg, train_config, stats)
        result.rows.append(
            ({"axis": axis, "value": v, "d_input": cfg.d_input,
              "d_adaptive": cfg.d_adaptive}, metrics))
    return result


# ---------------------------------------------------------------------------
# output files


def format_sweep(result: SweepResult) -> str:
    """Delimited table: config columns, then the metric columns."""
    if not result.rows and not result.skipped:
        return ""
    keys = list(result.rows[0][0].keys()) if result.rows else []
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
    """Embedding container: magic, shape header, little-endian float64 body."""
    import struct
    tensor = np.asarray(tensor, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(EMBEDDING_MAGIC)
        fh.write(struct.pack("<I", tensor.ndim))
        fh.write(struct.pack(f"<{tensor.ndim}Q", *tensor.shape))
        fh.write(tensor.astype("<f8").tobytes())


def load_embedding(path) -> np.ndarray:
    import struct
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != EMBEDDING_MAGIC:
        raise ConfigurationError(f"bad embedding magic {raw[:8]!r}")
    (ndim,) = struct.unpack_from("<I", raw, 8)
    shape = struct.unpack_from(f"<{ndim}Q", raw, 12)
    body = raw[12 + 8 * ndim:]
    return np.frombuffer(body, dtype="<f8").reshape(shape).copy()
