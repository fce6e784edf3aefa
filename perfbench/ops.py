"""The three operations one benchmark cycle runs, each with its output checks.

Each operation makes the public ``umod`` calls that one CLI command makes, in
the same order, and times the part its end-to-end metric covers:

* ``ingest_op`` calls ``umod.cli.main(["ingest", ...])`` itself;
* ``train_op`` follows ``umod train`` (``cli.cmd_train``);
* ``eval_op`` follows ``umod eval --baseline historical_average
  --baseline last_value`` (``cli.cmd_eval``).

``perfbench/test_equivalence.py`` checks that these sequences write the same
``metrics.csv`` rows as the commands. A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import time
from dataclasses import dataclass

import numpy as np

from umod import cli
from umod import data as dt
from umod import evaluation as ev
from umod import model as md
from umod import training as tr
from workloads import Workload

OPS = ("ingest", "train", "eval")  # one cycle, in this order
SPLIT = (0.7, 0.1, 0.2)
HISTORY = HORIZON = 2
BASELINES = ("historical_average", "last_value")
PROTOCOL_SEED = 0


class CheckFailed(RuntimeError):
    """An output of the program differs from what the benchmark expects."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def train_config(wl: Workload) -> tr.TrainConfig:
    """Protocol settings with a fixed budget: patience equals the epoch count,
    so no run stops early and every run makes the same number of steps."""
    return tr.TrainConfig(max_epochs=wl.epochs, patience=wl.epochs)


@dataclass
class Paths:
    trips: str
    stations: str
    series: str
    checkpoint: str

    @classmethod
    def under(cls, inputs, out) -> "Paths":
        """The trip log and station list in ``inputs``; outputs in ``out``."""
        return cls(trips=os.path.join(inputs, "trips.csv"),
                   stations=os.path.join(inputs, "stations.txt"),
                   series=os.path.join(out, "series.bin"),
                   checkpoint=os.path.join(out, "model.ckpt"))


@dataclass
class OpResult:
    setup_s: float  # set-up inside the operation (0 for ingest)
    work_s: float  # the part the operation's throughput metric divides by
    units: int  # windows x epochs, test windows, or trip rows
    rows: tuple  # metrics.csv-style rows, compared across cycles


def metric_row(label: str, rep: ev.MetricsReport) -> tuple:
    return (label, rep.mae, rep.rmse, rep.mape_percent, rep.n_total, rep.n_mape_used)


def _check_metrics(rep: ev.MetricsReport, label: str) -> None:
    check(math.isfinite(rep.mae) and math.isfinite(rep.rmse),
          f"{label}: non-finite metrics {rep}")


def _check_predictions(preds: np.ndarray, samples, n_entities: int, label: str) -> None:
    shape = (len(samples), HORIZON, n_entities, n_entities)  # [S, P, E, F]
    check(preds.shape == shape, f"{label}: predictions {preds.shape}, expected {shape}")
    check(bool(np.isfinite(preds).all()), f"{label}: non-finite predictions")


def ingest_op(paths: Paths, expected: dict, rec) -> OpResult:
    """``umod ingest`` on the seeded trip log; kept and dropped counts must match."""
    argv = ["ingest", "--trips", paths.trips, "--stations", paths.stations,
            "--start", str(expected["start"]), "--end", str(expected["end"]),
            "--granularity", str(expected["granularity"]),
            "--window", *map(str, expected["window"]), "--out", paths.series]
    out = io.StringIO()
    t0 = time.perf_counter()
    with rec.span("cli.ingest"), contextlib.redirect_stdout(out):
        code = cli.main(argv)
    work_s = time.perf_counter() - t0
    check(code == 0, f"ingest exited {code}")
    m = re.search(r"total_flow=(\d+) dropped=(\d+)", out.getvalue())
    check(m is not None, f"ingest printed {out.getvalue()!r}")
    kept, dropped = int(m.group(1)), int(m.group(2))
    rec.note("data.trips_kept", kept)
    rec.note("data.trips_dropped", dropped)
    check((kept, dropped) == (expected["kept"], expected["dropped"]),
          f"ingest kept/dropped {kept}/{dropped}, generator wrote "
          f"{expected['kept']}/{expected['dropped']}")
    return OpResult(0.0, work_s, expected["rows"], (kept, dropped))


def train_op(wl: Workload, paths: Paths) -> OpResult:
    """``umod train`` on criterion-6 synthetic data; writes the checkpoint.

    The series uses the protocol's generator seed 0 whatever the workload
    seed: test MAE after a few epochs varies by about 10% from one generated
    series to the next, which would hide the change this metric guards
    against. The workload seed varies the trip log that ingest and eval read.
    """
    budget = train_config(wl)
    t0 = time.perf_counter()
    series = dt.synth_generate(dt.SyntheticSpec(
        n_stations=wl.stations, days=wl.train_days, granularity=wl.train_granularity,
        seed=PROTOCOL_SEED, noise_std=0.5))
    stats = dt.fit_normalizer(series, SPLIT[0])
    config = md.ModelConfig(n_entities=series.n_stations, history=HISTORY,
                            horizon=HORIZON)
    train_s, val_s, test_s = dt.split_and_window(series.flows, stats, SPLIT,
                                                 config.history, config.horizon)
    params = md.init_params(config)
    t1 = time.perf_counter()
    params, report = tr.train(config, params, train_s, val_s, budget)
    t2 = time.perf_counter()
    md.save_checkpoint(paths.checkpoint, params, config)
    preds = tr.predict(config, params, test_s)
    targets = np.stack([s.y for s in test_s])
    metrics = ev.compute_metrics(preds, targets, stats)

    check(report.stop_reason == "max_epochs" and len(report.epochs) == wl.epochs,
          f"train stopped after {len(report.epochs)} of {wl.epochs} epochs "
          f"({report.stop_reason})")
    for epoch in report.epochs:
        check(math.isfinite(epoch.train_loss) and math.isfinite(epoch.val_loss),
              f"non-finite loss at epoch {epoch.epoch}")
    _check_predictions(preds, test_s, wl.stations, "train")
    _check_metrics(metrics, "train")
    return OpResult(t1 - t0, t2 - t1, len(train_s) * wl.epochs,
                    (metric_row("model", metrics),))


def eval_op(wl: Workload, paths: Paths, expected: dict, rec) -> OpResult:
    """``umod eval`` of the trained checkpoint on the ingested series."""
    t0 = time.perf_counter()
    params, config = md.load_checkpoint(paths.checkpoint)
    series = dt.load_series(paths.series)
    stats = dt.fit_normalizer(series, SPLIT[0])
    train_s, val_s, test_s = dt.split_and_window(series.flows, stats, SPLIT,
                                                 config.history, config.horizon)
    t1 = time.perf_counter()
    rec.note("data.series_mb", series.flows.nbytes / 1e6)
    preds = tr.predict(config, params, test_s)
    targets = np.stack([s.y for s in test_s])
    model_metrics = ev.compute_metrics(preds, targets, stats)
    rows = [metric_row("model", model_metrics)]
    outputs = []
    for kind in BASELINES:
        baseline = ev.fit_baseline(kind, series=series, stats=stats,
                                   train_samples=train_s, val_samples=val_s,
                                   train_config=train_config(wl))
        with rec.span("evaluation.baseline_predict"):
            bp = baseline.predict(test_s)
        rep = ev.compute_metrics(bp, targets, stats)
        rows.append(metric_row(kind, rep))
        outputs.append((kind, bp, rep))
    t2 = time.perf_counter()

    bins = expected["days"] * (expected["window"][1] - expected["window"][0]) * 3600 \
        // expected["granularity"]
    check(series.flows.shape == (bins, wl.stations, wl.stations),
          f"ingested series has shape {series.flows.shape}")
    check(series.flows.sum() == expected["kept"],
          f"ingested series holds {series.flows.sum()} trips, "
          f"expected {expected['kept']}")
    _check_predictions(preds, test_s, wl.stations, "eval model")
    _check_metrics(model_metrics, "eval model")
    for kind, bp, rep in outputs:
        _check_predictions(bp, test_s, wl.stations, kind)
        _check_metrics(rep, kind)
    return OpResult(t1 - t0, t2 - t1, len(test_s), tuple(rows))



class Loop:
    """Runs one workload's operations; counts attempted and failed ones.

    Every run of an operation must give the outputs of its first run.
    """

    def __init__(self, wl: Workload, paths: Paths, expected: dict, rec):
        self.wl, self.paths, self.expected, self.rec = wl, paths, expected, rec
        self.attempted = 0
        self.failed = 0
        self.first_rows = {}

    def run_op(self, name: str) -> OpResult:
        self.attempted += 1
        run = {"ingest": lambda: ingest_op(self.paths, self.expected, self.rec),
               "train": lambda: train_op(self.wl, self.paths),
               "eval": lambda: eval_op(self.wl, self.paths, self.expected, self.rec)}[name]
        try:
            res = run()
            first = self.first_rows.setdefault(name, res.rows)
            check(res.rows == first, f"{name} gave {res.rows}, the first run {first}")
        except Exception:  # any failure of the program ends the run
            self.failed += 1
            raise
        return res
