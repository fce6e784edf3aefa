"""The benchmark measures what users run.

The benchmark's call sequences must write the same ``metrics.csv`` rows and
the same checkpoint as the ``umod train`` and ``umod eval`` commands, and the
traced run must not change any output. Run from the repository root:

    python3 -m pytest perfbench/test_equivalence.py
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen_inputs  # noqa: E402
import ops  # noqa: E402
from tracer import Recorder  # noqa: E402
from umod import cli, data, diffmath, evaluation, model, training  # noqa: E402
from workloads import Workload  # noqa: E402

WL = Workload("equivalence", stations=8, train_days=14, train_granularity=3600, epochs=2,
              trip_days=14, trip_rows=5_000)
SEED = 3


def _setup(tmp_path):
    expected = gen_inputs.write_trip_log(tmp_path, WL.stations, WL.trip_days,
                                         WL.trip_rows, SEED)
    paths = ops.Paths(trips=str(tmp_path / "trips.csv"),
                      stations=str(tmp_path / "stations.txt"),
                      series=str(tmp_path / "series.bin"),
                      checkpoint=str(tmp_path / "model.ckpt"))
    return expected, paths


def _cycle(paths, expected, rec):
    with rec.span("cycle"):
        ingest = ops.ingest_op(paths, expected, rec)
        train = ops.train_op(WL, paths)
        evaluated = ops.eval_op(WL, paths, expected, rec)
    return ingest.rows, train.rows, evaluated.rows


def _csv(rows):
    return [cli._metrics_lines(label, evaluation.MetricsReport(*rest))
            for label, *rest in rows]


def test_sequences_match_commands(tmp_path):
    expected, paths = _setup(tmp_path)
    _, train_rows, eval_rows = _cycle(paths, expected, Recorder(enabled=False))

    run_dir = tmp_path / "run"
    (tmp_path / "train.ini").write_text(
        f"[synthetic]\nstations = {WL.stations}\ndays = {WL.train_days}\n"
        f"seed = {ops.PROTOCOL_SEED}\nnoise_std = 0.5\n\n"
        f"[data]\ngranularity = {WL.train_granularity}\n\n"
        f"[train]\nmax_epochs = {WL.epochs}\npatience = {WL.epochs}\n\n"
        f"[run]\noutput_dir = {run_dir}\n", encoding="utf-8")
    assert cli.main(["train", str(tmp_path / "train.ini")]) == 0
    lines = (run_dir / "metrics.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1:] == _csv(train_rows)
    assert (run_dir / "model.ckpt").read_bytes() == Path(paths.checkpoint).read_bytes()

    (tmp_path / "eval.ini").write_text(f"[data]\nseries = {paths.series}\n",
                                       encoding="utf-8")
    out = tmp_path / "eval.csv"
    assert cli.main(["eval", str(run_dir / "model.ckpt"), str(tmp_path / "eval.ini"),
                     "--baseline", "historical_average", "--baseline", "last_value",
                     "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").splitlines()[1:] == _csv(eval_rows)


def test_traced_cycles_match_untraced(tmp_path):
    expected, paths = _setup(tmp_path)
    untraced = _cycle(paths, expected, Recorder(enabled=False))
    matmul = diffmath.matmul

    rec = Recorder(enabled=True)
    rec.memory = True
    rec.install(diffmath, (data, model, training, evaluation))
    try:
        memory_cycle = _cycle(paths, expected, rec)
        rec.memory = False
        timed_cycle = _cycle(paths, expected, rec)
    finally:
        rec.uninstall()
    assert diffmath.matmul is matmul
    assert memory_cycle == timed_cycle == untraced

    metrics, steps = rec.layer_metrics(1.0)
    bins = WL.train_days * 17 * 3600 // WL.train_granularity  # open 06-23
    n_train = int(math.floor(bins * 0.7)) - 2 - 2 + 1
    assert steps == [WL.epochs * math.ceil(n_train / 16)] * 2
    assert metrics["training.epochs"][0] == WL.epochs
    assert metrics["diffmath.transpose.calls"][0] == 7
    assert metrics["data.trips_kept"][0] == expected["kept"]
    assert metrics["data.trips_dropped"][0] == expected["dropped"]
    assert all(v > 0 for v, _ in metrics.values())
