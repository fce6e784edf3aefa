"""Command-line entry point: synth, ingest, train, eval, sweep.

Runs are driven by an INI config file; every resolved setting is echoed to
the run directory so a run can be reproduced bit-exactly from its own
artifacts, with the same BLAS thread count: OpenBLAS may split a matrix
product differently across threads, so ``model.ckpt`` bytes can differ
between one and two threads. Command-line flags exist only as overrides.

Config sections and keys (all optional unless noted):

  [data]      series = <path>          OR  trips = / stations = <paths>
              start_time = / end_time = <epoch s, required with trips>
              granularity   operating_start   operating_end
  [synthetic] stations   days   seed   noise_std
  [model]     history   horizon   d_input   d_adaptive   spatial_hidden
              use_input_embedding   use_adaptive_embedding
              entity_mode = station_rows | top_k_pairs   top_k   seed
  [train]     batch_size   lr   max_epochs   patience   loss   shuffle_seed
  [run]       output_dir = <path, required for train/sweep>

``KEYS`` maps the [synthetic], [model] and [train] keys onto the fields of
``data.SyntheticSpec``, ``model.ModelConfig`` and ``training.TrainConfig``;
an absent or blank key takes its field's default, and [data] granularity and
operating hours take SyntheticSpec's. [model] top_k sets n_entities, so it is
set, to at least 1, exactly when entity_mode = top_k_pairs; station rows take
n_entities from the series. Under [data] trips the series is cut to
operating hours only when both are set; under [data] series a grid key that
is set must equal the file's, and neither [data] series nor a synthetic
source takes trips, stations, start_time or end_time. A value that does not
parse as its field's type, an unknown section or key, and a malformed file
are each a ConfigurationError naming the file or the section and key.

train, sweep and eval read their INI through one resolver, ``_prepare``, so
each accepts the same INIs and rejects the rest with the same error. Every
setting is checked before a station list, trip log or series file is read or
a series made, and train's and sweep's run directory first of all, but two:
[model], whose shapes take the series' station count, after the series, and
--out of ingest and eval, when it is written. eval takes its model from the
checkpoint, and each [model] key the INI sets must agree with it.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import errno
import math
import os
import sys

import numpy as np

from . import data as dt
from . import diffmath as dm
from . import evaluation as ev
from . import model as md
from . import training as tr

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2

# INI section -> (config dataclass, {key: field}), in the order resolved.ini lists them
KEYS = {
    "synthetic": (dt.SyntheticSpec, {"stations": "n_stations", "days": "days",
                                     "seed": "seed", "noise_std": "noise_std"}),
    "model": (md.ModelConfig, {
        "history": "history", "horizon": "horizon", "d_input": "d_input",
        "d_adaptive": "d_adaptive", "spatial_hidden": "spatial_hidden",
        "use_input_embedding": "use_input_embedding",
        "use_adaptive_embedding": "use_adaptive_embedding",
        "entity_mode": "entity_mode", "seed": "seed", "top_k": "n_entities"}),
    "train": (tr.TrainConfig, {
        "batch_size": "batch_size", "lr": "lr", "max_epochs": "max_epochs",
        "patience": "patience", "loss": "loss_kind", "shuffle_seed": "shuffle_seed"}),
}
GRID = ("granularity", "operating_start", "operating_end")
SECTIONS = {"data": ("series", "trips", "stations", "start_time", "end_time", *GRID),
            "run": ("output_dir",), **{section: keys for section, (_, keys) in KEYS.items()}}
_WHAT = {"int": "an integer", "float": "a finite number", "bool": "a boolean"}


def _fail(msg: str, code: int = EXIT_ERROR) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _read_config(path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
            cp.read_file(fh)
        for section in cp:  # DEFAULT first: it may exist, but hold no key
            if section not in SECTIONS and section != cp.default_section:
                raise dt.ConfigurationError(f"{path}: unknown section [{section}]")
            for key, _ in cp.items(section):
                if key not in SECTIONS.get(section, ()):
                    raise dt.ConfigurationError(f"{path}: unknown key [{section}] {key}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise dt.ConfigurationError(f"{path}: {' '.join(str(exc).split())}") from exc
    return cp


def _value(cp: configparser.ConfigParser, section: str, key: str, kind: str = "int"):
    """``[section] key`` as ``kind`` (int, float, bool or str); None when absent or blank."""
    raw = cp.get(section, key, fallback="")
    if not raw or kind == "str":
        return raw or None
    try:
        if kind == "bool":
            return cp.BOOLEAN_STATES[raw.lower()]
        value = int(raw) if kind == "int" else float(raw)
        if math.isfinite(value):
            return value
    except (KeyError, ValueError):
        pass
    raise dt.ConfigurationError(f"[{section}] {key} = {raw!r} is not {_WHAT[kind]}")


def _fields(cp: configparser.ConfigParser, section: str) -> dict:
    """The fields of ``KEYS[section]``'s dataclass that the INI sets."""
    cls, keys = KEYS[section]
    # annotations are strings here: "int | None" is an int field
    kinds = {f.name: f.type.split(" | ")[0] for f in dataclasses.fields(cls)}
    values = {name: _value(cp, section, key, kinds[name]) for key, name in keys.items()}
    return {name: value for name, value in values.items() if value is not None}


def _grid(cp: configparser.ConfigParser) -> dict:
    """The SyntheticSpec ``granularity`` and ``operating_window`` that [data] sets."""
    granularity, start_h, end_h = (_value(cp, "data", key) for key in GRID)
    if (start_h is None) != (end_h is None):
        raise dt.ConfigurationError("[data] operating_start and operating_end go together")
    grid = {} if granularity is None else {"granularity": granularity}
    return grid if start_h is None else {**grid, "operating_window": (start_h, end_h)}


def _synthetic_spec(cp: configparser.ConfigParser) -> dt.SyntheticSpec:
    return dt.SyntheticSpec(**_fields(cp, "synthetic"), **_grid(cp))


def _load_series_from_config(cp: configparser.ConfigParser) -> dt.ODSeries:
    data = cp["data"] if cp.has_section("data") else {}
    unread = [key for key in ("trips", "stations", "start_time", "end_time") if data.get(key)]
    if unread and (data.get("series") or not data.get("trips")):  # a trip log reads all four
        source = f"[data] series = {data['series']}" if data.get("series") else "a synthetic source"
        raise dt.ConfigurationError(f"{source} reads no [data] {', '.join(unread)}")
    missing = [k for k in ("stations", "start_time", "end_time") if not data.get(k)]
    if data.get("trips") and missing:
        raise dt.ConfigurationError(f"[data] trips needs {', '.join(missing)}")
    grid = _grid(cp)
    ends = (_value(cp, "data", "start_time"), _value(cp, "data", "end_time"))
    if cp.has_section("synthetic") or not (data.get("series") or data.get("trips")):
        spec = dt.SyntheticSpec(**_fields(cp, "synthetic"), **grid)  # resolved.ini echoes it
    if data.get("series"):
        series = dt.load_series(data["series"])
        ini = (grid.get("granularity"), *grid.get("operating_window", (None, None)))
        found = (series.grid.granularity, *(series.grid.window or (None, None)))
        for key, value, actual in zip(GRID, ini, found):
            if value is not None and value != actual:
                raise dt.ConfigurationError(f"[data] {key} = {value} disagrees with "
                                            f"{data['series']}, which has {actual}")
        return series
    if data.get("trips"):
        return _ingest(data["trips"], data["stations"], *ends,
                       grid.get("granularity", dt.SyntheticSpec.granularity),
                       grid.get("operating_window"))[0].dense()
    return dt.synth_generate(spec)


def _model_config(cp: configparser.ConfigParser, series: dt.ODSeries) -> md.ModelConfig:
    values = _fields(cp, "model")
    mode, top_k = values.get("entity_mode", md.STATION_ROWS), values.get("n_entities")
    if mode != md.TOP_K_PAIRS and top_k is not None:
        raise dt.ConfigurationError(f"[model] top_k = {top_k} needs entity_mode "
                                    f"{md.TOP_K_PAIRS}, not {mode}")
    if mode == md.TOP_K_PAIRS and (top_k is None or top_k < 1):
        raise dt.ConfigurationError(f"entity_mode {md.TOP_K_PAIRS} needs [model] top_k "
                                    f">= 1, got {top_k}")
    return md.ModelConfig(**{"n_entities": series.n_stations, **values})


def _resolved(cp: configparser.ConfigParser, series: dt.ODSeries,
              model_config: md.ModelConfig,
              train_config: tr.TrainConfig) -> configparser.ConfigParser:
    """Every setting the run used, as ``resolved.ini`` writes it."""
    out = configparser.ConfigParser()
    data = cp["data"] if cp.has_section("data") else {}
    out["data"] = {}
    for key in ("series", "trips", "stations", "start_time", "end_time"):
        if data.get(key):
            out["data"][key] = data[key]
    out["data"]["granularity"] = str(series.grid.granularity)
    if series.grid.window:
        out["data"]["operating_start"] = str(series.grid.window[0])
        out["data"]["operating_end"] = str(series.grid.window[1])
    configs = {"model": model_config, "train": train_config}
    if cp.has_section("synthetic") or not (data.get("series") or data.get("trips")):
        configs["synthetic"] = _synthetic_spec(cp)
    for section, (_, keys) in KEYS.items():
        if section in configs:
            values = {key: getattr(configs[section], name) for key, name in keys.items()}
            out[section] = {key: str(v).lower() if isinstance(v, bool) else str(v)
                            for key, v in values.items()}
    if model_config.entity_mode != md.TOP_K_PAIRS:  # n_entities is the series'
        del out["model"]["top_k"]
    if cp.has_section("run"):
        out["run"] = dict(cp["run"])
    return out


def _metrics_lines(label: str, rep: ev.MetricsReport) -> str:
    return ",".join([label, *ev.metric_cells(rep), str(rep.n_total), str(rep.n_mape_used)])


def _metrics_csv(lines: list[str]) -> str:
    """The ``metrics.csv`` table: its header, then ``lines``."""
    return "\n".join(["label,mae,rmse,mape_percent,n_total,n_mape_used", *lines]) + "\n"


def _prepare(cp):
    """Series, normalizer, and model and train configs of the INI ``cp``: the
    one reading of a run config, which train, sweep and eval share."""
    train_config = tr.TrainConfig(**_fields(cp, "train"))
    series = _load_series_from_config(cp)
    stats = dt.fit_normalizer(series, dt.SPLIT[0])
    model_config = _model_config(cp, series)
    return series, stats, model_config, train_config


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    series = dt.synth_generate(_synthetic_spec(_read_config(args.spec)))
    dt.dump_series(series, args.out)
    print(f"stations={series.n_stations} bins={series.n_bins} "
          f"total_flow={series.flows.sum():.0f}")
    return EXIT_OK


def _ingest(trips_path, stations_path, start_time, end_time, granularity,
            window):
    """The sparse series binned from a trip log, the count of trips it kept,
    and the counts of trips dropped out of the span and outside operating hours."""
    grid = dt.Grid(start_time, granularity, window)  # refused before any input is read
    span = end_time - start_time
    if start_time >= end_time:
        raise dt.ConfigurationError("start_time must precede end_time")
    # its length too, so every offset into it and every bin start stays in int64
    if not dt.INT64_MIN < start_time < end_time <= dt.INT64_MAX or span > dt.INT64_MAX:
        raise dt.ConfigurationError(f"span [{start_time}, {end_time}) is beyond int64 seconds")
    if span % granularity:
        raise dt.ConfigurationError(
            f"granularity {granularity} does not tile the span of {span} seconds")
    stations = dt.read_stations(stations_path)
    trips = dt.read_trips_with_lines(trips_path, stations)
    series, out_of_span, outside_hours = dt.build_od_series(trips, stations, grid, end_time)
    # each kept trip adds exactly 1.0 to the series, so this count is its sum
    return series, len(trips[0]) - out_of_span - outside_hours, out_of_span, outside_hours


def cmd_ingest(args) -> int:
    series, kept, out_of_span, outside_hours = _ingest(
        args.trips, args.stations, args.start, args.end, args.granularity,
        tuple(args.window) if args.window else None)
    dt.dump_series(series, args.out)
    print(f"stations={len(series.stations)} bins={series.dims[0]} "
          f"total_flow={kept} dropped={out_of_span + outside_hours} "
          f"out_of_span={out_of_span} outside_hours={outside_hours}")
    return EXIT_OK


def cmd_train(args) -> int:
    cp = _read_config(args.config)
    run_dir = args.output_dir or (cp.get("run", "output_dir", fallback=None))
    if not run_dir:
        return _fail("no output directory ([run] output_dir or --output-dir)",
                     EXIT_USAGE)
    _check_makedirs(run_dir)
    series, stats, model_config, train_config = _prepare(cp)
    _, windows = ev.entity_windows(series, model_config, stats)
    # parameters too large to hold fail here, before the run directory is made
    params = md.init_params(model_config)
    os.makedirs(run_dir, exist_ok=True)
    for name in ("model.ckpt", "metrics.csv"):  # a failed rerun leaves none of an earlier run's
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(run_dir, name))
    dt.write_atomically(os.path.join(run_dir, "resolved.ini"),
                        _resolved(cp, series, model_config, train_config).write)
    with open(os.path.join(run_dir, "epochs.log"), "w", encoding="utf-8") as log:
        def on_epoch(rec):
            log.write(f"{rec.epoch},{rec.train_loss:.10f},"
                      f"{rec.val_loss:.10f},{rec.seconds:.3f}\n")
            log.flush()
        params, report, metrics = ev._train_and_score(params, model_config, train_config,
                                                      stats, windows, epoch_callback=on_epoch)
    md.save_checkpoint(os.path.join(run_dir, "model.ckpt"), params, model_config)
    dt.write_atomically(os.path.join(run_dir, "metrics.csv"),
                        lambda fh: fh.write(_metrics_csv([_metrics_lines("model", metrics)])))
    print(f"best_epoch={report.best_epoch} stop={report.stop_reason} "
          f"test_mae={metrics.mae:.4f} test_rmse={metrics.rmse:.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cp = _read_config(args.config)
    params, model_config = md.load_checkpoint(args.checkpoint)
    series, stats, ini_config, train_config = _prepare(cp)
    for key, name in KEYS["model"][1].items():  # each [model] key the INI sets
        value, actual = getattr(ini_config, name), getattr(model_config, name)
        if cp.get("model", key, fallback="") and value != actual:
            raise dt.ConfigurationError(f"[model] {key} = {value} disagrees with "
                                        f"{args.checkpoint}, which has {actual}")
    flows, (train_s, val_s, test_s) = ev.entity_windows(series, model_config, stats)
    preds = tr.predict(model_config, params, test_s)
    targets = np.stack([s.y for s in test_s])
    lines = [_metrics_lines("model", ev.compute_metrics(preds, targets, stats))]
    for kind in (args.baseline or []):
        baseline = ev.fit_baseline(
            kind, series=series, flows=flows, stats=stats,
            train_samples=train_s, val_samples=val_s, train_config=train_config)
        bp = baseline.predict(test_s)
        lines.append(_metrics_lines(kind, ev.compute_metrics(bp, targets, stats)))
    body = _metrics_csv(lines)
    if args.out:
        dt.write_atomically(args.out, lambda fh: fh.write(body))
    print(body, end="")
    return EXIT_OK


def _check_makedirs(path: str) -> None:
    """Raise the error ``os.makedirs(path, exist_ok=True)`` would raise where
    ``path`` or its nearest existing ancestor is not a directory; makes nothing."""
    missing, head = None, path
    while head and not os.path.lexists(head.rstrip(os.sep) or os.sep):  # false below a file
        missing, head = head, os.path.dirname(head.rstrip(os.sep))
    if head and not os.path.isdir(head):
        code = errno.ENOTDIR if missing else errno.EEXIST
        raise OSError(code, os.strerror(code), missing or head)


def cmd_sweep(args) -> int:
    cp = _read_config(args.config)
    run_dir = args.output_dir or cp.get("run", "output_dir", fallback=None)
    if not run_dir:
        return _fail("no output directory ([run] output_dir or --output-dir)",
                     EXIT_USAGE)
    _check_makedirs(run_dir)
    series, stats, model_config, train_config = _prepare(cp)
    if args.kind == "hp":
        result = ev.run_hp_sweep(series, stats, model_config, train_config)
        out_name = "hp_sweep.csv"
    elif args.kind == "ablate":
        result = ev.run_ablations(series, stats, model_config, train_config)
        out_name = "ablations.csv"
    else:
        axis = "adaptive_dim" if args.axis == "adaptive" else "input_dim"
        result = ev.run_dim_sweep(series, stats, model_config, train_config,
                                  axis=axis)
        out_name = f"dim_sweep_{axis}.csv"
    if not result.rows:
        desc, reason = result.skipped[0]
        raise dt.ConfigurationError(f"{args.kind} sweep trained no row; "
                                    f"first skipped {desc}: {reason}")
    table = ev.format_sweep(result)
    os.makedirs(run_dir, exist_ok=True)
    dt.write_atomically(os.path.join(run_dir, out_name), lambda fh: fh.write(table))
    if result.full_params:  # not model.ckpt: a train run may share the directory
        md.save_checkpoint(os.path.join(run_dir, "ablation_full.ckpt"),
                           result.full_params, model_config)
    print(table, end="")
    best_mae = min(result.rows, key=lambda r: r[1].mae)
    best_rmse = min(result.rows, key=lambda r: r[1].rmse)
    print(f"best mae: {best_mae[0]} -> {best_mae[1].mae:.4f}")
    print(f"best rmse: {best_rmse[0]} -> {best_rmse[1].rmse:.4f}")
    for desc, reason in result.skipped:
        print(f"skipped {desc}: {reason}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="umod", description="Metro OD flow forecasting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic series file")
    p.add_argument("spec", help="INI file with a [synthetic] section")
    p.add_argument("out", help="output series path")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("ingest", help="build a series file from trip records")
    p.add_argument("--trips", required=True)
    p.add_argument("--stations", required=True)
    p.add_argument("--start", type=int, required=True, help="span start, epoch seconds")
    p.add_argument("--end", type=int, required=True, help="span end, epoch seconds")
    p.add_argument("--granularity", type=int, default=dt.SyntheticSpec.granularity)
    p.add_argument("--window", type=int, nargs=2, metavar=("START_H", "END_H"))
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("train", help="train a model from a run config")
    p.add_argument("config")
    p.add_argument("--output-dir")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p.add_argument("checkpoint")
    p.add_argument("config")
    p.add_argument("--baseline", action="append",
                   choices=list(ev.BASELINE_KINDS))
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", help="run an experiment harness")
    p.add_argument("kind", choices=["hp", "ablate", "dims"])
    p.add_argument("config")
    p.add_argument("--axis", choices=["input", "adaptive"], default="adaptive")
    p.add_argument("--output-dir")
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        return _fail(f"file not found: {exc.filename}", EXIT_USAGE)
    except OSError as exc:
        return _fail(f"{exc.filename}: {exc.strerror}", EXIT_USAGE)
    except (dt.ConfigurationError, dt.IngestionError, dt.SeriesFormatError,
            md.CheckpointError, dm.NumericError) as exc:
        return _fail(str(exc))
    except MemoryError as exc:  # e.g. a span or a series header too large to hold
        return _fail(f"out of memory: {str(exc) or 'an allocation failed'}")


if __name__ == "__main__":
    raise SystemExit(main())
