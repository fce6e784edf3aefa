"""Command-line entry point: synth, ingest, train, eval, sweep.

Runs are driven by an INI config file; every resolved setting is echoed to
the run directory so a run can be reproduced bit-exactly from its own
artifacts. Command-line flags exist only as overrides.

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
operating hours take SyntheticSpec's. Under [data] trips the series is cut to
operating hours only when both are set; under [data] series a grid key that
is set must equal the file's. A value that does not parse as its
field's type, an unknown section or key, and a malformed file are each a
ConfigurationError naming the file or the section and key.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
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
        "entity_mode": "entity_mode", "seed": "seed", "top_k": "top_k"}),
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
    if data.get("series"):
        grid = _grid(cp)
        series = dt.load_series(data["series"])
        ini = (grid.get("granularity"), *grid.get("operating_window", (None, None)))
        found = (series.granularity, *(series.operating_window or (None, None)))
        for key, value, actual in zip(GRID, ini, found):
            if value is not None and value != actual:
                raise dt.ConfigurationError(f"[data] {key} = {value} disagrees with "
                                            f"{data['series']}, which has {actual}")
        return series
    if data.get("trips"):
        missing = [k for k in ("stations", "start_time", "end_time") if not data.get(k)]
        if missing:
            raise dt.ConfigurationError(f"[data] trips needs {', '.join(missing)}")
        grid = _grid(cp)
        return _ingest(data["trips"], data["stations"],
                       _value(cp, "data", "start_time"), _value(cp, "data", "end_time"),
                       grid.get("granularity", dt.SyntheticSpec.granularity),
                       grid.get("operating_window"))[0]
    return dt.synth_generate(_synthetic_spec(cp))


def _model_config(cp: configparser.ConfigParser, series: dt.ODSeries) -> md.ModelConfig:
    values = _fields(cp, "model")
    pairs = values.get("entity_mode") == md.TOP_K_PAIRS
    return md.ModelConfig(values.get("top_k") if pairs else series.n_stations, **values)


def _train_config(cp: configparser.ConfigParser) -> tr.TrainConfig:
    return tr.TrainConfig(**_fields(cp, "train"))


def _write_resolved(path, cp: configparser.ConfigParser,
                    series: dt.ODSeries, model_config: md.ModelConfig,
                    train_config: tr.TrainConfig) -> None:
    out = configparser.ConfigParser()
    data = cp["data"] if cp.has_section("data") else {}
    out["data"] = {}
    for key in ("series", "trips", "stations", "start_time", "end_time"):
        if data.get(key):
            out["data"][key] = data[key]
    out["data"]["granularity"] = str(series.granularity)
    if series.operating_window:
        out["data"]["operating_start"] = str(series.operating_window[0])
        out["data"]["operating_end"] = str(series.operating_window[1])
    configs = {"model": model_config, "train": train_config}
    if cp.has_section("synthetic") or not (data.get("series") or data.get("trips")):
        configs["synthetic"] = _synthetic_spec(cp)
    for section, (_, keys) in KEYS.items():
        if section in configs:
            values = {key: getattr(configs[section], name) for key, name in keys.items()}
            out[section] = {key: str(v).lower() if isinstance(v, bool) else str(v)
                            for key, v in values.items() if v is not None}
    if cp.has_section("run"):
        out["run"] = dict(cp["run"])
    with open(path, "w", encoding="utf-8") as fh:
        out.write(fh)


def _metrics_lines(label: str, rep: ev.MetricsReport) -> str:
    mape = "NA" if rep.mape_percent is None else f"{rep.mape_percent:.6f}"
    return (f"{label},{rep.mae:.6f},{rep.rmse:.6f},{mape},"
            f"{rep.n_total},{rep.n_mape_used}")


def _prepare(cp, model_config=None):
    """Series, normalizer and model config (the INI's unless given)."""
    series = _load_series_from_config(cp)
    stats = dt.fit_normalizer(series, dt.SPLIT[0])
    return series, stats, model_config or _model_config(cp, series)


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
    """The series binned from a trip log, the trips it holds, and the counts of
    trips dropped out of the span and outside operating hours."""
    stations = [name for _, name in dt.read_lines(stations_path)]
    trips = dt.read_trips_with_lines(trips_path, stations)
    series, out_of_span = dt.build_od_series(trips, stations, start_time, end_time,
                                             granularity)
    in_span_flow = trips[2].size - out_of_span  # each kept trip adds 1 to one cell
    if window is not None:
        series = dt.filter_operating_hours(series, window)
    total_flow = int(series.flows.sum())
    return series, total_flow, out_of_span, in_span_flow - total_flow


def cmd_ingest(args) -> int:
    window = tuple(args.window) if args.window else None
    series, total_flow, out_of_span, outside_hours = _ingest(
        args.trips, args.stations, args.start, args.end, args.granularity, window)
    dt.dump_series(series, args.out)
    print(f"stations={series.n_stations} bins={series.n_bins} "
          f"total_flow={total_flow} dropped={out_of_span + outside_hours} "
          f"out_of_span={out_of_span} outside_hours={outside_hours}")
    return EXIT_OK


def cmd_train(args) -> int:
    cp = _read_config(args.config)
    run_dir = args.output_dir or (cp.get("run", "output_dir", fallback=None))
    if not run_dir:
        return _fail("no output directory ([run] output_dir or --output-dir)",
                     EXIT_USAGE)
    series, stats, model_config = _prepare(cp)
    train_config = _train_config(cp)
    _, windows = ev.entity_windows(series, model_config, stats)
    os.makedirs(run_dir, exist_ok=True)
    _write_resolved(os.path.join(run_dir, "resolved.ini"), cp, series,
                    model_config, train_config)
    with open(os.path.join(run_dir, "epochs.log"), "w", encoding="utf-8") as log:
        def on_epoch(rec):
            log.write(f"{rec.epoch},{rec.train_loss:.10f},"
                      f"{rec.val_loss:.10f},{rec.seconds:.3f}\n")
            log.flush()
        params, report, metrics = ev._train_and_score(model_config, train_config, stats,
                                                      windows, epoch_callback=on_epoch)
    md.save_checkpoint(os.path.join(run_dir, "model.ckpt"), params, model_config)
    with open(os.path.join(run_dir, "metrics.csv"), "w", encoding="utf-8") as fh:
        fh.write("label,mae,rmse,mape_percent,n_total,n_mape_used\n")
        fh.write(_metrics_lines("model", metrics) + "\n")
    print(f"best_epoch={report.best_epoch} stop={report.stop_reason} "
          f"test_mae={metrics.mae:.4f} test_rmse={metrics.rmse:.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cp = _read_config(args.config)
    params, model_config = md.load_checkpoint(args.checkpoint)
    series, stats, _ = _prepare(cp, model_config)
    flows, (train_s, val_s, test_s) = ev.entity_windows(series, model_config, stats)
    preds = tr.predict(model_config, params, test_s)
    targets = np.stack([s.y for s in test_s])
    lines = [_metrics_lines("model", ev.compute_metrics(preds, targets, stats))]
    for kind in (args.baseline or []):
        baseline = ev.fit_baseline(
            kind, series=series, flows=flows, stats=stats,
            train_samples=train_s, val_samples=val_s,
            train_config=_train_config(cp))
        bp = baseline.predict(test_s)
        lines.append(_metrics_lines(kind, ev.compute_metrics(bp, targets, stats)))
    body = "label,mae,rmse,mape_percent,n_total,n_mape_used\n" + "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)
    print(body, end="")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cp = _read_config(args.config)
    run_dir = args.output_dir or cp.get("run", "output_dir", fallback=None)
    if not run_dir:
        return _fail("no output directory ([run] output_dir or --output-dir)",
                     EXIT_USAGE)
    series, stats, model_config = _prepare(cp)
    train_config = _train_config(cp)
    os.makedirs(run_dir, exist_ok=True)
    if args.kind == "hp":
        result = ev.run_hp_sweep(series, stats, model_config, train_config)
        out_name = "hp_sweep.csv"
    elif args.kind == "ablate":
        result = ev.run_ablations(
            series, stats, model_config, train_config,
            embedding_dump_path=os.path.join(run_dir, "adaptive_embedding.bin"))
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
    ev.write_sweep(os.path.join(run_dir, out_name), result)
    _print_sweep_summary(result)
    return EXIT_OK


def _print_sweep_summary(result: ev.SweepResult) -> None:
    print(ev.format_sweep(result), end="")
    best_mae = min(result.rows, key=lambda r: r[1].mae)
    best_rmse = min(result.rows, key=lambda r: r[1].rmse)
    print(f"best mae: {best_mae[0]} -> {best_mae[1].mae:.4f}")
    print(f"best rmse: {best_rmse[0]} -> {best_rmse[1].rmse:.4f}")
    for desc, reason in result.skipped:
        print(f"skipped {desc}: {reason}")


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


if __name__ == "__main__":
    raise SystemExit(main())
