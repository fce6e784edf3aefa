"""Command-line entry point: synth, ingest, train, eval, sweep.

Runs are driven by an INI config file; every resolved setting is echoed to
the run directory so a run can be reproduced bit-exactly from its own
artifacts. Command-line flags exist only as overrides.

Config sections and keys (all optional unless noted):

  [data]      series = <path>          OR  trips = / stations = <paths>
              operating_start = 6      operating_end = 23
              granularity = 1800       start_time = / end_time = <epoch s>
  [synthetic] stations = 8   days = 14   seed = 0   noise_std = 0.5
  [model]     history = 2  horizon = 2  d_input = 24  d_adaptive = 80
              spatial_hidden =   use_input_embedding = true
              use_adaptive_embedding = true
              entity_mode = station_rows | top_k_pairs   top_k =   seed = 0
  [train]     batch_size = 16  lr = 0.001  max_epochs = 100  patience = 20
              loss = mean_absolute  shuffle_seed = 0
  [run]       output_dir = <path, required for train/sweep>
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

import numpy as np

from . import data as dt
from . import evaluation as ev
from . import model as md
from . import training as tr

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2


def _fail(msg: str, code: int = EXIT_ERROR) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _read_config(path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8") as fh:
        cp.read_file(fh)
    return cp


def _synthetic_spec(cp: configparser.ConfigParser) -> dt.SyntheticSpec:
    sec = cp["synthetic"] if cp.has_section("synthetic") else {}
    data = cp["data"] if cp.has_section("data") else {}
    start_h = int(data.get("operating_start", 6))
    end_h = int(data.get("operating_end", 23))
    return dt.SyntheticSpec(
        n_stations=int(sec.get("stations", 8)),
        days=int(sec.get("days", 14)),
        granularity=int(data.get("granularity", 1800)),
        seed=int(sec.get("seed", 0)),
        noise_std=float(sec.get("noise_std", 0.5)),
        operating_window=(start_h, end_h),
    )


def _load_series_from_config(cp: configparser.ConfigParser) -> dt.ODSeries:
    data = cp["data"] if cp.has_section("data") else {}
    if data.get("series"):
        return dt.load_series(data["series"])
    if data.get("trips"):
        series, _ = _ingest(data["trips"], data["stations"],
                            int(data["start_time"]), int(data["end_time"]),
                            int(data.get("granularity", 1800)),
                            (int(data["operating_start"]), int(data["operating_end"]))
                            if data.get("operating_start") else None)
        return series
    return dt.synth_generate(_synthetic_spec(cp))


def _model_config(cp: configparser.ConfigParser, series: dt.ODSeries) -> md.ModelConfig:
    sec = cp["model"] if cp.has_section("model") else {}
    mode = sec.get("entity_mode", md.STATION_ROWS)
    top_k = int(sec["top_k"]) if sec.get("top_k") else None
    n_entities = series.n_stations if mode == md.STATION_ROWS else top_k
    kwargs = dict(
        n_entities=n_entities,
        history=int(sec.get("history", 2)),
        horizon=int(sec.get("horizon", 2)),
        d_input=int(sec.get("d_input", 24)),
        d_adaptive=int(sec.get("d_adaptive", 80)),
        use_input_embedding=_parse_bool(sec.get("use_input_embedding", "true")),
        use_adaptive_embedding=_parse_bool(sec.get("use_adaptive_embedding", "true")),
        entity_mode=mode,
        top_k=top_k,
        seed=int(sec.get("seed", 0)),
    )
    if sec.get("spatial_hidden"):
        kwargs["spatial_hidden"] = int(sec["spatial_hidden"])
    return md.ModelConfig(**kwargs)


def _train_config(cp: configparser.ConfigParser) -> tr.TrainConfig:
    sec = cp["train"] if cp.has_section("train") else {}
    return tr.TrainConfig(
        batch_size=int(sec.get("batch_size", 16)),
        lr=float(sec.get("lr", 0.001)),
        max_epochs=int(sec.get("max_epochs", 100)),
        patience=int(sec.get("patience", 20)),
        loss_kind=sec.get("loss", tr.MEAN_ABSOLUTE),
        shuffle_seed=int(sec.get("shuffle_seed", 0)),
    )


def _parse_bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise dt.ConfigurationError(f"not a boolean: {s!r}")


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
    if cp.has_section("synthetic") or not (data.get("series") or data.get("trips")):
        spec = _synthetic_spec(cp)
        out["synthetic"] = {
            "stations": str(spec.n_stations),
            "days": str(spec.days),
            "seed": str(spec.seed),
            "noise_std": repr(spec.noise_std),
        }
    out["model"] = {
        "history": str(model_config.history),
        "horizon": str(model_config.horizon),
        "d_input": str(model_config.d_input),
        "d_adaptive": str(model_config.d_adaptive),
        "spatial_hidden": str(model_config.spatial_hidden),
        "use_input_embedding": str(model_config.use_input_embedding).lower(),
        "use_adaptive_embedding": str(model_config.use_adaptive_embedding).lower(),
        "entity_mode": model_config.entity_mode,
        "seed": str(model_config.seed),
    }
    if model_config.top_k is not None:
        out["model"]["top_k"] = str(model_config.top_k)
    out["train"] = {
        "batch_size": str(train_config.batch_size),
        "lr": repr(train_config.lr),
        "max_epochs": str(train_config.max_epochs),
        "patience": str(train_config.patience),
        "loss": train_config.loss_kind,
        "shuffle_seed": str(train_config.shuffle_seed),
    }
    if cp.has_section("run"):
        out["run"] = dict(cp["run"])
    with open(path, "w", encoding="utf-8") as fh:
        out.write(fh)


def _metrics_lines(label: str, rep: ev.MetricsReport) -> str:
    mape = "NA" if rep.mape_percent is None else f"{rep.mape_percent:.6f}"
    return (f"{label},{rep.mae:.6f},{rep.rmse:.6f},{mape},"
            f"{rep.n_total},{rep.n_mape_used}")


def _prepare(cp):
    series = _load_series_from_config(cp)
    stats = dt.fit_normalizer(series, dt.SPLIT[0])
    model_config = _model_config(cp, series)
    return series, stats, model_config, md.entity_flows(series, model_config)


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    if not os.path.exists(args.spec):
        return _fail(f"spec file not found: {args.spec}", EXIT_USAGE)
    cp = _read_config(args.spec)
    try:
        spec = _synthetic_spec(cp)
        series = dt.synth_generate(spec)
        dt.dump_series(series, args.out)
    except (dt.ConfigurationError, ValueError) as exc:
        return _fail(str(exc))
    print(f"stations={series.n_stations} bins={series.n_bins} "
          f"total_flow={series.flows.sum():.0f}")
    return EXIT_OK


def _ingest(trips_path, stations_path, start_time, end_time, granularity,
            window):
    with open(stations_path, "r", encoding="utf-8") as fh:
        stations = [line.strip() for line in fh if line.strip()]
    known = set(stations)
    trips = []
    for trip, lineno in dt.read_trips_with_lines(trips_path):
        for station in (trip.origin, trip.destination):
            if station not in known:
                raise dt.IngestionError(
                    f"unknown station {station!r} at line {lineno}")
        trips.append(trip)
    series, dropped = dt.build_od_series(trips, stations, start_time, end_time,
                                         granularity)
    pre_filter_flow = series.flows.sum()
    if window is not None:
        series = dt.filter_operating_hours(series, window)
        dropped += int(pre_filter_flow - series.flows.sum())
    return series, dropped


def cmd_ingest(args) -> int:
    for path in (args.trips, args.stations):
        if not os.path.exists(path):
            return _fail(f"input file not found: {path}", EXIT_USAGE)
    window = tuple(args.window) if args.window else None
    try:
        series, dropped = _ingest(args.trips, args.stations, args.start,
                                  args.end, args.granularity, window)
        dt.dump_series(series, args.out)
    except (dt.IngestionError, dt.ConfigurationError) as exc:
        return _fail(str(exc))
    print(f"stations={series.n_stations} bins={series.n_bins} "
          f"total_flow={series.flows.sum():.0f} dropped={dropped}")
    return EXIT_OK


def cmd_train(args) -> int:
    if not os.path.exists(args.config):
        return _fail(f"config file not found: {args.config}", EXIT_USAGE)
    cp = _read_config(args.config)
    run_dir = args.output_dir or (cp.get("run", "output_dir", fallback=None))
    if not run_dir:
        return _fail("no output directory ([run] output_dir or --output-dir)",
                     EXIT_USAGE)
    try:
        series, stats, model_config, flows = _prepare(cp)
        train_config = _train_config(cp)
        train_s, val_s, test_s = dt.split_and_window(
            flows, stats, dt.SPLIT,
            model_config.history, model_config.horizon)
    except (dt.ConfigurationError, dt.SeriesFormatError) as exc:
        return _fail(str(exc))
    os.makedirs(run_dir, exist_ok=True)
    _write_resolved(os.path.join(run_dir, "resolved.ini"), cp, series,
                    model_config, train_config)
    params = md.init_params(model_config)
    log_path = os.path.join(run_dir, "epochs.log")
    with open(log_path, "w", encoding="utf-8") as log:
        def on_epoch(rec):
            log.write(f"{rec.epoch},{rec.train_loss:.10f},"
                      f"{rec.val_loss:.10f},{rec.seconds:.3f}\n")
            log.flush()
        params, report = tr.train(model_config, params, train_s, val_s,
                                  train_config, epoch_callback=on_epoch)
    md.save_checkpoint(os.path.join(run_dir, "model.ckpt"), params, model_config)
    preds = tr.predict(model_config, params, test_s)
    targets = np.stack([s.y for s in test_s])
    metrics = ev.compute_metrics(preds, targets, stats)
    with open(os.path.join(run_dir, "metrics.csv"), "w", encoding="utf-8") as fh:
        fh.write("label,mae,rmse,mape_percent,n_total,n_mape_used\n")
        fh.write(_metrics_lines("model", metrics) + "\n")
    print(f"best_epoch={report.best_epoch} stop={report.stop_reason} "
          f"test_mae={metrics.mae:.4f} test_rmse={metrics.rmse:.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    for path in (args.checkpoint, args.config):
        if not os.path.exists(path):
            return _fail(f"file not found: {path}", EXIT_USAGE)
    cp = _read_config(args.config)
    try:
        params, model_config = md.load_checkpoint(args.checkpoint)
        series, stats, _, flows = _prepare(cp)
        train_s, val_s, test_s = dt.split_and_window(
            flows, stats, dt.SPLIT,
            model_config.history, model_config.horizon)
    except (md.CheckpointError, dt.ConfigurationError,
            dt.SeriesFormatError) as exc:
        return _fail(str(exc))
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
    if not os.path.exists(args.config):
        return _fail(f"config file not found: {args.config}", EXIT_USAGE)
    cp = _read_config(args.config)
    run_dir = args.output_dir or cp.get("run", "output_dir", fallback=None)
    if not run_dir:
        return _fail("no output directory ([run] output_dir or --output-dir)",
                     EXIT_USAGE)
    try:
        series, stats, model_config, _ = _prepare(cp)
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
    except (dt.ConfigurationError, dt.SeriesFormatError) as exc:
        return _fail(str(exc))
    out_path = os.path.join(run_dir, out_name)
    ev.write_sweep(out_path, result)
    _print_sweep_summary(result)
    return EXIT_OK


def _print_sweep_summary(result: ev.SweepResult) -> None:
    print(ev.format_sweep(result), end="")
    if result.rows:
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
    p.add_argument("--granularity", type=int, default=1800)
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
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
