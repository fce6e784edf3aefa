"""Seeded trip-log generator for the benchmark's ingest step.

Writes ``trips.csv`` (``origin,destination,unix_timestamp`` with a header),
``stations.txt`` (one name per line) and ``expected.json`` into a directory.
A fixed share of rows falls outside the span and another outside operating
hours, so the ingest step's kept and dropped counts are known exactly.

The benchmark runs this file in a child process, so generating the log
neither shows up in the timed process's peak memory nor warms its caches:

    python3 perfbench/gen_inputs.py --out DIR --stations 288 --days 6 \
        --rows 300000 --seed 0
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

# A day boundary in UTC (2023-11-14 00:00), so operating hours line up with bins.
SPAN_START = 19675 * 86400
GRANULARITY = 1800
OPERATING_WINDOW = (6, 23)
OUT_OF_SPAN_SHARE = 20  # one row in 20 lies outside [start, end)
OUT_OF_HOURS_SHARE = 10  # one row in 10 lies inside the span but outside 06-23


def station_names(n: int) -> list[str]:
    return [f"M{k:03d}" for k in range(n)]


def write_trip_log(out_dir, stations: int, days: int, rows: int, seed: int) -> dict:
    """Write the three input files and return the expected ingest outcome."""
    rng = np.random.default_rng([seed, stations, days, rows])
    start = SPAN_START
    end = start + days * 86400
    n_out_span = rows // OUT_OF_SPAN_SHARE
    n_out_hours = rows // OUT_OF_HOURS_SHARE
    n_kept = rows - n_out_span - n_out_hours
    open_s, close_s = OPERATING_WINDOW[0] * 3600, OPERATING_WINDOW[1] * 3600

    kept_ts = (start + rng.integers(0, days, n_kept) * 86400
               + rng.integers(open_s, close_s, n_kept))
    # Closed hours are [0, open) and [close, 24h); draw from one range of that
    # length and shift its top part past the open hours.
    closed = rng.integers(0, open_s + 86400 - close_s, n_out_hours)
    closed = np.where(closed >= open_s, closed + close_s - open_s, closed)
    hours_ts = start + rng.integers(0, days, n_out_hours) * 86400 + closed
    before = n_out_span // 2
    span_ts = np.concatenate([
        start - rng.integers(1, 86400 + 1, before),
        end + rng.integers(0, 86400, n_out_span - before),
    ])
    stamps = np.concatenate([kept_ts, hours_ts, span_ts])[rng.permutation(rows)]
    origins = rng.integers(0, stations, rows)
    dests = rng.integers(0, stations, rows)

    names = station_names(stations)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "stations.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(names) + "\n")
    with open(os.path.join(out_dir, "trips.csv"), "w", encoding="utf-8") as fh:
        fh.write("origin,destination,timestamp\n")
        fh.write("".join(f"{names[o]},{names[d]},{t}\n"
                         for o, d, t in zip(origins.tolist(), dests.tolist(),
                                            stamps.tolist())))
    expected = {
        "rows": rows,
        "kept": n_kept,
        "dropped": n_out_span + n_out_hours,
        "start": start,
        "end": end,
        "granularity": GRANULARITY,
        "window": list(OPERATING_WINDOW),
        "stations": stations,
        "days": days,
    }
    with open(os.path.join(out_dir, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh)
    return expected


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True)
    p.add_argument("--stations", type=int, required=True)
    p.add_argument("--days", type=int, required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    a = p.parse_args(argv)
    write_trip_log(a.out, a.stations, a.days, a.rows, a.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
