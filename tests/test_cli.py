import codecs
import configparser
import contextlib
import dataclasses
import io
import hashlib
import importlib.util
import json
import os
import re
import shutil
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from umod import cli
from umod import data as dt
from umod import evaluation as ev
from umod import model as md
from umod import training as tr


SMALL_RUN = """
[data]
granularity = 3600
operating_start = 6
operating_end = 18

[synthetic]
stations = 3
days = 8
seed = 3
noise_std = 0.4

[model]
history = 2
horizon = 2
d_input = 3
d_adaptive = 4
seed = 0

[train]
batch_size = 16
max_epochs = 2
patience = 2
"""


TRIPS_WITH_SPAN = "trips = {trips}\nstations = {stations}\nstart_time = 0\nend_time = 3600\n"


@pytest.fixture
def run_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(SMALL_RUN + f"\n[run]\noutput_dir = {tmp_path / 'run'}\n")
    return path


@pytest.fixture
def pairs_config(tmp_path):
    path = tmp_path / "pairs.ini"
    model = "[model]\nentity_mode = top_k_pairs\ntop_k = 4\n"
    path.write_text(SMALL_RUN.replace("[model]\n", model)
                    + f"\n[run]\noutput_dir = {tmp_path / 'run'}\n")
    return path


class TestSynth:
    def test_writes_series(self, tmp_path, capsys):
        spec = tmp_path / "spec.ini"
        spec.write_text("[synthetic]\nstations = 8\ndays = 14\nnoise_std = 0.5\n")
        out = tmp_path / "series.bin"
        assert cli.main(["synth", str(spec), str(out)]) == 0
        series = dt.load_series(out)
        assert series.n_stations == 8
        assert series.n_bins == 14 * 34
        assert "bins=476" in capsys.readouterr().out

    def test_deterministic_bytes(self, tmp_path):
        spec = tmp_path / "spec.ini"
        spec.write_text("[synthetic]\nstations = 4\ndays = 3\nseed = 9\nnoise_std = 1.0\n")
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        assert cli.main(["synth", str(spec), str(a)]) == 0
        assert cli.main(["synth", str(spec), str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_byte_order_mark_in_config_is_dropped(self, tmp_path):
        # editors on Windows save UTF-8 INI files with a leading U+FEFF
        text = "[synthetic]\nstations = 3\ndays = 2\nseed = 9\n"
        plain, marked = tmp_path / "plain.ini", tmp_path / "marked.ini"
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        assert cli.main(["synth", str(plain), str(a)]) == 0
        assert cli.main(["synth", str(marked), str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_spec_exits_2(self, tmp_path):
        assert cli.main(["synth", str(tmp_path / "nope.ini"),
                         str(tmp_path / "out.bin")]) == 2

    @pytest.mark.parametrize("text, message", [
        ("[synthetic]\nstations = 0\n", "needs n_stations >= 1"),
        ("[synthetic]\ndays = 0\n", "needs n_stations >= 1, days >= 1"),
        ("[synthetic]\nnoise_std = -0.5\n", "noise_std >= 0"),
        ("[data]\ngranularity = 0\n", "granularity 0 must be >= 1 second"),
        ("[data]\noperating_start = 8\noperating_end = 30\n",
         "bad operating window (8, 30)"),
        ("[data]\ngranularity = 7\n", "window (6, 23) does not align with 7s bins"),
        ("[synthetic]\nnoise_std = 1e308\n",
         "noise_std = 1e+308 gives flows whose total is not finite"),
    ], ids=["no_stations", "no_days", "negative_noise", "zero_granularity",
            "window_past_midnight", "misaligned_bins", "noise_past_float64"])
    def test_bad_series_settings_exit_1(self, tmp_path, capsys, text, message):
        spec, out = tmp_path / "spec.ini", tmp_path / "series.bin"
        spec.write_text(text)
        assert cli.main(["synth", str(spec), str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()


GOLDEN_TRIPS = ("origin,destination,timestamp\nA,B,0\nB,C,3599\n\nC,A,3600\nA,A,21600\n"
                "B,A,82799\nC,B,82800\nA,C,111600\n  B , C , 1_0_0_000 \nB,B,172800\n"
                "C,C,-1\nA,B,+150000\n")


# the benchmark's trip-log generator, loaded from its file
_spec = importlib.util.spec_from_file_location(
    "gen_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "gen_inputs.py")
gen_inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_inputs)

# sha256 of the series file `umod ingest` writes from each benchmark workload's
# log at seeds 0 and 1, without and with --window 6 23
BENCHMARK_INGESTS = {
    ("train-n8", 0, False): "c91496648536dafcfc3005c2f806d495c92666c0364cace57f877896f6bd0ef1",
    ("train-n8", 0, True): "b2fb27f3eff63fe193a7c3d701204ef098d81b72e8f7ad8012cbf4ada77b0673",
    ("train-n8", 1, False): "d5ed3d763382574928c3a6ed8c072209b807d8b8afd1f77b285d88680be2878a",
    ("train-n8", 1, True): "aa6adc14ca7ca1b4ffdc0e6e12e5e2f3361ab12650efb33d29abacfa2c6cad7c",
    ("ingest-eval-n288", 0, False):
        "b830048d143926643fa51e8395e4ec5f3081f5ce42bbe3f2312b9648aa614fa7",
    ("ingest-eval-n288", 0, True):
        "5627f3e0926faea43910c2d9fbd6d3605eceadbf5ad1988b828abfd9ac4e788c",
    ("ingest-eval-n288", 1, False):
        "d5e6f5894b8a24c7b8833c940645a3af0223f996dcb9aaca548e312fa972d65e",
    ("ingest-eval-n288", 1, True):
        "f77629e387a756524cb6ad30ce075c839463193ae7cba9b19f53ea910274b905",
}
BENCHMARK_LOGS = {  # workload: stations, days, rows, and the line printed without/with window
    "train-n8": (8, 60, 20_000, (
        "stations=8 bins=2880 total_flow=19000 dropped=1000 out_of_span=1000 outside_hours=0",
        "stations=8 bins=2040 total_flow=17000 dropped=3000 out_of_span=1000 "
        "outside_hours=2000")),
    "ingest-eval-n288": (288, 2, 30_000, (
        "stations=288 bins=96 total_flow=28500 dropped=1500 out_of_span=1500 outside_hours=0",
        "stations=288 bins=68 total_flow=25500 dropped=4500 out_of_span=1500 "
        "outside_hours=3000")),
}


def reference_ingest(trips_path, stations, start, end, granularity, window):
    """Ingest as a loop over the bins, keeping each that starts inside the
    window's hours, then a loop over the records.

    Returns the series and the counts of trips dropped out of the span and
    outside operating hours.
    """
    row = {}  # kept bin -> its row of the series
    for t in range((end - start) // granularity):
        second_of_day = (start + t * granularity) % 86400
        if window is None or window[0] * 3600 <= second_of_day < window[1] * 3600:
            row[t] = len(row)
    if not row:
        raise dt.ConfigurationError(f"no bin of the series falls inside operating window "
                                    f"{window[0]}-{window[1]}h")
    index = {name: k for k, name in enumerate(stations)}
    flows = np.zeros((len(row), len(stations), len(stations)))
    out_of_span = outside_hours = 0
    with open(trips_path, encoding="utf-8") as fh:
        for line in fh:
            parts = [p.strip() for p in line.strip().split(",")]
            try:
                timestamp = int(parts[-1])
            except ValueError:
                continue  # a blank line or the header: the logs hold no other bad line
            t = (timestamp - start) // granularity
            if not start <= timestamp < end:
                out_of_span += 1
            elif t not in row:
                outside_hours += 1
            else:
                flows[row[t], index[parts[0]], index[parts[1]]] += 1
    series = dt.ODSeries(stations, dt.Grid(start, granularity, window), flows)
    return series, out_of_span, outside_hours


@st.composite
def trip_logs(draw):
    """A trip log with its span and window; stamps crowd the bin and span edges."""
    stations = ["A", "B", "C"][:draw(st.integers(1, 3))]
    granularity = draw(st.sampled_from([900, 1800, 3600]))
    start = draw(st.integers(-2 * 86400, 2 * 86400))
    end = start + granularity * draw(st.integers(1, 80))
    edge = st.builds(lambda k, d: start + k * granularity + d,
                     st.integers(-2, (end - start) // granularity + 1),
                     st.sampled_from([-1, 0, 1]))
    stamp = (st.sampled_from([start - 1, start, end - 1, end, 10**30, -10**23]) | edge
             | st.integers(start - 86400, end + 86400))
    trip = st.tuples(st.sampled_from(stations), st.sampled_from(stations), stamp).map(
        lambda t: f"{t[0]},{t[1]},{t[2]}")
    lines = draw(st.lists(trip | st.sampled_from(["", "  "]), min_size=5, max_size=40))
    if draw(st.booleans()):
        lines.insert(0, "origin,destination,timestamp")
    window = draw(st.none() | st.just((0, 24))
                  | st.tuples(st.integers(0, 23), st.integers(1, 24)).filter(
                      lambda w: w[0] < w[1]))
    return "\n".join(lines) + "\n", stations, start, end, granularity, window


class TestIngest:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(trip_logs())
    def test_matches_per_record_reference(self, log):
        text, stations, start, end, granularity, window = log
        with tempfile.TemporaryDirectory() as tmp:
            trips, names = os.path.join(tmp, "trips.csv"), os.path.join(tmp, "stations.txt")
            with open(trips, "w", encoding="utf-8") as fh:
                fh.write(text)
            with open(names, "w", encoding="utf-8") as fh:
                fh.write("\n".join(stations) + "\n")
            try:
                expected = reference_ingest(trips, stations, start, end, granularity, window)
            except dt.ConfigurationError as exc:
                with pytest.raises(dt.ConfigurationError, match=re.escape(str(exc))):
                    cli._ingest(trips, names, start, end, granularity, window)
                return
            series, kept, out_of_span, outside_hours = cli._ingest(
                trips, names, start, end, granularity, window)
        series = series.dense()
        assert np.array_equal(series.flows, expected[0].flows)
        assert series.grid == expected[0].grid
        assert (out_of_span, outside_hours) == expected[1:]
        assert kept == series.flows.sum()

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(trip_logs())
    @example((GOLDEN_TRIPS, ["A", "B", "C"], 0, 172800, 3600, (6, 23)))
    def test_total_flow_is_the_series_sum(self, log):
        text, stations, start, end, granularity, window = log
        with tempfile.TemporaryDirectory() as tmp:
            trips, names = os.path.join(tmp, "trips.csv"), os.path.join(tmp, "stations.txt")
            out = os.path.join(tmp, "series.bin")
            with open(trips, "w", encoding="utf-8") as fh:
                fh.write(text)
            with open(names, "w", encoding="utf-8") as fh:
                fh.write("\n".join(stations) + "\n")
            argv = ["ingest", "--trips", trips, "--stations", names, "--start", str(start),
                    "--end", str(end), "--granularity", str(granularity), "--out", out]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv + (["--window", *map(str, window)] if window else []))
            if code:  # a window that keeps no bin of the span
                assert stderr.getvalue().startswith("error: no bin of the series falls")
                return
            flows = dt.load_series(out).flows
        total = re.search(r" total_flow=(\d+) ", stdout.getvalue()).group(1)
        assert int(total) == flows.sum()

    def test_golden_series_bytes(self, tmp_path, capsys):
        trips, stations = self.write_inputs(tmp_path, GOLDEN_TRIPS)
        stations.write_text("A\nB\nC\n")
        out = tmp_path / "series.bin"
        assert cli.main(["ingest", "--trips", str(trips), "--stations", str(stations),
                         "--start", "0", "--end", "172800", "--granularity", "3600",
                         "--window", "6", "23", "--out", str(out)]) == 0
        # the version-2 bytes of the flows the per-record binning loop counted
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "aa4a249e89b024c4d382558030d385042b8f21f2304906e43ad1504088de4a75")
        assert capsys.readouterr().out == ("stations=3 bins=34 total_flow=4 dropped=7 "
                                           "out_of_span=2 outside_hours=5\n")

    @pytest.mark.parametrize("workload, seed, window", sorted(BENCHMARK_INGESTS))
    def test_benchmark_logs_give_pinned_bytes(self, tmp_path, capsys, workload, seed, window):
        stations, days, rows, lines = BENCHMARK_LOGS[workload]
        expected = gen_inputs.write_trip_log(tmp_path, stations, days, rows, seed)
        out = tmp_path / "series.bin"
        assert cli.main(["ingest", "--trips", str(tmp_path / "trips.csv"),
                         "--stations", str(tmp_path / "stations.txt"),
                         "--start", str(expected["start"]), "--end", str(expected["end"]),
                         "--granularity", str(expected["granularity"]), "--out", str(out)]
                        + (["--window", "6", "23"] if window else [])) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            BENCHMARK_INGESTS[workload, seed, window])
        assert capsys.readouterr() == (lines[window] + "\n", "")
        # the file decodes to the series a fresh ingest of the same log makes
        loaded = dt.load_series(out)
        ingested = cli._ingest(tmp_path / "trips.csv", tmp_path / "stations.txt",
                               expected["start"], expected["end"], expected["granularity"],
                               (6, 23) if window else None)[0].dense()
        assert (loaded.stations, loaded.grid) == (ingested.stations, ingested.grid)
        assert loaded.flows.shape == ingested.flows.shape
        assert loaded.flows.tobytes() == ingested.flows.tobytes()

    @pytest.mark.parametrize("workload", sorted(BENCHMARK_LOGS))
    def test_benchmark_logs_take_the_numpy_path(self, tmp_path, workload):
        stations, days = BENCHMARK_LOGS[workload][:2]
        gen_inputs.write_trip_log(tmp_path, stations, days, 5000, 0)
        with mock.patch.object(dt, "_parse_lines", wraps=dt._parse_lines) as spy:
            trips = dt.read_trips_with_lines(tmp_path / "trips.csv",
                                             dt.read_stations(tmp_path / "stations.txt"))
        assert trips[0].size == 5000
        # only the header goes line by line
        assert [call.args[1:3] for call in spy.call_args_list] == [
            (b"origin,destination,timestamp\n", 1)]

    def test_peak_memory_follows_the_trips_not_the_cells(self, tmp_path, capsys):
        # 300 stations over 30 days of hourly bins: the dense series would be 518 MB
        n, bins = 300, 30 * 24
        rng = np.random.default_rng(4)
        trips, stations = tmp_path / "trips.csv", tmp_path / "stations.txt"
        stations.write_text("".join(f"S{k}\n" for k in range(n)))
        trips.write_text("".join(f"S{o},S{d},{t}\n" for o, d, t in zip(
            rng.integers(0, n, 2000), rng.integers(0, n, 2000),
            rng.integers(0, bins * 3600, 2000))))
        out = tmp_path / "series.bin"
        tracemalloc.start()
        try:
            code = cli.main(["ingest", "--trips", str(trips), "--stations", str(stations),
                             "--start", "0", "--end", str(bins * 3600),
                             "--granularity", "3600", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert capsys.readouterr().out.startswith(f"stations={n} bins={bins} total_flow=2000 ")
        assert peak < 0.01 * bins * n * n * 8

    def write_inputs(self, tmp_path, trips_text):
        trips = tmp_path / "trips.csv"
        trips.write_text(trips_text)
        stations = tmp_path / "stations.txt"
        stations.write_text("A\nB\n")
        return trips, stations

    @pytest.mark.parametrize("end, message", [
        (10**15, "error: out of memory: "),  # 28.4 PiB, past any address space
        (2**63 - 1, "error: 9223372036854775807 bins of 2 x 2 cells are more than"),
        # 2**62 cells index in int64, but their 2**65 bytes are more than numpy describes
        (2**60, "error: 1152921504606846976 bins of 2 x 2 cells are more than"),
    ], ids=["past_memory", "past_int64", "past_int64_bytes"])
    def test_span_too_large_to_hold_exits_1(self, tmp_path, capsys, end, message):
        trips, stations = self.write_inputs(tmp_path, "A,B,100\n")
        out = tmp_path / "series.bin"
        assert cli.main(["ingest", "--trips", str(trips), "--stations", str(stations),
                         "--start", "0", "--end", str(end), "--granularity", "1",
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("end, trip, code", [
        (2**19, "S131071,S131071,524287", 0),  # 2**53 cells, the last at 2**53 - 1
        (2**19 + 1, "S0,S1,524288", 1),  # whose cell 2**53 + 1 would read back as S0->S0
    ], ids=["2**53_cells", "past_2**53_cells"])
    def test_more_than_2_53_kept_cells_are_refused(self, tmp_path, capsys, end, trip, code):
        trips, stations = self.write_inputs(tmp_path, trip + "\n")
        stations.write_text("".join(f"S{k}\n" for k in range(2**17)))
        out = tmp_path / "series.bin"
        assert cli.main(["ingest", "--trips", str(trips), "--stations", str(stations),
                         "--start", "0", "--end", str(end), "--granularity", "1",
                         "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err == (f"error: {end} kept bins of 131072 x 131072 cells are "
                           f"{end * 2**34} cells, more than the 2**53 a series file "
                           f"indexes exactly\n")
            assert not out.exists()
            return
        _, (cells, values) = dt.read_container(out, dt.SERIES_MAGIC, dt.SERIES_VERSION,
                                               dt._parse_series_header, dt.SeriesFormatError)
        assert (cells.tolist(), values.tolist()) == ([2**53 - 1], [1.0])

    def test_three_line_demo(self, tmp_path, capsys):
        trips, stations = self.write_inputs(
            tmp_path, "A,B,100\nA,B,2000\nB,A,3000\n")
        out = tmp_path / "series.bin"
        code = cli.main(["ingest", "--trips", str(trips), "--stations",
                         str(stations), "--start", "0", "--end", "3600",
                         "--granularity", "1800", "--out", str(out)])
        assert code == 0
        series = dt.load_series(out)
        assert series.flows.sum() == 3
        assert "total_flow=3" in capsys.readouterr().out

    def test_unknown_station_names_line(self, tmp_path, capsys):
        trips, stations = self.write_inputs(tmp_path, "X,B,123\n")
        code = cli.main(["ingest", "--trips", str(trips), "--stations",
                         str(stations), "--start", "0", "--end", "3600",
                         "--granularity", "1800",
                         "--out", str(tmp_path / "o.bin")])
        assert code == 1
        assert "line 1" in capsys.readouterr().err

    def test_late_night_trip_dropped_with_window(self, tmp_path, capsys):
        # one trip at 23:30 vanishes under the 06:00-23:00 window
        trips, stations = self.write_inputs(tmp_path, "A,B,84600\n")
        out = tmp_path / "series.bin"
        code = cli.main(["ingest", "--trips", str(trips), "--stations",
                         str(stations), "--start", "0", "--end", "86400",
                         "--granularity", "1800", "--window", "6", "23",
                         "--out", str(out)])
        assert code == 0
        assert dt.load_series(out).flows.sum() == 0
        out = capsys.readouterr().out
        assert "dropped=1" in out
        assert out.endswith(" dropped=1 out_of_span=0 outside_hours=1\n")

    @pytest.mark.parametrize("start, end, granularity, message", [
        ("0", "3600", "0", "granularity 0 must be >= 1 second"),
        ("0", "3600", "-3600", "granularity -3600 must be >= 1 second"),
        ("100", "100", "1800", "start_time must precede end_time"),
        ("200", "100", "1800", "start_time must precede end_time"),
        ("0", "5000", "1800", "granularity 1800 does not tile the span of 5000 seconds"),
    ], ids=["0", "-3600", "empty_span", "start_after_end",
            "span_not_tiled"])
    def test_granularity_below_one_exits_1(self, tmp_path, capsys, start, end, granularity,
                                           message):
        trips, stations = self.write_inputs(tmp_path, "A,B,100\n")
        code = cli.main(["ingest", "--trips", str(trips), "--stations",
                         str(stations), "--start", start, "--end", end,
                         "--granularity", granularity, "--out", str(tmp_path / "o.bin")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o.bin").exists()

    def test_duplicate_station_exits_1(self, tmp_path, capsys):
        trips, stations = self.write_inputs(tmp_path, "A,B,100\n")
        stations.write_text("A\nA\nB\n")
        code = cli.main(["ingest", "--trips", str(trips), "--stations", str(stations),
                         "--start", "0", "--end", "3600", "--out", str(tmp_path / "o.bin")])
        assert code == 1
        assert capsys.readouterr().err == "error: station 'A' is listed twice\n"
        assert not (tmp_path / "o.bin").exists()

    @pytest.mark.parametrize("bad", ["trips", "stations"])
    def test_non_utf8_input_exits_1(self, tmp_path, capsys, bad):
        trips, stations = self.write_inputs(tmp_path, "A,B,100\n")
        path = {"trips": trips, "stations": stations}[bad]
        path.write_bytes(path.read_bytes() + b"\xff\n")
        code = cli.main(["ingest", "--trips", str(trips), "--stations", str(stations),
                         "--start", "0", "--end", "3600", "--out", str(tmp_path / "o.bin")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8 text")

    @pytest.mark.parametrize("bom", ["trips", "stations"])
    def test_byte_order_mark_is_dropped(self, tmp_path, capsys, bom):
        # spreadsheet programs save UTF-8 text with a leading U+FEFF
        trips, stations = self.write_inputs(tmp_path, "A,B,100\nB,A,200\n")
        path = {"trips": trips, "stations": stations}[bom]
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        code = cli.main(["ingest", "--trips", str(trips), "--stations", str(stations),
                         "--start", "0", "--end", "3600", "--out", str(tmp_path / "o.bin")])
        assert capsys.readouterr().out == (
            "stations=2 bins=2 total_flow=2 dropped=0 out_of_span=0 outside_hours=0\n")
        assert code == 0
        assert dt.load_series(tmp_path / "o.bin").stations == ["A", "B"]

    @pytest.mark.parametrize("command", ["ingest", "train"])
    def test_span_outside_window_exits_1(self, tmp_path, capsys, command):
        trips, stations = self.write_inputs(tmp_path, "A,B,100\n")
        out = tmp_path / "o.bin"
        cfg = tmp_path / "run.ini"
        cfg.write_text(SMALL_RUN.replace("[data]\n", "[data]\n" + TRIPS_WITH_SPAN.format(
            trips=trips, stations=stations)) + f"[run]\noutput_dir = {tmp_path / 'run'}\n")
        argv = {"ingest": ["ingest", "--trips", str(trips), "--stations", str(stations),
                           "--start", "0", "--end", "3600", "--window", "6", "18",
                           "--out", str(out)],
                "train": ["train", str(cfg)]}[command]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            "error: no bin of the series falls inside operating window 6-18h\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "train"])
    def test_window_on_bins_that_do_not_tile_a_day_exits_1(self, tmp_path, capsys, command):
        # 25200-s bins aligned with 00:00-07:00 start day 1 at 04:00, so the kept
        # bins of a week of hourly trips would be other hours on other days
        trips, stations = self.write_inputs(
            tmp_path, "".join(f"A,B,{h * 3600 + 60}\n" for h in range(168)))
        out, run_dir, cfg = tmp_path / "o.bin", tmp_path / "run", tmp_path / "run.ini"
        cfg.write_text(f"[data]\ntrips = {trips}\nstations = {stations}\nstart_time = 0\n"
                       "end_time = 604800\ngranularity = 25200\noperating_start = 0\n"
                       f"operating_end = 7\n[run]\noutput_dir = {run_dir}\n")
        argv = {"ingest": ["ingest", "--trips", str(trips), "--stations", str(stations),
                           "--start", "0", "--end", "604800", "--granularity", "25200",
                           "--window", "0", "7", "--out", str(out)],
                "train": ["train", str(cfg)]}[command]
        assert cli.main(argv) == 1
        assert capsys.readouterr() == (
            "", "error: granularity 25200 does not tile a day of 86400 seconds\n")
        assert not out.exists() and not run_dir.exists()

    @pytest.mark.parametrize("trip", ["A,B,200\n", "A,X,200\n"], ids=["clean", "bad_line"])
    def test_station_listed_twice_exits_1_before_the_log_is_read(self, tmp_path, capsys,
                                                                trip):
        # the station list is refused first, not the log's unknown station on line 2
        trips, stations = self.write_inputs(tmp_path, "origin,destination,timestamp\n" + trip)
        stations.write_text("A\nA\nB\n")
        out = tmp_path / "o.bin"
        assert cli.main(["ingest", "--trips", str(trips), "--stations", str(stations),
                         "--start", "0", "--end", "3600", "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: station 'A' is listed twice\n")
        assert not out.exists()

    def test_timestamps_beyond_int64_drop_out_of_span(self, tmp_path, capsys):
        trips, stations = self.write_inputs(tmp_path, f"A,B,{10**30}\nB,A,{-10**23}\n"
                                                      "A,B,1_000\nB,A, +5\n")
        code = cli.main(["ingest", "--trips", str(trips), "--stations", str(stations),
                         "--start", "0", "--end", "3600", "--out", str(tmp_path / "o.bin")])
        assert code == 0
        assert capsys.readouterr().out.endswith(
            " total_flow=2 dropped=2 out_of_span=2 outside_hours=0\n")

    def test_first_defect_in_file_order_is_reported(self, tmp_path, capsys):
        # the unknown station on line 2 comes before the malformed line 5
        trips, stations = self.write_inputs(tmp_path, "A,B,1\nA,X,2\nA,B,3\nB,A,4\nA,B\n")
        code = cli.main(["ingest", "--trips", str(trips), "--stations", str(stations),
                         "--start", "0", "--end", "3600", "--out", str(tmp_path / "o.bin")])
        assert code == 1
        assert capsys.readouterr().err == "error: unknown station 'X' at line 2\n"

    @pytest.mark.parametrize("flags, message", [
        (["--granularity", "0"], "granularity 0 must be >= 1 second"),
        (["--window", "6", "25"], "bad operating window (6, 25)"),
        (["--start", "100", "--end", "100"], "start_time must precede end_time"),
        (["--start", "200", "--end", "100"], "start_time must precede end_time"),
        (["--end", "5000"], "granularity 1800 does not tile the span of 5000 seconds"),
        # clamped timestamps would otherwise land inside the span, and offsets into
        # a span longer than 2**63 - 1 seconds would wrap
        *[([f"--start={start}", f"--end={end}"], f"span [{start}, {end}) is beyond int64 seconds")
          for start, end in [(-2**63, 0), (0, 2**63), (-10**30, -10**30 + 60),
                             (-2**62, 2**62 + 52)]],
    ], ids=["granularity", "window", "empty_span", "start_after_end", "span_not_tiled",
            "int64_min", "past_int64_max", "far_below_int64", "longer_than_int64"])
    def test_bad_grid_is_refused_before_any_input_is_read(self, tmp_path, capsys, flags,
                                                          message):
        # neither input exists, which would exit 2; the later --start or --end counts
        assert cli.main(["ingest", "--trips", str(tmp_path / "nope.csv"),
                         "--stations", str(tmp_path / "nope.txt"), "--start", "0",
                         "--end", "3600", *flags, "--out", str(tmp_path / "o.bin")]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_station_list_is_checked_once(self, tmp_path, capsys):
        trips, stations = self.write_inputs(tmp_path, "A,B,100\n")
        with mock.patch.object(dt, "_check_stations", wraps=dt._check_stations) as spy:
            assert cli.main(["ingest", "--trips", str(trips), "--stations", str(stations),
                             "--start", "0", "--end", "3600",
                             "--out", str(tmp_path / "o.bin")]) == 0
        assert spy.call_args_list == [mock.call(["A", "B"])]

    def test_missing_input_exits_2(self, tmp_path):
        _, stations = self.write_inputs(tmp_path, "")
        assert cli.main(["ingest", "--trips", str(tmp_path / "nope.csv"),
                         "--stations", str(stations), "--start", "0",
                         "--end", "3600", "--out", str(tmp_path / "o.bin")]) == 2


class TestTrain:
    def test_writes_run_artifacts(self, run_config, tmp_path):
        assert cli.main(["train", str(run_config)]) == 0
        run_dir = tmp_path / "run"
        for name in ("resolved.ini", "epochs.log", "model.ckpt", "metrics.csv"):
            assert (run_dir / name).exists(), name
        log_lines = (run_dir / "epochs.log").read_text().strip().split("\n")
        assert len(log_lines) == 2  # max_epochs = 2
        assert (run_dir / "metrics.csv").read_text().startswith("label,mae,rmse")

    def test_defaults_fill_in(self, tmp_path):
        cfg = tmp_path / "bare.ini"
        cfg.write_text("[synthetic]\nstations = 3\ndays = 8\n"
                       "[data]\ngranularity = 3600\noperating_start = 6\n"
                       "operating_end = 18\n"
                       "[train]\nmax_epochs = 1\n"
                       "[model]\nd_input = 2\nd_adaptive = 2\n"
                       f"[run]\noutput_dir = {tmp_path / 'run'}\n")
        assert cli.main(["train", str(cfg)]) == 0
        resolved = (tmp_path / "run" / "resolved.ini").read_text()
        assert "batch_size = 16" in resolved
        assert "lr = 0.001" in resolved
        assert "patience = 20" in resolved
        assert "history = 2" in resolved
        assert "horizon = 2" in resolved

    def test_infeasible_window_fails_before_training(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[synthetic]\nstations = 3\ndays = 8\n"
                       "[data]\ngranularity = 3600\noperating_start = 6\n"
                       "operating_end = 18\n"
                       "[model]\nhistory = 50\nhorizon = 2\n"
                       f"[run]\noutput_dir = {tmp_path / 'run'}\n")
        assert cli.main(["train", str(cfg)]) == 1
        assert not (tmp_path / "run").exists()

    def test_outputs_match_train_and_score(self, run_config, tmp_path):
        # the sweep rows' function on the same windows gives the same bits
        assert cli.main(["train", str(run_config)]) == 0
        series = dt.synth_generate(dt.SyntheticSpec(
            n_stations=3, days=8, granularity=3600, seed=3, noise_std=0.4,
            operating_window=(6, 18)))
        stats = dt.fit_normalizer(series)
        config = md.ModelConfig(3, history=2, horizon=2, d_input=3, d_adaptive=4, seed=0)
        _, windows = ev.entity_windows(series, config, stats)
        params, _, metrics = ev._train_and_score(
            md.init_params(config), config,
            tr.TrainConfig(batch_size=16, max_epochs=2, patience=2), stats, windows)
        md.save_checkpoint(tmp_path / "direct.ckpt", params, config)
        run_dir = tmp_path / "run"
        assert (run_dir / "model.ckpt").read_bytes() == \
            (tmp_path / "direct.ckpt").read_bytes()
        assert (run_dir / "metrics.csv").read_text().splitlines()[1] == \
            cli._metrics_lines("model", metrics)

    @pytest.mark.parametrize("command", [["train"], ["sweep", "ablate"], ["eval"]],
                             ids=["train", "sweep", "eval"])
    @pytest.mark.parametrize("source, synthetic", [
        ("series", "stations = 0"), ("trips", "days = 0")])
    def test_bad_synthetic_section_beside_a_data_source_exits_1(self, tmp_path, capsys,
                                                                source, synthetic, command):
        # resolved.ini echoes [synthetic] under any source, so the reading of the
        # INI that every command shares checks it before anything is made
        series, trips, stations = (tmp_path / name for name in
                                   ("series.bin", "trips.csv", "stations.txt"))
        dt.dump_series(dt.synth_generate(dt.SyntheticSpec(
            n_stations=3, days=8, granularity=3600, operating_window=(6, 18))), series)
        trips.write_text("A,B,100\nB,C,90000\nC,A,400000\n")
        stations.write_text("A\nB\nC\n")
        data = {"series": f"series = {series}\n",
                "trips": f"trips = {trips}\nstations = {stations}\nstart_time = 0\n"
                         f"end_time = {8 * 86400}\ngranularity = 3600\n"}[source]
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[data]\n{data}[synthetic]\n{synthetic}\n"
                       "[model]\nd_input = 3\nd_adaptive = 4\n[train]\nmax_epochs = 1\n"
                       f"[run]\noutput_dir = {tmp_path / 'run1'}\n")
        ckpt, out = tmp_path / "model.ckpt", tmp_path / "eval.csv"
        model_config = md.ModelConfig(n_entities=3, d_input=3, d_adaptive=4)
        md.save_checkpoint(ckpt, md.init_params(model_config), model_config)
        argv = [*command, str(cfg)] if command != ["eval"] else \
            ["eval", str(ckpt), str(cfg), "--out", str(out)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith(
            "error: synthetic series needs n_stations >= 1, days >= 1")
        assert not (tmp_path / "run1").exists() and not out.exists()

    @pytest.mark.parametrize("command", [["train"], ["sweep", "ablate"], ["eval"]],
                             ids=["train", "sweep", "eval"])
    @pytest.mark.parametrize("section, line, message", [
        ("train", "lr = -1", "lr must be > 0, got -1.0"),
        ("synthetic", "stations = 0", "synthetic series needs n_stations >= 1, days >= 1 "
                                      "and noise_std >= 0, got 0, 14 and 0.5"),
    ], ids=["train", "synthetic"])
    def test_bad_setting_is_refused_before_the_series_is_read(self, tmp_path, capsys,
                                                              section, line, message,
                                                              command):
        # the series file does not exist, which would exit 2
        cfg, ckpt, out = tmp_path / "run.ini", tmp_path / "model.ckpt", tmp_path / "eval.csv"
        cfg.write_text(f"[data]\nseries = {tmp_path / 'nope.bin'}\n[{section}]\n{line}\n"
                       f"[run]\noutput_dir = {tmp_path / 'run'}\n")
        model_config = md.ModelConfig(n_entities=3)
        md.save_checkpoint(ckpt, md.init_params(model_config), model_config)
        argv = [*command, str(cfg)] if command != ["eval"] else \
            ["eval", str(ckpt), str(cfg), "--out", str(out)]
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "run").exists() and not out.exists()

    def test_run_directory_below_a_file_is_refused_before_the_series_is_read(
            self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[data]\nseries = {tmp_path / 'nope.bin'}\n"
                       f"[run]\noutput_dir = {afile / 'run'}\n")
        assert cli.main(["train", str(cfg)]) == 2
        assert capsys.readouterr() == ("", f"error: {afile / 'run'}: Not a directory\n")

    def test_refused_setting_makes_no_series(self, tmp_path, capsys):
        # a 25 MB synthetic series would be generated before [train] were read
        cfg = tmp_path / "run.ini"
        cfg.write_text("[data]\ngranularity = 3600\n[synthetic]\nstations = 96\ndays = 20\n"
                       f"[train]\nlr = -1\n[run]\noutput_dir = {tmp_path / 'run'}\n")
        tracemalloc.start()
        try:
            code = cli.main(["train", str(cfg)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err == "error: lr must be > 0, got -1.0\n"
        assert peak < 2**20

    def test_diverging_run_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(SMALL_RUN.replace("[train]\n", "[train]\nlr = 1e300\n"))
        assert cli.main(["train", str(cfg), "--output-dir", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == "error: non-finite training loss at epoch 1\n"
        assert not (tmp_path / "run" / "model.ckpt").exists()
        # the epoch that diverged is logged, with non-finite losses
        last = (tmp_path / "run" / "epochs.log").read_text().splitlines()[-1]
        epoch, train_loss, val_loss, _ = last.split(",")
        assert epoch == "1"
        assert not np.isfinite(float(train_loss)) and not np.isfinite(float(val_loss))

    def test_failed_rerun_leaves_no_earlier_model(self, tmp_path, capsys):
        # a diverging rerun into a finished run's directory keeps only its own
        # resolved.ini and epochs.log, so nothing scores the earlier model on its data
        run_dir = tmp_path / "run"
        good, bad = tmp_path / "good.ini", tmp_path / "bad.ini"
        good.write_text(SMALL_RUN)
        bad.write_text(SMALL_RUN.replace("[train]\n", "[train]\nlr = 1e300\n")
                       .replace("seed = 3", "seed = 7"))
        assert cli.main(["train", str(good), "--output-dir", str(run_dir)]) == 0
        assert cli.main(["train", str(bad), "--output-dir", str(run_dir)]) == 1
        assert sorted(os.listdir(run_dir)) == ["epochs.log", "resolved.ini"]
        capsys.readouterr()
        assert cli.main(["eval", str(run_dir / "model.ckpt"),
                         str(run_dir / "resolved.ini")]) == 2
        assert capsys.readouterr() == (
            "", f"error: file not found: {run_dir / 'model.ckpt'}\n")

    def test_run_diverging_at_validation_exits_1(self, tmp_path, capsys):
        # one step per epoch: the overflowing update shows first in the validation loss
        cfg = tmp_path / "run.ini"
        cfg.write_text(SMALL_RUN.replace("batch_size = 16", "batch_size = 1024")
                       .replace("[train]\n", "[train]\nlr = 1e200\n"))
        assert cli.main(["train", str(cfg), "--output-dir", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == "error: non-finite validation loss at epoch 1\n"
        assert not (tmp_path / "run" / "model.ckpt").exists()
        epoch, train_loss, val_loss, _ = (
            (tmp_path / "run" / "epochs.log").read_text().splitlines()[-1].split(","))
        assert epoch == "1"
        assert np.isfinite(float(train_loss)) and not np.isfinite(float(val_loss))

    def test_series_of_no_stations_exits_1(self, tmp_path, write_series_file):
        # ingest refuses an empty station list
        trips, stations = tmp_path / "trips.csv", tmp_path / "stations.txt"
        trips.write_text("origin,destination,timestamp\n")
        stations.write_text("")
        series = tmp_path / "series.bin"
        assert run_quietly(["ingest", "--trips", str(trips), "--stations", str(stations),
                            "--start", "0", "--end", "172800", "--granularity", "3600",
                            "--out", str(series)]) == (1, f"error: {stations}: no station names\n")
        assert not series.exists()
        # training on a 0-station series file gives one error line, with no numpy
        # warning about an empty mean before it
        write_series_file(series, {
            "version": 2, "stations": [], "start_time": 0, "granularity": 3600,
            "dims": [48, 0, 0], "cells": 0, "operating_window": None}, np.zeros((48, 0, 0)))
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[data]\nseries = {series}\n[run]\noutput_dir = {tmp_path / 'run'}\n")
        assert run_quietly(["train", str(cfg)]) == (1, "error: training portion is empty\n")
        assert not (tmp_path / "run").exists()

    def test_pair_view_of_a_series_with_no_training_bin_exits_1(self, tmp_path,
                                                                 write_series_file):
        # one bin: split_lengths(1) == (0, 0, 1), and fit_normalizer refuses it
        # before the pair ranking would average the empty training portion
        series, run_dir = tmp_path / "series.bin", tmp_path / "run"
        write_series_file(series, {
            "version": 2, "stations": ["A", "B"], "start_time": 0, "granularity": 3600,
            "dims": [1, 2, 2], "cells": 4, "operating_window": None}, np.ones((1, 2, 2)))
        cfg = tmp_path / "pairs.ini"
        cfg.write_text(f"[data]\nseries = {series}\n[model]\nentity_mode = top_k_pairs\n"
                       f"top_k = 1\n[run]\noutput_dir = {run_dir}\n")
        assert run_quietly(["train", str(cfg)]) == (1, "error: training portion is empty\n")
        assert not run_dir.exists()

    def test_top_k_pairs_without_top_k_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "pairs.ini"
        cfg.write_text(SMALL_RUN.replace("[model]\n",
                                         "[model]\nentity_mode = top_k_pairs\n"))
        assert cli.main(["train", str(cfg), "--output-dir", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == \
            "error: entity_mode top_k_pairs needs [model] top_k >= 1, got None\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("top_k", ["0", "-3"])
    def test_top_k_below_1_exits_1(self, tmp_path, capsys, top_k):
        cfg = tmp_path / "pairs.ini"
        cfg.write_text(SMALL_RUN.replace(
            "[model]\n", f"[model]\nentity_mode = top_k_pairs\ntop_k = {top_k}\n"))
        assert cli.main(["train", str(cfg), "--output-dir", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == \
            f"error: entity_mode top_k_pairs needs [model] top_k >= 1, got {top_k}\n"
        assert not (tmp_path / "run").exists()

    def test_every_key_round_trips(self, tmp_path):
        # every KEYS entry off its default (one embedding must stay on), written
        # the way resolved.ini writes it
        sections = {
            "synthetic": {"stations": "3", "days": "8", "seed": "3", "noise_std": "0.4"},
            "model": {"history": "3", "horizon": "1", "d_input": "3", "d_adaptive": "4",
                      "spatial_hidden": "5", "use_input_embedding": "false",
                      "use_adaptive_embedding": "true", "entity_mode": "top_k_pairs",
                      "seed": "1", "top_k": "4"},
            "train": {"batch_size": "8", "lr": "0.01", "max_epochs": "2",
                      "patience": "1", "loss": "mean_squared", "shuffle_seed": "2"},
        }
        assert {s: set(keys) for s, keys in sections.items()} == {
            s: set(keys) for s, (_, keys) in cli.KEYS.items()}
        cp = configparser.ConfigParser()
        cp.read_string("[data]\ngranularity = 3600\noperating_start = 6\n"
                       "operating_end = 18\n")
        cp.read_dict(sections)
        cfg = tmp_path / "run.ini"
        with open(cfg, "w", encoding="utf-8") as fh:
            cp.write(fh)
        assert cli.main(["train", str(cfg), "--output-dir", str(tmp_path / "r1")]) == 0
        first = tmp_path / "r1" / "resolved.ini"
        resolved = configparser.ConfigParser()
        resolved.read(first, encoding="utf-8")
        for section, keys in sections.items():
            assert dict(resolved[section]) == keys, section
        assert cli.main(["train", str(first), "--output-dir", str(tmp_path / "r2")]) == 0
        for name in ("resolved.ini", "model.ckpt"):
            assert (tmp_path / "r2" / name).read_bytes() == \
                   (tmp_path / "r1" / name).read_bytes(), name

    def test_series_run_reruns_from_its_resolved_ini(self, tmp_path):
        # resolved.ini restates the series file's grid, which must still be accepted
        series = tmp_path / "series.bin"
        dt.dump_series(dt.synth_generate(dt.SyntheticSpec(
            n_stations=3, days=8, granularity=3600, operating_window=(6, 18))), series)
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[data]\nseries = {series}\n[model]\nd_input = 3\nd_adaptive = 4\n"
                       "[train]\nmax_epochs = 1\n")
        assert cli.main(["train", str(cfg), "--output-dir", str(tmp_path / "r1")]) == 0
        first = tmp_path / "r1" / "resolved.ini"
        assert "granularity = 3600\noperating_start = 6\noperating_end = 18\n" \
            in first.read_text()
        assert cli.main(["train", str(first), "--output-dir", str(tmp_path / "r2")]) == 0
        for name in ("resolved.ini", "model.ckpt"):
            assert (tmp_path / "r2" / name).read_bytes() == \
                   (tmp_path / "r1" / name).read_bytes(), name

    def test_rerun_reproduces_outputs(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(SMALL_RUN)
        for d in ("r1", "r2"):
            assert cli.main(["train", str(cfg), "--output-dir",
                             str(tmp_path / d)]) == 0
        ck1 = (tmp_path / "r1" / "model.ckpt").read_bytes()
        ck2 = (tmp_path / "r2" / "model.ckpt").read_bytes()
        assert ck1 == ck2
        assert (tmp_path / "r1" / "metrics.csv").read_bytes() == \
               (tmp_path / "r2" / "metrics.csv").read_bytes()
        # a rerun into r1, which holds the first run, gives the bytes of one into an empty r2
        assert cli.main(["train", str(cfg), "--output-dir", str(tmp_path / "r1")]) == 0
        for name in ("resolved.ini", "model.ckpt", "metrics.csv"):
            assert (tmp_path / "r1" / name).read_bytes() == \
                   (tmp_path / "r2" / name).read_bytes(), name

        def epochs(d):  # without the seconds column
            text = (tmp_path / d / "epochs.log").read_text()
            return [line.rsplit(",", 1)[0] for line in text.splitlines()]
        assert epochs("r1") == epochs("r2") != []


class TestEval:
    def test_eval_reproduces_train_metrics(self, run_config, tmp_path, capsys):
        assert cli.main(["train", str(run_config)]) == 0
        run_dir = tmp_path / "run"
        train_metrics = (run_dir / "metrics.csv").read_text()
        out = tmp_path / "eval.csv"
        assert cli.main(["eval", str(run_dir / "model.ckpt"), str(run_config),
                         "--out", str(out)]) == 0
        assert out.read_text() == train_metrics

    @pytest.mark.parametrize("target, message", [
        ("missing/eval.csv", "file not found: {out}"),
        ("eval.csv", "{out}: Is a directory"),
    ], ids=["missing_directory", "directory"])
    def test_unwritable_out_exits_2_naming_it(self, run_config, tmp_path, capsys, target,
                                              message):
        assert cli.main(["train", str(run_config)]) == 0
        capsys.readouterr()
        out = tmp_path / target
        if target == "eval.csv":
            out.mkdir()
        assert cli.main(["eval", str(tmp_path / "run" / "model.ckpt"), str(run_config),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message.format(out=out)}\n"
        assert not list(tmp_path.glob("*.tmp"))

    def test_baseline_adds_row(self, run_config, tmp_path, capsys):
        assert cli.main(["train", str(run_config)]) == 0
        capsys.readouterr()  # discard the train command's output
        run_dir = tmp_path / "run"
        assert cli.main(["eval", str(run_dir / "model.ckpt"), str(run_config),
                         "--baseline", "last_value"]) == 0
        body = capsys.readouterr().out
        lines = [l for l in body.strip().split("\n") if l]
        assert len(lines) == 3  # header, model, baseline
        assert lines[2].startswith("last_value,")

    @pytest.mark.parametrize("granularity", [7000, 172800])
    def test_historical_average_on_bins_that_do_not_tile_a_day_exits_1(
            self, tmp_path, capsys, granularity):
        # profile[t % bins_per_day] needs the same bins each day: 172800-s bins
        # give no day at all, and at 7000 s bin 12 starts at 23:20, not at 00:00
        trips, stations = tmp_path / "trips.csv", tmp_path / "stations.txt"
        trips.write_text("A,B,100\nB,A,90000\n")
        stations.write_text("A\nB\n")
        series, cfg = tmp_path / "series.bin", tmp_path / "run.ini"
        assert cli.main(["ingest", "--trips", str(trips), "--stations", str(stations),
                         "--start", "0", "--end", str(40 * granularity),
                         "--granularity", str(granularity), "--out", str(series)]) == 0
        cfg.write_text(f"[data]\nseries = {series}\n")
        ckpt, out = tmp_path / "model.ckpt", tmp_path / "eval.csv"
        model_config = md.ModelConfig(n_entities=2, history=2, horizon=1)
        md.save_checkpoint(ckpt, md.init_params(model_config), model_config)
        capsys.readouterr()
        assert cli.main(["eval", str(ckpt), str(cfg), "--baseline", "historical_average",
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: granularity {granularity} does not tile a day of 86400 seconds\n")
        assert not out.exists()

    def test_baselines_on_pair_view(self, pairs_config, tmp_path, capsys):
        assert cli.main(["train", str(pairs_config)]) == 0
        capsys.readouterr()
        assert cli.main(["eval", str(tmp_path / "run" / "model.ckpt"),
                         str(pairs_config), "--baseline", "historical_average",
                         "--baseline", "last_value", "--baseline", "plain_mlp"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert [l.split(",")[0] for l in lines[1:]] == [
            "model", "historical_average", "last_value", "plain_mlp"]

    def test_entity_view_comes_from_the_checkpoint(self, pairs_config, run_config,
                                                   tmp_path):
        assert cli.main(["train", str(pairs_config)]) == 0
        run_dir = tmp_path / "run"
        out = tmp_path / "eval.csv"
        # run_config is pairs_config without entity_mode: same data, station rows
        assert cli.main(["eval", str(run_dir / "model.ckpt"), str(run_config),
                         "--out", str(out)]) == 0
        assert out.read_text() == (run_dir / "metrics.csv").read_text()

    @pytest.mark.parametrize("model, message", [
        ("history = 4\n", "[model] history = 4 disagrees with {ckpt}, which has 2"),
        ("history = 2\nuse_input_embedding = false\n",
         "[model] use_input_embedding = False disagrees with {ckpt}, which has True"),
        ("history = 2\nentity_mode = top_k_pairs\ntop_k = 2\n",
         "[model] entity_mode = top_k_pairs disagrees with {ckpt}, which has station_rows"),
        # the INI's own [model] rules come first, as under train and sweep
        ("history = 2\ntop_k = 5\n",
         "[model] top_k = 5 needs entity_mode top_k_pairs, not station_rows"),
    ], ids=["history", "bool", "entity_mode", "top_k"])
    def test_model_key_the_checkpoint_disagrees_with_exits_1(
            self, run_config, tmp_path, capsys, model, message):
        # [model] history = 2 of run_config becomes ``model``
        assert cli.main(["train", str(run_config)]) == 0
        other = tmp_path / "other.ini"
        other.write_text(SMALL_RUN.replace("history = 2\n", model))
        checkpoint, out = tmp_path / "run" / "model.ckpt", tmp_path / "eval.csv"
        capsys.readouterr()
        assert cli.main(["eval", str(checkpoint), str(other), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message.format(ckpt=checkpoint)}\n"
        assert not out.exists()

    def test_model_keys_the_checkpoint_agrees_with_pass(self, pairs_config, tmp_path):
        # the INI that trained the pair model sets every key it has the same
        assert cli.main(["train", str(pairs_config)]) == 0
        out = tmp_path / "eval.csv"
        assert cli.main(["eval", str(tmp_path / "run" / "model.ckpt"), str(pairs_config),
                         "--out", str(out)]) == 0
        assert out.read_text() == (tmp_path / "run" / "metrics.csv").read_text()

    def test_checkpoint_of_another_network_exits_1(self, run_config, tmp_path, capsys):
        assert cli.main(["train", str(run_config)]) == 0
        four = tmp_path / "four.ini"
        four.write_text(SMALL_RUN.replace("stations = 3", "stations = 4"))
        capsys.readouterr()
        assert cli.main(["eval", str(tmp_path / "run" / "model.ckpt"), str(four)]) == 1
        assert capsys.readouterr().err.startswith("error: the series gives [E, F] = [4, 4]")

    def test_unknown_checkpoint_config_key_exits_1(self, run_config, tmp_path, capsys):
        assert cli.main(["train", str(run_config)]) == 0
        ckpt = tmp_path / "run" / "model.ckpt"
        params, config = md.load_checkpoint(ckpt)
        header = {"version": md.CHECKPOINT_VERSION,
                  "config": {**dataclasses.asdict(config), "dropout": 0.1}}
        dt.write_container(ckpt, md.CHECKPOINT_MAGIC, header, [p.data for p in params.values()])
        capsys.readouterr()
        assert cli.main(["eval", str(ckpt), str(run_config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "dropout" in err

    def test_version_1_checkpoint_exits_1(self, run_config, tmp_path, capsys):
        # the version-1 layout: magic, u32 version, u32 config length, config, u32 count
        blob = json.dumps(dataclasses.asdict(md.ModelConfig(n_entities=3, history=2,
                                                           horizon=2)),
                          sort_keys=True).encode()
        ckpt = tmp_path / "v1.ckpt"
        ckpt.write_bytes(md.CHECKPOINT_MAGIC + struct.pack("<II", 1, len(blob)) + blob
                         + struct.pack("<I", 0))
        assert cli.main(["eval", str(ckpt), str(run_config)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_version_2_checkpoint_exits_1(self, run_config, tmp_path, capsys):
        # version 2 also stored d_output, top_k and the parameter layout
        config = md.ModelConfig(n_entities=3, history=2, horizon=2)
        params = md.init_params(config)
        header = {"version": 2, "config": {**dataclasses.asdict(config), "d_output": 3,
                                           "top_k": None},
                  "params": [[name, list(p.shape)] for name, p in params.items()]}
        ckpt, out = tmp_path / "v2.ckpt", tmp_path / "eval.csv"
        dt.write_container(ckpt, md.CHECKPOINT_MAGIC, header, [p.data for p in params.values()])
        assert cli.main(["eval", str(ckpt), str(run_config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {ckpt}: unsupported version 2, expected 3\n"
        assert not out.exists()

    def test_directory_as_checkpoint_exits_2(self, run_config, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        ckpt.mkdir()
        assert cli.main(["eval", str(ckpt), str(run_config)]) == 2
        assert capsys.readouterr().err == f"error: {ckpt}: Is a directory\n"

    def test_missing_checkpoint_exits_2(self, run_config, tmp_path):
        assert cli.main(["eval", str(tmp_path / "missing.ckpt"),
                         str(run_config)]) == 2


class TestDataSource:
    @pytest.mark.parametrize("command", ["train", "eval", "sweep"])
    @pytest.mark.parametrize("data, code, message", [
        ("trips = {trips}\n", 1, "[data] trips needs"),
        (TRIPS_WITH_SPAN, 1, "unknown station"),
        ("series = {missing}\n", 2, "file not found"),
        (TRIPS_WITH_SPAN + "operating_start = 6\n", 1, "go together"),
        (TRIPS_WITH_SPAN + "operating_end = 23\n", 1, "go together"),
        ("operating_start = 8\n", 1, "go together"),
        ("operating_end = 23\n", 1, "go together"),
        ("series = {series}\ngranularity = 60\n", 1,
         "[data] granularity = 60 disagrees with {series}, which has 1800"),
        ("series = {series}\noperating_start = 8\noperating_end = 23\n", 1,
         "[data] operating_start = 8 disagrees with {series}, which has 6"),
        ("series = {series}\ngranularity = 60\noperating_start = 8\n", 1, "go together"),
        ("series = {series}\noperating_end = 23\n", 1, "go together"),
    ], ids=["trips_without_span", "unknown_station", "missing_series",
            "operating_start_alone", "operating_end_alone",
            "synthetic_operating_start_alone", "synthetic_operating_end_alone",
            "series_granularity_disagrees", "series_window_disagrees",
            "series_operating_start_alone", "series_operating_end_alone"])
    def test_bad_source_exits_with_error_line(self, tmp_path, capsys, command, data,
                                              code, message):
        argv, paths = self.source_run(tmp_path, command, data)
        assert cli.main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message.format(**paths) in err

    @pytest.mark.parametrize("command", ["train", "eval", "sweep"])
    @pytest.mark.parametrize("data, message", [
        ("series = {series}\ntrips = nope.csv\nstart_time = 5\n",
         "[data] series = {series} reads no [data] trips, start_time"),
        ("series = {series}\n" + TRIPS_WITH_SPAN,
         "[data] series = {series} reads no [data] trips, stations, start_time, end_time"),
        ("stations = nope.txt\nend_time = 9\n[synthetic]\nstations = 2\ndays = 1\n"
         "[train]\nmax_epochs = 1\n", "a synthetic source reads no [data] stations, end_time"),
    ], ids=["series_beside_trip_keys", "series_beside_a_trip_log", "synthetic_beside_trip_keys"])
    def test_unread_data_key_exits_1(self, tmp_path, capsys, command, data, message):
        # resolved.ini would echo a key the run never read, and a stale series
        # would silently win over an updated trip log
        argv, paths = self.source_run(tmp_path, command, data)
        before = sorted(tmp_path.iterdir())
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_series_file_and_trip_log_give_the_same_outputs(self, tmp_path):
        log = gen_inputs.write_trip_log(tmp_path, 8, 7, 3000, 0)
        trips, stations, series = (tmp_path / name
                                   for name in ("trips.csv", "stations.txt", "series.bin"))
        span = ["--start", str(log["start"]), "--end", str(log["end"]),
                "--granularity", str(log["granularity"])]
        assert cli.main(["ingest", "--trips", str(trips), "--stations", str(stations), *span,
                         "--window", "6", "23", "--out", str(series)]) == 0
        sources = {"series": f"series = {series}\n",
                   "trips": f"trips = {trips}\nstations = {stations}\n"
                            f"start_time = {log['start']}\nend_time = {log['end']}\n"
                            f"granularity = {log['granularity']}\n"
                            "operating_start = 6\noperating_end = 23\n"}
        for name, data in sources.items():
            cfg, run = tmp_path / f"{name}.ini", tmp_path / name
            cfg.write_text(f"[data]\n{data}[train]\nmax_epochs = 1\n")
            assert cli.main(["train", str(cfg), "--output-dir", str(run)]) == 0
            assert cli.main(["eval", str(run / "model.ckpt"), str(cfg),
                             "--baseline", "historical_average", "--baseline", "last_value",
                             "--out", str(run / "eval.csv")]) == 0
        for name in ("model.ckpt", "metrics.csv", "eval.csv"):
            assert (tmp_path / "series" / name).read_bytes() == \
                   (tmp_path / "trips" / name).read_bytes(), name

    def test_each_source_densifies_once_through_sparse_series(self, tmp_path, monkeypatch):
        calls, dense = [], dt.SparseSeries.dense
        monkeypatch.setattr(dt.SparseSeries, "dense",
                            lambda series: calls.append(series) or dense(series))
        series = tmp_path / "series.bin"
        dt.dump_series(dt.synth_generate(dt.SyntheticSpec(n_stations=2, days=1)), series)
        dt.load_series(series)
        assert len(calls) == 1
        trips, stations = tmp_path / "trips.csv", tmp_path / "stations.txt"
        trips.write_text("A,B,100\nB,A,200\n")
        stations.write_text("A\nB\n")
        cfg = tmp_path / "run.ini"
        cfg.write_text("[data]\n" + TRIPS_WITH_SPAN.format(trips=trips, stations=stations))
        cli._load_series_from_config(cli._read_config(cfg))
        assert len(calls) == 2

    @staticmethod
    def source_run(tmp_path, command, data):
        """The argv of ``umod <command>`` on an INI whose ``[data]`` is ``data``
        formatted with the paths of a small trip log, station list and series."""
        trips, stations = tmp_path / "trips.csv", tmp_path / "stations.txt"
        trips.write_text("A,B,100\nA,X,200\n")
        stations.write_text("A\nB\n")
        series = tmp_path / "series.bin"  # 1800 s bins over 06:00-23:00
        dt.dump_series(dt.synth_generate(dt.SyntheticSpec(n_stations=2, days=1)), series)
        paths = dict(trips=trips, stations=stations, series=series,
                     missing=tmp_path / "nope.bin")
        cfg = tmp_path / "run.ini"
        cfg.write_text("[data]\n" + data.format(**paths)
                       + f"[run]\noutput_dir = {tmp_path / 'run'}\n")
        ckpt = tmp_path / "model.ckpt"
        model_config = md.ModelConfig(n_entities=2, history=2, horizon=2)
        md.save_checkpoint(ckpt, md.init_params(model_config), model_config)
        return {"train": ["train", str(cfg)], "eval": ["eval", str(ckpt), str(cfg)],
                "sweep": ["sweep", "hp", str(cfg)]}[command], paths


    @pytest.mark.parametrize("command", ["train", "eval", "sweep"])
    @pytest.mark.parametrize("granularity, window, message", [
        (0, None, "granularity 0 must be >= 1 second"),
        (3600, [18, 6], "bad operating window (18, 6)"),
        (7, [6, 18], "window (6, 18) does not align with 7s bins"),
    ], ids=["zero_granularity", "reversed_window", "misaligned_bins"])
    def test_invalid_series_grid_exits_1(self, tmp_path, capsys, write_series_file,
                                         command, granularity, window, message):
        series = tmp_path / "series.bin"
        write_series_file(series, {
            "version": 2, "stations": ["A", "B"], "start_time": 0,
            "granularity": granularity, "dims": [24, 2, 2], "cells": 96,
            "operating_window": window}, np.ones((24, 2, 2)))
        assert self.run_on_series(tmp_path, series, command) == 1
        assert capsys.readouterr().err == (
            f"error: {series}: bad header: ConfigurationError: {message}\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "sweep"])
    def test_series_too_large_to_hold_exits_1(self, tmp_path, capsys, write_series_file,
                                              command):
        # a small file whose header promises 2**46 bins of 2 x 2 cells: 2 PiB
        series = tmp_path / "series.bin"
        write_series_file(series, {
            "version": 2, "stations": ["A", "B"], "start_time": 0, "granularity": 3600,
            "dims": [2**46, 2, 2], "cells": 0, "operating_window": None}, np.zeros(0))
        assert self.run_on_series(tmp_path, series, command) == 1
        assert capsys.readouterr().err.startswith("error: out of memory: ")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "sweep"])
    def test_series_dims_that_disagree_with_stations_exit_1(self, tmp_path, capsys,
                                                            write_series_file, command):
        # 10**6 bins of 300 x 300 cells would take 671 GiB to densify
        series = tmp_path / "series.bin"
        write_series_file(series, {
            "version": 2, "stations": ["A", "B"], "start_time": 0, "granularity": 3600,
            "dims": [1000000, 300, 300], "cells": 0, "operating_window": None}, np.zeros(0))
        assert self.run_on_series(tmp_path, series, command) == 1
        assert capsys.readouterr().err == (
            f"error: {series}: bad header: ConfigurationError: "
            f"dims [1000000, 300, 300] do not match 2 stations\n")
        assert not (tmp_path / "run").exists()

    @staticmethod
    def run_on_series(tmp_path, series, command) -> int:
        """``umod <command>`` on an INI whose ``[data] series`` is ``series``."""
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[data]\nseries = {series}\n[run]\noutput_dir = {tmp_path / 'run'}\n")
        ckpt = tmp_path / "model.ckpt"
        model_config = md.ModelConfig(n_entities=2, history=2, horizon=2)
        md.save_checkpoint(ckpt, md.init_params(model_config), model_config)
        argv = {"train": ["train", str(cfg)],
                "eval": ["eval", str(ckpt), str(cfg), "--baseline", "historical_average"],
                "sweep": ["sweep", "hp", str(cfg)]}[command]
        return cli.main(argv)


class TestConfigValues:
    @pytest.mark.parametrize("command, section, key, value", [
        ("train", "model", "history", "two"),
        ("sweep", "model", "history", "two"),
        ("train", "train", "lr", "fast"),
        ("eval", "train", "lr", "nan"),
        ("sweep", "synthetic", "days", "8.5"),
        ("eval", "synthetic", "days", "8.5"),
        ("train", "data", "granularity", "1h"),
        ("eval", "data", "operating_end", "18:00"),
        ("train", "model", "use_input_embedding", "maybe"),
    ])
    def test_unparsable_number_exits_1(self, tmp_path, capsys, command, section, key,
                                       value):
        cp = configparser.ConfigParser()
        cp.read_string(SMALL_RUN)
        cp[section][key] = value
        cp["run"] = {"output_dir": str(tmp_path / "run")}
        cfg = tmp_path / "run.ini"
        with open(cfg, "w", encoding="utf-8") as fh:
            cp.write(fh)
        ckpt = tmp_path / "model.ckpt"
        model_config = md.ModelConfig(n_entities=3, history=2, horizon=2, d_input=3,
                                      d_adaptive=4)
        md.save_checkpoint(ckpt, md.init_params(model_config), model_config)
        argv = {"train": ["train", str(cfg)],
                "eval": ["eval", str(ckpt), str(cfg), "--baseline", "last_value"],
                "sweep": ["sweep", "hp", str(cfg)]}[command]
        assert cli.main(argv) == 1
        what = {"lr": "a finite number", "use_input_embedding": "a boolean"}
        assert capsys.readouterr().err == (
            f"error: [{section}] {key} = {value!r} is not "
            f"{what.get(key, 'an integer')}\n")

    @pytest.mark.parametrize("command", ["synth", "train"])
    @pytest.mark.parametrize("text, message", [
        ("[model]\nhistroy = 3\n", "unknown key [model] histroy"),
        ("[modle]\nhistory = 3\n", "unknown section [modle]"),
        ("[DEFAULT]\nhistory = 3\n", "unknown key [DEFAULT] history"),
        ("history = 3\n", "File contains no section headers."),
        ("[model]\nhistory = 3\nhistory = 4\n",
         "option 'history' in section 'model' already exists"),
        ("[run]\noutput_dir = %(nowhere)s\n", "Bad value substitution"),
    ], ids=["unknown_key", "unknown_section", "default_section", "no_section_header",
            "duplicate_key", "bad_interpolation"])
    def test_unknown_or_malformed_ini_exits_1(self, tmp_path, capsys, command, text,
                                              message):
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        argv = {"synth": ["synth", str(cfg), str(tmp_path / "series.bin")],
                "train": ["train", str(cfg), "--output-dir", str(tmp_path / "run")]}
        assert cli.main(argv[command]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "run").exists()

    def test_config_fields_without_a_key(self):
        # the grid fields come from [data]; every other field has exactly one key
        # ([model] top_k sets n_entities, which station rows take from the series)
        unmapped = {section: {f.name for f in dataclasses.fields(cls)} - set(keys.values())
                    for section, (cls, keys) in cli.KEYS.items()}
        assert unmapped == {"synthetic": {"granularity", "operating_window"},
                            "model": set(), "train": set()}
        for _, keys in cli.KEYS.values():
            assert len(set(keys.values())) == len(keys)

    @pytest.mark.parametrize("line, message", [
        ("batch_size = 0", "batch_size must be an integer >= 1, got 0"),
        ("lr = 0", "lr must be > 0, got 0.0"),
        ("patience = 0", "patience must be an integer >= 1, got 0"),
        ("max_epochs = 0", "max_epochs must be an integer >= 1, got 0"),
        ("loss = huber", "unknown loss kind 'huber'"),
    ])
    def test_rejected_train_config_exits_1(self, tmp_path, capsys, line, message):
        key, value = line.split(" = ")
        assert self.train_with(tmp_path, capsys, "train", key, value) == (1, f"error: {message}\n")
        assert not (tmp_path / "run").exists()

    @staticmethod
    def train_with(tmp_path, capsys, section, key, value):
        """Exit code and stderr of ``umod train`` with ``[section] key = value``."""
        cp = configparser.ConfigParser()
        cp.read_string(SMALL_RUN)
        cp[section][key] = value
        cfg = tmp_path / "run.ini"
        with open(cfg, "w", encoding="utf-8") as fh:
            cp.write(fh)
        code = cli.main(["train", str(cfg), "--output-dir", str(tmp_path / "run")])
        return code, capsys.readouterr().err

    def test_negative_synthetic_seed_exits_1(self, tmp_path, capsys):
        assert self.train_with(tmp_path, capsys, "synthetic", "seed", "-1") == (
            1, "error: synthetic seed must be >= 0, got -1\n")
        assert not (tmp_path / "run").exists()

    def test_negative_model_seed_exits_1(self, tmp_path, capsys):
        assert self.train_with(tmp_path, capsys, "model", "seed", "-1") == (
            1, "error: model seed must be >= 0, got -1\n")
        assert not (tmp_path / "run").exists()

    def test_negative_shuffle_seed_exits_1(self, tmp_path, capsys):
        assert self.train_with(tmp_path, capsys, "train", "shuffle_seed", "-1") == (
            1, "error: shuffle_seed must be >= 0, got -1\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section, key, value, what", [
        ("synthetic", "stations", 2**32, f"96 bins of {2**32} x {2**32} cells"),
        ("synthetic", "stations", 2**63, f"96 bins of {2**63} x {2**63} cells"),
        ("synthetic", "stations", 2**64, f"96 bins of {2**64} x {2**64} cells"),
        ("synthetic", "days", 2**63, f"{12 * 2**63} bins of 3 x 3 cells"),
        ("synthetic", "days", 2**64, f"{12 * 2**64} bins of 3 x 3 cells"),
        ("model", "d_input", 2**63, f"the entries of W_in [3, {2**63}]"),
        ("model", "d_input", 2**64, f"the entries of W_in [3, {2**64}]"),
        ("model", "d_adaptive", 2**63 - 1, f"the entries of E_a [2, 3, {2**63 - 1}]"),
        ("model", "d_adaptive", 2**63, f"the entries of E_a [2, 3, {2**63}]"),
        ("model", "d_adaptive", 2**64, f"the entries of E_a [2, 3, {2**64}]"),
        ("model", "spatial_hidden", 2**63, f"the entries of W_s1 [3, {2**63}]"),
        ("model", "spatial_hidden", 2**64, f"the entries of W_s1 [3, {2**64}]"),
    ], ids=["stations=2**32", "stations=2**63", "stations=2**64", "days=2**63", "days=2**64",
            "d_input=2**63", "d_input=2**64", "d_adaptive=2**63-1", "d_adaptive=2**63",
            "d_adaptive=2**64", "spatial_hidden=2**63", "spatial_hidden=2**64"])
    def test_size_numpy_cannot_describe_exits_1(self, tmp_path, capsys, section, key,
                                                value, what):
        # numpy refuses these shapes with a ValueError before allocating anything
        assert self.train_with(tmp_path, capsys, section, key, str(value)) == (
            1, f"error: {what} are more than a float64 array can hold\n")
        assert not (tmp_path / "run").exists()

    def test_parameters_too_large_to_allocate_exit_1_before_the_run_directory(
            self, tmp_path, capsys):
        # W_s1 is 3 x 2**55 float64, 768 PiB: a shape numpy describes, and
        # refuses before allocating anything
        code, err = self.train_with(tmp_path, capsys, "model", "spatial_hidden",
                                    str(2**55))
        assert code == 1 and err.startswith("error: out of memory: ")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("noise_std, message", [
        ("1e200", r"the training portion of the series has mean \S+ and std inf; "
                  r"both must be finite"),
        ("1e308", re.escape("noise_std = 1e+308 gives flows whose total is not finite")),
    ], ids=["1e200", "1e308"])
    def test_non_finite_series_exits_1(self, tmp_path, capsys, noise_std, message):
        code, err = self.train_with(tmp_path, capsys, "synthetic", "noise_std", noise_std)
        assert code == 1 and re.fullmatch(f"error: {message}\n", err)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", [["train"], ["sweep", "ablate"]],
                             ids=["train", "sweep"])
    def test_top_k_outside_pair_mode_exits_1(self, tmp_path, capsys, command):
        # station rows would train and store a top_k they never read
        cfg = tmp_path / "run.ini"
        cfg.write_text(SMALL_RUN.replace("[model]\n", "[model]\ntop_k = 5\n"))
        run_dir = tmp_path / "run"
        assert cli.main([*command, str(cfg), "--output-dir", str(run_dir)]) == 1
        assert capsys.readouterr().err == \
            "error: [model] top_k = 5 needs entity_mode top_k_pairs, not station_rows\n"
        assert not run_dir.exists()

    @pytest.mark.parametrize("command", [["train"], ["sweep", "ablate"], ["eval"]],
                             ids=["train", "sweep", "eval"])
    @pytest.mark.parametrize("section, line, message", [
        ("model", "top_k = 3", "[model] top_k = 3 needs entity_mode top_k_pairs, "
                               "not station_rows"),
        ("model", "entity_mode = top_k_pairs",
         "entity_mode top_k_pairs needs [model] top_k >= 1, got None"),
        ("train", "lr = 0", "lr must be > 0, got 0.0"),
    ], ids=["top_k_of_the_station_count", "top_k_pairs_without_top_k", "train_value"])
    def test_every_command_applies_the_same_rules(self, tmp_path, capsys, command,
                                                  section, line, message):
        # eval takes its model from the checkpoint, yet reads the INI as train
        # does, [train] included without a plain_mlp baseline
        cfg, ckpt, out = tmp_path / "run.ini", tmp_path / "model.ckpt", tmp_path / "eval.csv"
        cfg.write_text(SMALL_RUN.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
        model_config = md.ModelConfig(n_entities=3, d_input=3, d_adaptive=4)
        md.save_checkpoint(ckpt, md.init_params(model_config), model_config)
        run_dir = tmp_path / "run"
        argv = [*command, str(cfg), "--output-dir", str(run_dir)] if command != ["eval"] \
            else ["eval", str(ckpt), str(cfg), "--out", str(out)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not run_dir.exists() and not out.exists()

    def test_eval_on_non_finite_statistics_exits_1(self, tmp_path, capsys):
        ckpt, cfg = tmp_path / "model.ckpt", tmp_path / "run.ini"
        model_config = md.ModelConfig(n_entities=3, history=2, horizon=2, d_input=3,
                                      d_adaptive=4)
        md.save_checkpoint(ckpt, md.init_params(model_config), model_config)
        cfg.write_text(SMALL_RUN.replace("noise_std = 0.4", "noise_std = 1e200"))
        assert cli.main(["eval", str(ckpt), str(cfg)]) == 1
        assert re.fullmatch(r"error: the training portion of the series has mean \S+ "
                            r"and std inf; both must be finite\n", capsys.readouterr().err)


# every key of cli.SECTIONS but [data]'s source keys and [model] top_k, which only
# pair mode takes, set so that synth, train and eval each take well under a
# second: 24 bins of 3 x 3 cells, H = P = 1 and one epoch of one batch
TINY_RUN = {
    "data": {"granularity": "900", "operating_start": "6", "operating_end": "8"},
    "synthetic": {"stations": "3", "days": "3", "seed": "0", "noise_std": "0.5"},
    "model": {"history": "1", "horizon": "1", "d_input": "2", "d_adaptive": "2",
              "spatial_hidden": "2", "use_input_embedding": "true",
              "use_adaptive_embedding": "true", "entity_mode": "station_rows",
              "seed": "0"},
    "train": {"batch_size": "1024", "lr": "0.001", "max_epochs": "1", "patience": "1",
              "loss": "mean_absolute", "shuffle_seed": "0"},
    "run": {"output_dir": "run"},
}
# negative, 0, 1, 2**63, 2**64, subnormal, nan/inf text, blank, non-ASCII, and two
# magnitudes whose sums or squares overflow; a size of 2**63 or more is refused
# before anything is allocated
EDGE_VALUES = ["-1", "0", "1", str(2**63), str(2**64), "5e-324", "nan", "inf", "",
               "\u00e9", "\u0663", "1e200", "1e308"]


def run_quietly(argv) -> tuple[int, str]:
    """Exit code of ``cli.main(argv)``, and its stderr with a line for each
    warning Python would print there."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n"
                                          for w in caught)


# the INIs the generated test starts from: a synthetic source, and the series file
# that `umod synth` writes from the unchanged INI, beside a [synthetic] section that
# resolved.ini echoes
BASES = {"synthetic": TINY_RUN,
         "series": {**TINY_RUN, "data": {**TINY_RUN["data"], "series": "series.bin"}}}


class TestGeneratedConfigs:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(base=st.sampled_from(sorted(BASES)),
           key=st.sampled_from([(section, key) for section, keys in cli.SECTIONS.items()
                                for key in keys]),
           value=st.sampled_from(EDGE_VALUES))
    @example(base="synthetic", key=("synthetic", "noise_std"), value="1e200")
    @example(base="synthetic", key=("synthetic", "noise_std"), value="1e308")
    @example(base="series", key=("synthetic", "stations"), value="0")
    @example(base="synthetic", key=("model", "use_input_embedding"), value="0")
    @example(base="synthetic", key=("model", "top_k"), value="5")
    @example(base="series", key=("train", "lr"), value="1e200")
    def test_synth_train_and_eval_exit_cleanly(self, base, key, value):
        # and `umod sweep ablate`; a command that fails leaves no file or directory,
        # but for the config and epoch log of a run that diverged
        cp = configparser.ConfigParser()
        cp.read_dict(BASES[base])
        model_config = md.ModelConfig(n_entities=3, history=1, horizon=1, d_input=2,
                                      d_adaptive=2, spatial_hidden=2)
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                with open("base.ini", "w", encoding="utf-8") as fh:
                    cp.write(fh)
                assert cli.main(["synth", "base.ini", "series.bin"]) == 0
                cp.set(*key, value)
                with open("run.ini", "w", encoding="utf-8") as fh:
                    cp.write(fh)
                md.save_checkpoint("model.ckpt", md.init_params(model_config), model_config)
                self.run_each(["synth", "run.ini", "out.bin"], ["train", "run.ini"],
                              ["eval", "model.ckpt", "run.ini", "--baseline",
                               "historical_average", "--baseline", "last_value",
                               "--baseline", "plain_mlp"],
                              ["sweep", "ablate", "run.ini"])
            finally:
                os.chdir(cwd)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(base=st.sampled_from(sorted(BASES)),
           key=st.sampled_from([(section, key) for section, keys in cli.SECTIONS.items()
                                for key in keys]),
           value=st.sampled_from(EDGE_VALUES))
    @example(base="series", key=("synthetic", "stations"), value="0")
    def test_sweep_refuses_what_train_refuses(self, base, key, value):
        # an INI that `umod train` refuses before it makes anything, `umod sweep
        # ablate` refuses with the same line; only its check of the embeddings is its own
        cp = configparser.ConfigParser()
        cp.read_dict(BASES[base])
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                with open("base.ini", "w", encoding="utf-8") as fh:
                    cp.write(fh)
                assert cli.main(["synth", "base.ini", "series.bin"]) == 0
                cp.set(*key, value)
                with open("run.ini", "w", encoding="utf-8") as fh:
                    cp.write(fh)
                before = set(os.listdir())
                train = run_quietly(["train", "run.ini"])
                if train[0] and set(os.listdir()) == before:
                    sweep = run_quietly(["sweep", "ablate", "run.ini"])
                    if sweep[1] != "error: ablation base config must enable both embeddings\n":
                        assert sweep == train
            finally:
                os.chdir(cwd)

    @staticmethod
    def run_each(*commands):
        """Run each command from the same files: what one makes is removed."""
        for argv in commands:
            before = set(os.listdir())
            code, err = run_quietly(argv)
            assert code in (0, 1, 2), (argv[0], code)
            assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), \
                (argv[0], err)
            made = set(os.listdir()) - before
            if code and made and re.fullmatch(r"error: non-finite \w+ loss at epoch \d+\n",
                                              err):
                # a diverged run may keep what shows how it diverged
                assert made == {"run"} and sorted(os.listdir("run")) == \
                    ["epochs.log", "resolved.ini"], (argv[0], err, made)
            else:
                assert not (code and made), (argv[0], err, made)
            for name in made:
                if os.path.isdir(name):
                    shutil.rmtree(name)
                else:
                    os.remove(name)


class TestSweep:
    def test_ablate_writes_three_rows(self, run_config, tmp_path):
        # the full row is the model `umod train` makes from the same INI, saved
        # under its own name beside that run's files
        assert cli.main(["train", str(run_config)]) == 0
        assert cli.main(["sweep", "ablate", str(run_config)]) == 0
        run_dir = tmp_path / "run"
        table = (run_dir / "ablations.csv").read_text().strip().split("\n")
        assert len(table) == 4  # header + 3 rows
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "ablation_full.ckpt", "ablations.csv", "epochs.log", "metrics.csv",
            "model.ckpt", "resolved.ini"]
        assert (run_dir / "ablation_full.ckpt").read_bytes() == \
            (run_dir / "model.ckpt").read_bytes()
        params, config = md.load_checkpoint(run_dir / "ablation_full.ckpt")
        assert params["E_a"].shape == (config.history, config.n_entities, config.d_adaptive)

    @pytest.mark.parametrize("key", ["use_input_embedding", "use_adaptive_embedding"])
    def test_ablate_without_both_embeddings_exits_1(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.ini"
        cfg.write_text(SMALL_RUN.replace("[model]\n", f"[model]\n{key} = false\n"))
        run_dir = tmp_path / "run"
        assert cli.main(["sweep", "ablate", str(cfg), "--output-dir", str(run_dir)]) == 1
        assert capsys.readouterr().err == \
            "error: ablation base config must enable both embeddings\n"
        assert not run_dir.exists()

    @pytest.mark.parametrize("axis, key, width", [
        ("input", "use_input_embedding", "d_input"),
        ("adaptive", "use_adaptive_embedding", "d_adaptive")])
    def test_dims_over_a_disabled_embedding_exits_1(self, tmp_path, capsys, monkeypatch,
                                                    axis, key, width):
        # every row would train the same model: refused before any row trains
        calls = []
        monkeypatch.setattr(tr, "train", lambda *args, **kwargs: calls.append(args))
        cfg = tmp_path / "run.ini"
        cfg.write_text(SMALL_RUN.replace("[model]\n", f"[model]\n{key} = false\n"))
        run_dir = tmp_path / "run"
        assert cli.main(["sweep", "dims", str(cfg), "--axis", axis,
                         "--output-dir", str(run_dir)]) == 1
        assert capsys.readouterr().err == \
            f"error: {axis}_dim sweep varies {width}, so it needs {key} = true\n"
        assert calls == [] and not run_dir.exists()

    def test_dims_axis_selection(self, run_config, tmp_path):
        assert cli.main(["sweep", "dims", str(run_config), "--axis",
                         "adaptive"]) == 0
        path = tmp_path / "run" / "dim_sweep_adaptive_dim.csv"
        table = path.read_text().strip().split("\n")
        assert len(table) == 6  # header + 5 values
        assert all(row.split(",")[2] == "3" for row in table[1:])  # d_input fixed

    def test_hp_sweep_on_pair_view(self, pairs_config, tmp_path):
        assert cli.main(["sweep", "hp", str(pairs_config)]) == 0
        table = (tmp_path / "run" / "hp_sweep.csv").read_text().strip().split("\n")
        assert table[0].startswith("H,P,mae")
        assert len(table) > 1

    @pytest.mark.parametrize("kind, cuts", [("hp", len(ev.HP_GRID)), ("ablate", 1),
                                            ("dims", 1)])
    def test_rows_that_share_a_view_share_its_windows(self, run_config, monkeypatch,
                                                      kind, cuts):
        # ablation and width rows differ only in embeddings, so one cut serves them all
        calls, split_and_window = [], ev.split_and_window

        def spy(*args):
            calls.append(args)
            return split_and_window(*args)

        monkeypatch.setattr(ev, "split_and_window", spy)
        assert cli.main(["sweep", kind, str(run_config)]) == 0
        assert len(calls) == cuts

    def test_sweep_with_no_row_exits_1(self, tmp_path, capsys):
        # two days of 12 hourly bins leave a 2-bin validation split: no (H, P) fits
        cfg = tmp_path / "run.ini"
        cfg.write_text(SMALL_RUN.replace("days = 8", "days = 2"))
        run_dir = tmp_path / "run"
        assert cli.main(["sweep", "hp", str(cfg), "--output-dir", str(run_dir)]) == 1
        assert capsys.readouterr().err == (
            "error: hp sweep trained no row; first skipped {'H': 6, 'P': 2}: "
            "val split has 2 bins but needs at least 8 (H=6, P=2)\n")
        assert not run_dir.exists()

    @pytest.mark.parametrize("kind", ["hp", "ablate", "dims"])
    @pytest.mark.parametrize("suffix, failed, error", [
        ("/run", "/run", "Not a directory"), ("/sub/run", "/sub", "Not a directory"),
        ("", "", "File exists"), ("/", "/", "File exists"),
    ], ids=["child", "grandchild", "itself", "itself_slash"])
    def test_output_dir_that_cannot_be_made_exits_2_before_training(
            self, tmp_path, capsys, monkeypatch, kind, suffix, failed, error):
        # the error os.makedirs gives on the path, before any row trains
        afile = tmp_path / "afile"
        afile.write_text("")
        calls = []
        monkeypatch.setattr(tr, "train", lambda *args, **kwargs: calls.append(args))
        cfg = tmp_path / "run.ini"
        cfg.write_text(SMALL_RUN)
        before = sorted(tmp_path.iterdir())
        assert cli.main(["sweep", kind, str(cfg), "--output-dir", f"{afile}{suffix}"]) == 2
        assert capsys.readouterr().err == f"error: {afile}{failed}: {error}\n"
        assert calls == [] and sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", [["train"], ["sweep", "ablate"]],
                             ids=["train", "sweep_ablate"])
    def test_sweep_requires_output_dir(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.ini"
        cfg.write_text(SMALL_RUN)
        before = sorted(tmp_path.iterdir())
        assert cli.main([*command, str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: no output directory ([run] output_dir or --output-dir)\n")
        assert sorted(tmp_path.iterdir()) == before
