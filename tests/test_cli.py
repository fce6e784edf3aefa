import codecs
import configparser
import dataclasses
import hashlib
import json
import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    ], ids=["no_stations", "no_days", "negative_noise", "zero_granularity",
            "window_past_midnight", "misaligned_bins"])
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


def reference_ingest(trips_path, stations, start, end, granularity, window):
    """Ingest as one loop over the records, then ``filter_operating_hours``.

    Returns the series and the counts of trips dropped out of the span and
    outside operating hours.
    """
    index = {name: k for k, name in enumerate(stations)}
    flows = np.zeros(((end - start) // granularity, len(stations), len(stations)))
    out_of_span = 0
    with open(trips_path, encoding="utf-8") as fh:
        for line in fh:
            parts = [p.strip() for p in line.strip().split(",")]
            try:
                timestamp = int(parts[-1])
            except ValueError:
                continue  # a blank line or the header: the logs hold no other bad line
            if not start <= timestamp < end:
                out_of_span += 1
                continue
            flows[(timestamp - start) // granularity, index[parts[0]], index[parts[1]]] += 1
    series = dt.ODSeries(stations, start, granularity, flows)
    if window is not None:
        series = dt.filter_operating_hours(series, window)
    return series, out_of_span, int(flows.sum() - series.flows.sum())


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
            series, total_flow, out_of_span, outside_hours = cli._ingest(
                trips, names, start, end, granularity, window)
        assert np.array_equal(series.flows, expected[0].flows)
        assert total_flow == expected[0].flows.sum()
        assert series.operating_window == expected[0].operating_window
        assert (out_of_span, outside_hours) == expected[1:]

    def test_golden_series_bytes(self, tmp_path, capsys):
        trips, stations = self.write_inputs(tmp_path, GOLDEN_TRIPS)
        stations.write_text("A\nB\nC\n")
        out = tmp_path / "series.bin"
        assert cli.main(["ingest", "--trips", str(trips), "--stations", str(stations),
                         "--start", "0", "--end", "172800", "--granularity", "3600",
                         "--window", "6", "23", "--out", str(out)]) == 0
        # the bytes the per-record binning loop wrote for this log
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "e9d923e74f466115b4f5e1351babab60e22a0d1db7054e61e3ce01ad973abc90")
        assert capsys.readouterr().out == ("stations=3 bins=34 total_flow=4 dropped=7 "
                                           "out_of_span=2 outside_hours=5\n")

    def write_inputs(self, tmp_path, trips_text):
        trips = tmp_path / "trips.csv"
        trips.write_text(trips_text)
        stations = tmp_path / "stations.txt"
        stations.write_text("A\nB\n")
        return trips, stations

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

    @pytest.mark.parametrize("granularity", ["0", "-3600"])
    def test_granularity_below_one_exits_1(self, tmp_path, capsys, granularity):
        trips, stations = self.write_inputs(tmp_path, "A,B,100\n")
        code = cli.main(["ingest", "--trips", str(trips), "--stations",
                         str(stations), "--start", "0", "--end", "3600",
                         "--granularity", granularity, "--out", str(tmp_path / "o.bin")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: granularity {granularity} must be >= 1 second\n")

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
            config, tr.TrainConfig(batch_size=16, max_epochs=2, patience=2), stats, windows)
        md.save_checkpoint(tmp_path / "direct.ckpt", params, config)
        run_dir = tmp_path / "run"
        assert (run_dir / "model.ckpt").read_bytes() == \
            (tmp_path / "direct.ckpt").read_bytes()
        assert (run_dir / "metrics.csv").read_text().splitlines()[1] == \
            cli._metrics_lines("model", metrics)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_diverging_run_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(SMALL_RUN.replace("[train]\n", "[train]\nlr = 1e300\n"))
        assert cli.main(["train", str(cfg), "--output-dir", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == "error: non-finite training loss at epoch 1\n"
        assert not (tmp_path / "run" / "model.ckpt").exists()

    def test_top_k_pairs_without_top_k_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "pairs.ini"
        cfg.write_text(SMALL_RUN.replace("[model]\n",
                                         "[model]\nentity_mode = top_k_pairs\n"))
        assert cli.main(["train", str(cfg), "--output-dir", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err.startswith("error: entity_mode top_k_pairs needs")

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


class TestEval:
    def test_eval_reproduces_train_metrics(self, run_config, tmp_path, capsys):
        assert cli.main(["train", str(run_config)]) == 0
        run_dir = tmp_path / "run"
        train_metrics = (run_dir / "metrics.csv").read_text()
        out = tmp_path / "eval.csv"
        assert cli.main(["eval", str(run_dir / "model.ckpt"), str(run_config),
                         "--out", str(out)]) == 0
        assert out.read_text() == train_metrics

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
        header, arrays = dt.read_container(
            ckpt, md.CHECKPOINT_MAGIC, md.CHECKPOINT_VERSION,
            lambda h: [shape for _, shape in h["params"]], md.CheckpointError)
        header["config"]["dropout"] = 0.1
        dt.write_container(ckpt, md.CHECKPOINT_MAGIC, header, arrays)
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
        argv = {"train": ["train", str(cfg)], "eval": ["eval", str(ckpt), str(cfg)],
                "sweep": ["sweep", "hp", str(cfg)]}[command]
        assert cli.main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message.format(**paths) in err


    @pytest.mark.parametrize("command", ["train", "eval", "sweep"])
    @pytest.mark.parametrize("granularity, window, message", [
        (0, None, "granularity 0 must be >= 1 second"),
        (3600, [18, 6], "bad operating window (18, 6)"),
        (7, [6, 18], "window (6, 18) does not align with 7s bins"),
    ], ids=["zero_granularity", "reversed_window", "misaligned_bins"])
    def test_invalid_series_grid_exits_1(self, tmp_path, capsys, command, granularity,
                                         window, message):
        series = tmp_path / "series.bin"
        dt.write_container(series, dt.SERIES_MAGIC, {
            "version": dt.SERIES_VERSION, "stations": ["A", "B"], "start_time": 0,
            "granularity": granularity, "dims": [24, 2, 2], "operating_window": window},
            [np.ones((24, 2, 2))])
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[data]\nseries = {series}\n[run]\noutput_dir = {tmp_path / 'run'}\n")
        ckpt = tmp_path / "model.ckpt"
        model_config = md.ModelConfig(n_entities=2, history=2, horizon=2)
        md.save_checkpoint(ckpt, md.init_params(model_config), model_config)
        argv = {"train": ["train", str(cfg)],
                "eval": ["eval", str(ckpt), str(cfg), "--baseline", "historical_average"],
                "sweep": ["sweep", "hp", str(cfg)]}[command]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {series}: bad series header: ConfigurationError: {message}\n")
        assert not (tmp_path / "run").exists()


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
        # the grid fields come from [data]; n_entities and d_output from the series
        unmapped = {section: {f.name for f in dataclasses.fields(cls)} - set(keys.values())
                    for section, (cls, keys) in cli.KEYS.items()}
        assert unmapped == {"synthetic": {"granularity", "operating_window"},
                            "model": {"n_entities", "d_output"}, "train": set()}

    @pytest.mark.parametrize("line, message", [
        ("batch_size = 0", "invalid training configuration"),
        ("loss = huber", "unknown loss kind 'huber'"),
    ])
    def test_rejected_train_config_exits_1(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "run.ini"
        cfg.write_text(SMALL_RUN.replace("batch_size = 16", line))
        assert cli.main(["train", str(cfg), "--output-dir", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestSweep:
    def test_ablate_writes_three_rows(self, run_config, tmp_path):
        assert cli.main(["sweep", "ablate", str(run_config)]) == 0
        table = (tmp_path / "run" / "ablations.csv").read_text().strip().split("\n")
        assert len(table) == 4  # header + 3 rows
        assert (tmp_path / "run" / "adaptive_embedding.bin").exists()

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

    def test_sweep_with_no_row_exits_1(self, tmp_path, capsys):
        # two days of 12 hourly bins leave a 2-bin validation split: no (H, P) fits
        cfg = tmp_path / "run.ini"
        cfg.write_text(SMALL_RUN.replace("days = 8", "days = 2"))
        run_dir = tmp_path / "run"
        assert cli.main(["sweep", "hp", str(cfg), "--output-dir", str(run_dir)]) == 1
        assert capsys.readouterr().err == (
            "error: hp sweep trained no row; first skipped {'H': 6, 'P': 2}: "
            "val split has 2 bins but needs at least 8 (H=6, P=2)\n")
        assert not (run_dir / "hp_sweep.csv").exists()

    def test_sweep_requires_output_dir(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(SMALL_RUN)
        assert cli.main(["sweep", "ablate", str(cfg)]) == 2
