import numpy as np
import pytest

from umod import cli
from umod import data as dt


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

    def test_missing_spec_exits_2(self, tmp_path):
        assert cli.main(["synth", str(tmp_path / "nope.ini"),
                         str(tmp_path / "out.bin")]) == 2


class TestIngest:
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
        assert "dropped=1" in capsys.readouterr().out

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

    def test_missing_checkpoint_exits_2(self, run_config, tmp_path):
        assert cli.main(["eval", str(tmp_path / "missing.ckpt"),
                         str(run_config)]) == 2


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

    def test_sweep_requires_output_dir(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(SMALL_RUN)
        assert cli.main(["sweep", "ablate", str(cfg)]) == 2
