import json
import struct
import tracemalloc

import numpy as np
import pytest

from umod import data as dt


def make_series(flows, granularity=1800, start_time=0, window=None):
    n = flows.shape[1]
    return dt.ODSeries([f"S{k:02d}" for k in range(n)], start_time, granularity,
                       flows, operating_window=window)


def columns(*trips):
    """The (origin, destination, timestamp) columns of ``(i, j, t)`` trips."""
    return tuple(np.array(trips, dtype=np.int64).reshape(-1, 3).T)


class TestBuildSeries:
    def test_hand_counted_bin(self):
        trips = columns((0, 1, 10), (0, 1, 20), (1, 0, 30))
        series, dropped = dt.build_od_series(trips, ["A", "B"], 0, 1800, 1800)
        assert dropped == 0
        assert np.array_equal(series.flows[0], [[0, 2], [1, 0]])

    def test_empty_trip_list(self):
        series, _ = dt.build_od_series(columns(), ["A", "B", "C"], 0, 3600, 1800)
        assert series.flows.shape == (2, 3, 3)
        assert series.flows.sum() == 0

    def test_boundary_timestamp_goes_to_later_bin(self):
        series, _ = dt.build_od_series(columns((0, 1, 1800)), ["A", "B"], 0, 3600, 1800)
        assert series.flows[0].sum() == 0
        assert series.flows[1, 0, 1] == 1

    def test_out_of_span_trips_are_dropped_and_counted(self):
        trips = columns((0, 1, -5), (0, 1, 3600), (0, 1, 100))
        series, dropped = dt.build_od_series(trips, ["A", "B"], 0, 3600, 1800)
        assert dropped == 2
        assert series.flows.sum() == 1

    def test_unknown_station_names_id_and_position(self):
        # an index of N would otherwise count in the next bin's origin 0
        for trips, record in [(columns((0, 1, 0), (2, 1, 0)), 1),
                              (columns((0, -1, 0), (0, 1, 0)), 0)]:
            with pytest.raises(dt.IngestionError,
                               match=rf"out of range for 2 stations at record {record}"):
                dt.build_od_series(trips, ["A", "B"], 0, 3600, 1800)

    def test_duplicate_station_rejected(self):
        with pytest.raises(dt.ConfigurationError, match="station 'A' is listed twice"):
            dt.build_od_series(columns((0, 2, 0)), ["A", "A", "B"], 0, 1800, 1800)

    @pytest.mark.parametrize("start, end", [(-2**63, 0), (0, 2**63), (-10**30, -10**30 + 60)])
    def test_span_beyond_int64_rejected(self, start, end):
        # clamped timestamps would otherwise land inside the span
        with pytest.raises(dt.ConfigurationError, match="beyond int64 seconds"):
            dt.build_od_series(columns((0, 1, -2**63)), ["A", "B"], start, end, 60)

    @pytest.mark.parametrize("granularity", [0, -1800])
    def test_granularity_below_one(self, granularity):
        with pytest.raises(dt.ConfigurationError, match="must be >= 1 second"):
            dt.build_od_series(columns(), ["A", "B"], 0, 3600, granularity)

    def test_conserves_in_span_trips(self):
        rng = np.random.default_rng(0)
        trips = (rng.integers(0, 3, 200), rng.integers(0, 3, 200), rng.integers(0, 7200, 200))
        series, dropped = dt.build_od_series(trips, ["A", "B", "C"], 0, 7200, 1800)
        assert series.flows.sum() + dropped == 200
        assert dropped == 0


class TestOperatingHours:
    def test_retains_34_half_hour_bins_per_day(self):
        flows = np.zeros((48 * 3, 2, 2))
        series = make_series(flows)
        out = dt.filter_operating_hours(series, (6, 23))
        assert out.n_bins == 34 * 3
        assert out.bins_per_day == 34
        assert out.operating_window == (6, 23)

    def test_full_day_window_is_identity(self):
        flows = np.random.default_rng(1).integers(0, 5, (48, 2, 2)).astype(float)
        out = dt.filter_operating_hours(make_series(flows), (0, 24))
        assert np.array_equal(out.flows, flows)

    def test_late_night_trips_vanish(self):
        # one day, all flow at 23:30
        flows = np.zeros((48, 2, 2))
        flows[47, 0, 1] = 5.0
        out = dt.filter_operating_hours(make_series(flows), (6, 23))
        assert out.flows.sum() == 0

    def test_misaligned_window(self):
        series = make_series(np.zeros((24, 2, 2)), granularity=7200)
        with pytest.raises(dt.ConfigurationError):
            dt.filter_operating_hours(series, (6, 23))  # 23h not on a 2h boundary

    def test_length_law(self):
        days = 5
        flows = np.zeros((48 * days, 2, 2))
        for window in [(6, 23), (7, 9), (0, 24)]:
            out = dt.filter_operating_hours(make_series(flows), window)
            per_day = (window[1] - window[0]) * 2
            assert out.n_bins == per_day * days


class TestNormalizer:
    def test_constant_training_data_falls_back(self):
        stats = dt.fit_normalizer(make_series(np.full((10, 2, 2), 5.0)), 0.7)
        assert stats.mean == 5.0
        assert stats.std == 1.0
        assert stats.used_fallback

    def test_population_variance(self):
        flows = np.zeros((2, 2, 2))
        flows[0] = 0.0
        flows[1] = 2.0
        stats = dt.fit_normalizer(make_series(flows), 1.0)
        assert stats.mean == 1.0
        assert stats.std == 1.0
        assert not stats.used_fallback

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(2)
        stats = dt.fit_normalizer(make_series(rng.random((20, 3, 3)) * 40), 0.7)
        x = rng.random((4, 3, 3)) * 100
        assert np.abs(stats.invert(stats.apply(x)) - x).max() < 1e-9

    def test_training_split_only(self):
        rng = np.random.default_rng(3)
        flows = rng.random((100, 2, 2))
        base = dt.fit_normalizer(make_series(flows), 0.7)
        perturbed = flows.copy()
        perturbed[90] += 1e6  # inside the test split
        after = dt.fit_normalizer(make_series(perturbed), 0.7)
        assert after.mean == base.mean
        assert after.std == base.std

    def test_empty_training_portion(self):
        with pytest.raises(dt.ConfigurationError):
            dt.fit_normalizer(make_series(np.zeros((10, 2, 2))), 0.05)


class TestSplitAndWindow:
    def test_split_lengths_7_1_2(self):
        assert dt.split_lengths(100) == (70, 10, 20)

    def test_window_count_law(self):
        flows = np.random.default_rng(4).random((100, 2, 2))
        stats = dt.fit_normalizer(make_series(flows), 0.7)
        for h, p in [(2, 2), (1, 1), (6, 2), (3, 4)]:
            train, val, test = dt.split_and_window(flows, stats, (0.7, 0.1, 0.2), h, p)
            assert len(train) == 70 - h - p + 1
            assert len(val) == 10 - h - p + 1
            assert len(test) == 20 - h - p + 1

    def test_ten_bin_split_h2_p2_gives_seven(self):
        # the 10-bin test split with H=2, P=2 yields 10 - 2 - 2 + 1 = 7 windows
        flows = np.random.default_rng(5).random((50, 2, 2))
        stats = dt.NormStats(0.0, 1.0)
        _, _, test = dt.split_and_window(flows, stats, (0.7, 0.1, 0.2), 2, 2)
        assert len(test) == 7

    def test_window_contiguity(self):
        flows = np.arange(40, dtype=float).reshape(10, 2, 2) * 0 \
            + np.arange(10, dtype=float)[:, None, None]
        stats = dt.NormStats(0.0, 1.0)
        train, _, _ = dt.split_and_window(
            np.tile(flows, (10, 1, 1)), stats, (0.7, 0.1, 0.2), 2, 2)
        s = train[3]
        t = s.t_anchor
        assert np.allclose(s.x[:, 0, 0], [(t - 1) % 10, t % 10])
        assert np.allclose(s.y[:, 0, 0], [(t + 1) % 10, (t + 2) % 10])

    def test_windows_never_cross_split_boundary(self):
        flows = np.random.default_rng(6).random((100, 2, 2))
        stats = dt.fit_normalizer(make_series(flows), 0.7)
        train, val, test = dt.split_and_window(flows, stats, (0.7, 0.1, 0.2), 3, 2)
        assert max(s.t_anchor + 2 for s in train) <= 69
        assert min(s.t_anchor - 2 for s in val) >= 70
        assert max(s.t_anchor + 2 for s in val) <= 79
        assert min(s.t_anchor - 2 for s in test) >= 80

    def test_too_short_split_names_requirement(self):
        flows = np.zeros((40, 2, 2))
        stats = dt.NormStats(0.0, 1.0)
        with pytest.raises(dt.ConfigurationError, match="val.*needs at least 5"):
            dt.split_and_window(flows, stats, (0.7, 0.1, 0.2), 3, 2)

    def test_values_are_normalized_with_train_stats(self):
        flows = np.random.default_rng(7).random((50, 2, 2)) * 30
        stats = dt.fit_normalizer(make_series(flows), 0.7)
        train, _, _ = dt.split_and_window(flows, stats, (0.7, 0.1, 0.2), 2, 2)
        s = train[0]
        assert np.allclose(stats.invert(s.x), flows[s.t_anchor - 1:s.t_anchor + 1])

    def test_windows_are_read_only_views_of_one_base(self):
        flows = np.random.default_rng(8).random((50, 2, 2))
        stats = dt.fit_normalizer(make_series(flows), 0.7)
        splits = dt.split_and_window(flows, stats, (0.7, 0.1, 0.2), 3, 2)
        windows = [a for split in splits for s in split for a in (s.x, s.y)]
        base = windows[0].base
        assert base is not None and not base.flags.writeable
        assert all(a.base is base for a in windows)
        s, after = splits[0][:2]
        assert np.shares_memory(s.y, after.x) and np.shares_memory(splits[2][-1].y, base)
        with pytest.raises(ValueError):
            s.x[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            s.y += 1.0

    def test_peak_memory_is_one_normalised_copy(self):
        flows = np.random.default_rng(9).random((100, 40, 40))
        stats = dt.fit_normalizer(make_series(flows), 0.7)
        tracemalloc.start()
        try:
            dt.split_and_window(flows, stats, (0.7, 0.1, 0.2), 2, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * flows.nbytes


class TestSynthetic:
    def test_noise_free_flat_profile_is_constant(self):
        amps = np.array([[3.0, 7.0], [2.0, 5.0]])
        spec = dt.SyntheticSpec(2, days=2, pair_amplitudes=amps,
                                daily_profile=np.ones(34), noise_std=0.0)
        series = dt.synth_generate(spec)
        assert np.array_equal(series.flows, np.tile(np.round(amps), (68, 1, 1)))

    def test_deterministic_under_seed(self):
        spec = dt.SyntheticSpec(4, days=3, seed=11, noise_std=0.7)
        a = dt.synth_generate(spec)
        b = dt.synth_generate(spec)
        assert np.array_equal(a.flows, b.flows)

    def test_two_peak_profile_has_two_local_maxima(self):
        spec = dt.SyntheticSpec(3, days=1, noise_std=0.0)
        series = dt.synth_generate(spec)
        totals = series.flows.sum(axis=(1, 2))
        peaks = [t for t in range(1, len(totals) - 1)
                 if totals[t] > totals[t - 1] and totals[t] >= totals[t + 1]]
        assert len(peaks) == 2

    def test_counts_are_nonnegative_integers(self):
        series = dt.synth_generate(dt.SyntheticSpec(3, days=2, seed=5, noise_std=2.0))
        assert (series.flows >= 0).all()
        assert np.array_equal(series.flows, np.round(series.flows))

    @pytest.mark.parametrize("field, value, message", [
        ("n_stations", 0, "n_stations >= 1"),
        ("days", 0, "days >= 1"),
        ("noise_std", -0.1, "noise_std >= 0"),
        ("noise_std", float("nan"), "noise_std >= 0"),
        ("granularity", 0, "granularity 0 must be >= 1 second"),
        ("operating_window", (8, 30), r"bad operating window \(8, 30\)"),
        ("granularity", 7, "does not align with 7s bins"),
    ])
    def test_rejects_bad_settings(self, field, value, message):
        with pytest.raises(dt.ConfigurationError, match=message):
            dt.SyntheticSpec(**{field: value})

    def test_demo_spec_bin_count(self):
        series = dt.synth_generate(dt.SyntheticSpec(8, days=14, noise_std=0.5))
        assert series.n_bins == 14 * 34


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        series = make_series(rng.integers(0, 9, (12, 3, 3)).astype(float),
                             start_time=1000, window=(6, 23))
        path = tmp_path / "series.bin"
        dt.dump_series(series, path)
        back = dt.load_series(path)
        assert np.array_equal(back.flows, series.flows)
        assert back.stations == series.stations
        assert back.start_time == series.start_time
        assert back.granularity == series.granularity
        assert back.operating_window == series.operating_window

    def test_truncated_file(self, tmp_path):
        series = make_series(np.zeros((4, 2, 2)))
        path = tmp_path / "series.bin"
        dt.dump_series(series, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 16])
        with pytest.raises(dt.SeriesFormatError, match="byte"):
            dt.load_series(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "series.bin"
        path.write_bytes(b"NOTAODS1" + b"\0" * 32)
        with pytest.raises(dt.SeriesFormatError, match="magic"):
            dt.load_series(path)

    def test_bytes_pinned(self, tmp_path):
        series = make_series(np.arange(8.0).reshape(2, 2, 2), start_time=3600,
                             window=(6, 23))
        path = tmp_path / "series.bin"
        dt.dump_series(series, path)
        header = json.dumps({"dims": [2, 2, 2], "granularity": 1800,
                             "operating_window": [6, 23], "start_time": 3600,
                             "stations": ["S00", "S01"], "version": 1}).encode()
        assert path.read_bytes() == (b"UMODODS1" + struct.pack("<I", len(header))
                                     + header + struct.pack("<8d", *range(8)))

    @pytest.mark.parametrize("key", ["stations", "start_time", "granularity",
                                     "operating_window", "dims"])
    @pytest.mark.parametrize("value", [None, "x", 1.5])
    def test_missing_or_ill_typed_header_key(self, tmp_path, key, value):
        header = {"version": 1, "stations": ["A"], "start_time": 0,
                  "granularity": 1800, "operating_window": None, "dims": [2, 1, 1]}
        if value is None:
            del header[key]
        else:
            header[key] = value
        path = tmp_path / "series.bin"
        dt.write_container(path, dt.SERIES_MAGIC, header, [np.zeros((2, 1, 1))])
        with pytest.raises(dt.SeriesFormatError, match=key if value is None else None):
            dt.load_series(path)

    def test_duplicate_station_is_a_format_error(self, tmp_path):
        header = {"version": 1, "stations": ["A", "B", "A"], "start_time": 0,
                  "granularity": 1800, "operating_window": None, "dims": [1, 3, 3]}
        path = tmp_path / "series.bin"
        dt.write_container(path, dt.SERIES_MAGIC, header, [np.zeros((1, 3, 3))])
        with pytest.raises(dt.SeriesFormatError, match="station 'A' is listed twice"):
            dt.load_series(path)

    def test_version_mismatch(self, tmp_path):
        meta = json.dumps({"version": 99, "stations": [], "start_time": 0,
                           "granularity": 1800, "dims": [0, 0, 0]}).encode()
        path = tmp_path / "series.bin"
        path.write_bytes(dt.SERIES_MAGIC + struct.pack("<I", len(meta)) + meta)
        with pytest.raises(dt.SeriesFormatError, match="version"):
            dt.load_series(path)


class TestTripText:
    def test_reads_with_optional_header(self, tmp_path):
        path = tmp_path / "trips.csv"
        path.write_text("origin,destination,timestamp\nA,B,100\nB,A,200\n")
        origin, destination, timestamp = dt.read_trips_with_lines(path, ["A", "B"])
        assert origin.tolist() == [0, 1]
        assert destination.tolist() == [1, 0]
        assert timestamp.tolist() == [100, 200]

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "trips.csv"
        path.write_text("A,B,100\nA,B\n")
        with pytest.raises(dt.IngestionError, match="line 2"):
            dt.read_trips_with_lines(path, ["A", "B"])

    def test_non_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "trips.csv"
        path.write_bytes(b"A,B,100\n\xff,B,200\n")
        with pytest.raises(dt.IngestionError, match=f"{path}: not UTF-8"):
            dt.read_trips_with_lines(path, ["A", "B"])

    def test_timestamps_parse_as_python_int(self, tmp_path):
        path = tmp_path / "trips.csv"
        path.write_text("A,B,1_000\nB,A, +5\nA,A,-0\n")
        assert dt.read_trips_with_lines(path, ["A", "B"])[2].tolist() == [1000, 5, 0]

    def test_timestamps_beyond_int64_are_clamped(self, tmp_path):
        path = tmp_path / "trips.csv"
        path.write_text(f"A,B,{10**30}\nB,A,{-10**23}\nA,B,{2**63 - 1}\n")
        assert dt.read_trips_with_lines(path, ["A", "B"])[2].tolist() == [
            2**63 - 1, -2**63, 2**63 - 1]

    def test_unknown_station_names_origin_before_destination(self, tmp_path):
        path = tmp_path / "trips.csv"
        path.write_text("A,B,100\nX,Y,200\n")
        with pytest.raises(dt.IngestionError, match="unknown station 'X' at line 2"):
            dt.read_trips_with_lines(path, ["A", "B"])
