import json
import os
import re
import struct
import tempfile
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from umod import data as dt


def make_series(flows, granularity=1800, start_time=0, window=None):
    n = flows.shape[1]
    return dt.ODSeries([f"S{k:02d}" for k in range(n)],
                       dt.Grid(start_time, granularity, window), flows)


HALF_HOURS = dt.Grid(0, 1800, None)  # every 1800-s bin from 00:00
# grid settings that SyntheticSpec and a series file's header refuse alike
BAD_GRIDS = [
    ("granularity", 0, "granularity 0 must be >= 1 second"),
    ("operating_window", (8, 30), r"bad operating window \(8, 30\)"),
    ("granularity", 7, "does not align with 7s bins"),
]


def columns(*trips):
    """The (origin, destination, timestamp) columns of ``(i, j, t)`` trips."""
    return tuple(np.array(trips, dtype=np.int64).reshape(-1, 3).T)


def binned(*args):
    """``build_od_series(*args)`` with its sparse series made dense."""
    series, *dropped = dt.build_od_series(*args)
    return series.dense(), *dropped


class TestBuildSeries:
    def test_hand_counted_bin(self):
        trips = columns((0, 1, 10), (0, 1, 20), (1, 0, 30))
        series, dropped, _ = binned(trips, ["A", "B"], HALF_HOURS, 1800)
        assert dropped == 0
        assert np.array_equal(series.flows[0], [[0, 2], [1, 0]])

    def test_empty_trip_list(self):
        series, _, _ = binned(columns(), ["A", "B", "C"], HALF_HOURS, 3600)
        assert series.flows.shape == (2, 3, 3)
        assert series.flows.sum() == 0

    def test_boundary_timestamp_goes_to_later_bin(self):
        series, _, _ = binned(columns((0, 1, 1800)), ["A", "B"], HALF_HOURS, 3600)
        assert series.flows[0].sum() == 0
        assert series.flows[1, 0, 1] == 1

    def test_out_of_span_trips_are_dropped_and_counted(self):
        trips = columns((0, 1, -5), (0, 1, 3600), (0, 1, 100))
        series, dropped, _ = binned(trips, ["A", "B"], HALF_HOURS, 3600)
        assert dropped == 2
        assert series.flows.sum() == 1

    def test_a_late_repeat_among_many_stations_costs_about_a_name_dict(self):
        # finding the repeat once scanned a growing prefix per name: 2 s at 2**14
        stations = [f"S{k}" for k in range(2**17)] + ["S0"]

        def check():
            with pytest.raises(dt.ConfigurationError, match="^station 'S0' is listed twice$"):
                dt._check_stations(stations)

        def name_dicts():
            return set(stations), {name: k for k, name in enumerate(stations)}

        def seconds(call):
            start = time.perf_counter()
            call()
            return time.perf_counter() - start

        # the fastest of three alternated calls each, so that a busy machine slows both
        times = [(seconds(check), seconds(name_dicts)) for _ in range(3)]
        assert min(c for c, _ in times) <= 3 * min(d for _, d in times)

    @pytest.mark.parametrize("shape", [(2**60 - 1, 0), (2**60, 0), (2**62, 0), (0, 2**63 - 1),
                                       (0, 2**63), (2**59, 0, 8), (3, 0, 2**60 // 3)])
    def test_float64_shape_rule_is_numpys(self, shape):
        # each shape holds no element, so asking numpy itself allocates nothing
        try:
            np.empty(shape)
        except ValueError:
            with pytest.raises(dt.ConfigurationError, match="more than a float64 array"):
                dt.check_float64_shape(shape, "cells")
        else:
            dt.check_float64_shape(shape, "cells")

    @pytest.mark.parametrize("bins", [2**19, 2**19 + 1])
    def test_more_than_2_53_kept_cells_are_refused(self, bins):
        # the series file stores each flat cell index as a float64, exact up to 2**53
        n = 2**17
        trips, stations = columns((n - 1, n - 1, bins - 1)), [f"S{k}" for k in range(n)]
        if bins * n * n > 2**53:
            with pytest.raises(dt.ConfigurationError, match=re.escape(
                    f"{bins} kept bins of {n} x {n} cells are {bins * n * n} cells, "
                    f"more than the 2**53 a series file indexes exactly")):
                dt.build_od_series(trips, stations, dt.Grid(0, 1, None), bins)
            return
        series, _, _ = dt.build_od_series(trips, stations, dt.Grid(0, 1, None), bins)
        assert series.dims == (2**19, n, n)
        assert series.cells.tolist() == [2**53 - 1]
        assert float(series.cells[0]) == 2**53 - 1

    @pytest.mark.parametrize("granularity", [0, -1800])
    def test_granularity_below_one(self, granularity):
        with pytest.raises(dt.ConfigurationError, match="must be >= 1 second"):
            dt.build_od_series(columns(), ["A", "B"], dt.Grid(0, granularity, None), 3600)

    def test_conserves_in_span_trips(self):
        rng = np.random.default_rng(0)
        trips = (rng.integers(0, 3, 200), rng.integers(0, 3, 200), rng.integers(0, 7200, 200))
        series, dropped, _ = binned(trips, ["A", "B", "C"], HALF_HOURS, 7200)
        assert series.flows.sum() + dropped == 200
        assert dropped == 0


class TestOperatingHours:
    def test_retains_34_half_hour_bins_per_day(self):
        series, _, _ = binned(columns(), ["A", "B"], dt.Grid(0, 1800, (6, 23)), 3 * 86400)
        assert series.n_bins == 34 * 3
        assert series.grid.bins_per_day == 34
        assert series.grid.window == (6, 23)

    def test_full_day_window_is_identity(self):
        rng = np.random.default_rng(1)
        trips = (rng.integers(0, 2, 200), rng.integers(0, 2, 200), rng.integers(0, 86400, 200))
        whole, *whole_drops = binned(trips, ["A", "B"], HALF_HOURS, 86400)
        day, *day_drops = binned(trips, ["A", "B"], dt.Grid(0, 1800, (0, 24)), 86400)
        assert np.array_equal(day.flows, whole.flows)
        assert day_drops == whole_drops == [0, 0]

    def test_late_night_trips_vanish(self):
        # one day, five trips at 23:30
        trips = columns(*[(0, 1, 84600)] * 5)
        series, out_of_span, outside_hours = binned(
            trips, ["A", "B"], dt.Grid(0, 1800, (6, 23)), 86400)
        assert series.flows.sum() == 0
        assert (out_of_span, outside_hours) == (0, 5)

    def test_misaligned_window(self):
        with pytest.raises(dt.ConfigurationError, match=r"window \(6, 23\) does not align"):
            # 23h not on a 2h boundary
            dt.build_od_series(columns(), ["A", "B"], dt.Grid(0, 7200, (6, 23)), 2 * 86400)

    @pytest.mark.parametrize("granularity, window", [(7000, None), (172800, None),
                                                     (25200, (0, 7))])
    def test_bins_per_day_needs_bins_that_tile_a_day(self, granularity, window):
        # no count of bins per day holds: 7000-s bins put 23:20 in bin 12, and
        # 25200-s bins aligned with 00:00-07:00 start day 1 at 04:00; a
        # windowless grid is valid until its days are counted, a windowed one
        # is refused when built
        message = f"granularity {granularity} does not tile a day of 86400 seconds"
        with pytest.raises(dt.ConfigurationError, match=message):
            dt.Grid(0, granularity, window).bins_per_day
        with pytest.raises(dt.ConfigurationError, match=message):
            dt.SyntheticSpec(granularity=granularity, operating_window=window)

    def test_length_law(self):
        days = 5
        for window in [(6, 23), (7, 9), (0, 24)]:
            series, _, _ = binned(columns(), ["A", "B"], dt.Grid(0, 1800, window),
                                  days * 86400)
            per_day = (window[1] - window[0]) * 2
            assert series.n_bins == per_day * days

    def test_span_starting_off_midnight(self):
        # 1800-s bins from 00:15: a bin is kept when it starts inside 06:00-23:00,
        # so the 05:45 and 23:15 bins go and the 06:15 and 22:45 bins stay
        h = 3600  # trips at 06:05, 06:20, 23:10, 23:20, 06:15 on day 2 and 00:10
        trips = columns((0, 1, 6 * h + 300), (0, 1, 6 * h + 1200), (1, 0, 23 * h + 600),
                        (1, 0, 23 * h + 1200), (0, 1, 86400 + 6 * h + 900), (0, 1, 600))
        series, out_of_span, outside_hours = binned(
            trips, ["A", "B"], dt.Grid(900, 1800, (6, 23)), 900 + 2 * 86400)
        assert series.n_bins == 2 * 34
        assert (out_of_span, outside_hours) == (1, 2)
        expected = np.zeros((68, 2, 2))
        expected[0, 0, 1] = expected[33, 1, 0] = expected[34, 0, 1] = 1
        assert np.array_equal(series.flows, expected)

    def test_never_holds_the_full_span(self):
        # 2 days of 1800-s bins are 96 of N x N cells; the 06:00-23:00 window keeps 68
        n, rng = 64, np.random.default_rng(2)
        trips = (rng.integers(0, n, 2000), rng.integers(0, n, 2000),
                 rng.integers(0, 2 * 86400, 2000))
        tracemalloc.start()
        try:
            series, _, _ = dt.build_od_series(trips, [f"S{k}" for k in range(n)],
                                              dt.Grid(0, 1800, (6, 23)), 2 * 86400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert series.dense().n_bins == 68
        assert peak < 96 * n * n * 8


class TestNormalizer:
    def test_constant_training_data_falls_back(self):
        stats = dt.fit_normalizer(make_series(np.full((10, 2, 2), 5.0)), 0.7)
        assert stats.mean == 5.0
        assert stats.std == 1.0

    def test_population_variance(self):
        flows = np.zeros((2, 2, 2))
        flows[0] = 0.0
        flows[1] = 2.0
        stats = dt.fit_normalizer(make_series(flows), 1.0)
        assert stats.mean == 1.0
        assert stats.std == 1.0

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
        # without noise every day is the rounded amplitude x profile product
        series = dt.synth_generate(dt.SyntheticSpec(2, days=2, seed=4, noise_std=0.0))
        amps = np.random.default_rng(4).uniform(2.0, 12.0, size=(2, 2))
        day = np.round(amps[None, :, :] * dt.two_peak_profile(34)[:, None, None])
        assert np.array_equal(series.flows, np.tile(day, (2, 1, 1)))

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
        *BAD_GRIDS,
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
        assert back.grid == series.grid

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
        flows = np.arange(8.0).reshape(2, 2, 2)
        series = make_series(flows, start_time=3600, window=(6, 23))
        path = tmp_path / "series.bin"
        dt.dump_series(series, path)
        # the version-1 file held these eight dense values; version 2 decodes to them
        v1_payload = struct.pack("<8d", *range(8))
        assert dt.load_series(path).flows.tobytes() == v1_payload
        header = json.dumps({"cells": 7, "dims": [2, 2, 2], "granularity": 1800,
                             "operating_window": [6, 23], "start_time": 3600,
                             "stations": ["S00", "S01"], "version": 2}).encode()
        assert path.read_bytes() == (b"UMODODS1" + struct.pack("<I", len(header))
                                     + header + struct.pack("<7d", *range(1, 8))
                                     + struct.pack("<7d", *range(1, 8)))

    @pytest.mark.parametrize("key", ["stations", "start_time", "granularity",
                                     "operating_window", "dims", "cells"])
    @pytest.mark.parametrize("value", [None, "x", 1.5])
    def test_missing_or_ill_typed_header_key(self, tmp_path, write_series_file, key,
                                             value):
        header = {"version": 2, "stations": ["A"], "start_time": 0, "granularity": 1800,
                  "operating_window": None, "dims": [2, 1, 1], "cells": 1}
        if value is None:
            del header[key]
            message = f"KeyError: '{key}'"
        else:
            header[key] = value
            message = f"{key} {value!r} is not"
        path = tmp_path / "series.bin"
        write_series_file(path, header, np.array([0.0, 3.0]).reshape(2, 1, 1))
        with pytest.raises(dt.SeriesFormatError, match=re.escape(message)):
            dt.load_series(path)

    def test_duplicate_station_is_a_format_error(self, tmp_path, write_series_file):
        header = {"version": 2, "stations": ["A", "B", "A"], "start_time": 0,
                  "granularity": 1800, "operating_window": None, "dims": [1, 3, 3],
                  "cells": 0}
        path = tmp_path / "series.bin"
        write_series_file(path, header, np.zeros((1, 3, 3)))
        with pytest.raises(dt.SeriesFormatError, match="station 'A' is listed twice"):
            dt.load_series(path)

    @pytest.mark.parametrize("field, value, message", BAD_GRIDS)
    def test_invalid_grid_is_a_format_error(self, tmp_path, write_series_file, field, value,
                                            message):
        # well-typed keys that SyntheticSpec's own defaults spoil, one at a time
        header = {"version": 2, "stations": ["A"], "start_time": 0, "granularity": 1800,
                  "operating_window": [6, 23], "dims": [2, 1, 1], "cells": 1, field: value}
        path = tmp_path / "series.bin"
        write_series_file(path, header, np.array([0.0, 3.0]).reshape(2, 1, 1))
        with pytest.raises(dt.SeriesFormatError,
                           match="bad header: ConfigurationError: .*" + message):
            dt.load_series(path)

    def test_window_on_bins_that_do_not_tile_a_day_is_a_format_error(
            self, tmp_path, write_series_file):
        header = {"version": 2, "stations": ["A"], "start_time": 0, "granularity": 25200,
                  "operating_window": [0, 7], "dims": [2, 1, 1], "cells": 1}
        path = tmp_path / "series.bin"
        write_series_file(path, header, np.array([0.0, 3.0]).reshape(2, 1, 1))
        with pytest.raises(dt.SeriesFormatError, match="bad header: ConfigurationError: "
                           "granularity 25200 does not tile a day of 86400 seconds"):
            dt.load_series(path)

    @pytest.mark.parametrize("cells", [
        [3.0, 1.0], [1.0, 1.0], [0.5, 2.0], [-1.0, 2.0], [float("nan"), 2.0],
        [1.0, float("nan")], [1.0, float("inf")], [1.0, 8.0], [1.0, 2.0**53],
    ], ids=["decreasing", "repeated", "non_integral", "negative", "nan_first",
            "nan_last", "infinite", "past_end", "far_past_end"])
    def test_bad_cell_index_is_a_format_error(self, tmp_path, cells):
        header = {"version": 2, "stations": ["A", "B"], "start_time": 0,
                  "granularity": 1800, "operating_window": None, "dims": [2, 2, 2],
                  "cells": 2}
        path = tmp_path / "series.bin"
        dt.write_container(path, dt.SERIES_MAGIC, header, [cells, [1.0, 1.0]])
        with pytest.raises(dt.SeriesFormatError,
                           match=r"cell \d has index .*whole numbers in \[0, 8\), strictly"):
            dt.load_series(path)

    @pytest.mark.parametrize("field, value, message", [
        ("dims", [2, 2], "dims [2, 2] is not three counts"),
        ("dims", [1, 2, 2, 1], "dims [1, 2, 2, 1] is not three counts"),
        ("dims", [-1, 2, 2], "dims [-1, 2, 2] is not three counts"),
        ("dims", [1.0, 2, 2], "dims [1.0, 2, 2] is not three counts"),
        ("dims", [True, 2, 2], "dims [True, 2, 2] is not three counts"),
        ("dims", {"T": 1}, "dims {'T': 1} is not three counts"),
        ("dims", [2**62, 2, 2],
         "dims [4611686018427387904, 2, 2] are more than a float64 array can hold"),
        ("cells", -1, "cells -1 is not a count"),
        ("cells", True, "cells True is not a count"),
        ("cells", [1], "cells [1] is not a count"),
        ("cells", 2, "payload ends at byte"),
        # refused before the dense series is allocated: 671 GiB, and 72 MB
        ("dims", [1000000, 300, 300], "dims [1000000, 300, 300] do not match 2 stations"),
        ("dims", [100, 300, 300], "dims [100, 300, 300] do not match 2 stations"),
    ])
    def test_bad_dims_or_cell_count_is_a_format_error(self, tmp_path, field, value,
                                                      message):
        header = {"version": 2, "stations": ["A", "B"], "start_time": 0,
                  "granularity": 1800, "operating_window": None, "dims": [1, 2, 2],
                  "cells": 1, field: value}
        path = tmp_path / "series.bin"
        dt.write_container(path, dt.SERIES_MAGIC, header, [[1.0], [4.0]])
        with pytest.raises(dt.SeriesFormatError, match=re.escape(message)):
            dt.load_series(path)

    def test_peak_memory_is_under_three_and_a_half_dense_series(self, tmp_path):
        # the float64 indices are freed before dense() allocates the flows
        path = tmp_path / "series.bin"
        dt.dump_series(dt.synth_generate(dt.SyntheticSpec(64, days=2, granularity=3600)), path)
        tracemalloc.start()
        try:
            series = dt.load_series(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * series.flows.nbytes

    @pytest.mark.parametrize("flows, cells", [
        (np.array([0.0, -0.0, 1.0, 0.0]).reshape(1, 2, 2), 2),
        (np.array([0.0, struct.unpack("<d", struct.pack("<Q", 0x7FF0_0000_0000_BEEF))[0],
                   struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_0000_0001))[0],
                   0.0]).reshape(1, 2, 2), 2),
        (np.array([np.inf, 0.0, 0.0, -np.inf]).reshape(1, 2, 2), 2),
        (np.zeros((3, 2, 2)), 0),
        (np.zeros((0, 2, 2)), 0),
        (np.zeros((4, 0, 0)), 0),
    ], ids=["negative_zero", "nan_payloads", "infinities", "all_zero", "no_bins",
            "no_stations"])
    def test_pinned_round_trip(self, tmp_path, flows, cells):
        series = make_series(flows)
        path = tmp_path / "series.bin"
        dt.dump_series(series, path)
        back = dt.load_series(path)
        assert back.flows.shape == flows.shape
        assert back.flows.tobytes() == flows.tobytes()
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<I", raw[8:12])
        assert json.loads(raw[12:12 + header_len])["cells"] == cells
        assert len(raw) == 12 + header_len + 16 * cells

    @pytest.mark.parametrize("field, value, message", [
        ("granularity", 0, "ConfigurationError: granularity 0 must be >= 1 second"),
        ("stations", ["A", "A"], "ConfigurationError: station 'A' is listed twice"),
        ("stations", ["A", "B", "C"],
         "ConfigurationError: dims [65536, 2, 2] do not match 3 stations"),
        ("stations", "AB", "TypeError: stations 'AB' is not a list of names"),
    ], ids=["zero_granularity", "station_twice", "dims_disagree", "stations_not_a_list"])
    @pytest.mark.parametrize("truncated", [False, True], ids=["whole", "truncated"])
    def test_bad_header_is_refused_before_the_payload_is_read(self, tmp_path, field, value,
                                                              message, truncated):
        # 2**18 cells: a 4 MiB payload, every index valid
        cells = 2**18
        header = {"version": 2, "stations": ["A", "B"], "start_time": 0,
                  "granularity": 3600, "operating_window": None,
                  "dims": [cells // 4, 2, 2], "cells": cells, field: value}
        path = tmp_path / "series.bin"
        dt.write_container(path, dt.SERIES_MAGIC, header,
                           [np.arange(cells, dtype=np.float64), np.ones(cells)])
        if truncated:  # the header's defect is reported, not the payload's
            os.truncate(path, path.stat().st_size - 8)
        tracemalloc.start()
        try:
            with pytest.raises(dt.SeriesFormatError) as excinfo:
                dt.load_series(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(excinfo.value) == f"{path}: bad header: {message}"
        assert peak < 0.01 * 16 * cells

    def test_version_mismatch(self, tmp_path):
        meta = json.dumps({"version": 99, "stations": [], "start_time": 0,
                           "granularity": 1800, "dims": [0, 0, 0]}).encode()
        path = tmp_path / "series.bin"
        path.write_bytes(dt.SERIES_MAGIC + struct.pack("<I", len(meta)) + meta)
        with pytest.raises(dt.SeriesFormatError, match="version"):
            dt.load_series(path)


def oracle_read_lines(path) -> list[tuple[int, str]]:
    """``read_lines`` as it was before the one-pass parser, verbatim."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [(lineno, line) for lineno, line in enumerate(map(str.strip, fh), start=1)
                    if line]
    except UnicodeDecodeError as exc:
        raise dt.IngestionError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def oracle_read_trips(path, stations):
    """``read_trips_with_lines`` as it was before the one-pass parser, verbatim."""
    index = {name: k for k, name in enumerate(stations)}
    trips = []
    for lineno, line in oracle_read_lines(path):
        parts = [p.strip() for p in line.split(",")]
        try:
            stamp = int(parts[-1])
        except ValueError:
            if lineno == 1:
                continue  # optional header
            stamp = None
        if len(parts) != 3 or stamp is None:
            raise dt.IngestionError(f"malformed trip record at line {lineno}: {line!r}")
        for name in parts[:2]:
            if name not in index:
                raise dt.IngestionError(f"unknown station {name!r} at line {lineno}")
        trips.append((index[parts[0]], index[parts[1]],
                      min(max(stamp, dt.INT64_MIN), dt.INT64_MAX)))
    return tuple(np.array(trips, dtype=np.int64).reshape(-1, 3).T)


def lines_read_one_by_one(path, stations, block=1024) -> list[int]:
    """Read ``path`` ``block`` characters at a time, check its columns against
    the oracle, and return the numbers of the lines ``_parse_lines`` parsed."""
    with mock.patch.object(dt, "TRIP_BLOCK", block), \
            mock.patch.object(dt, "_parse_lines", wraps=dt._parse_lines) as spy:
        got = dt.read_trips_with_lines(path, stations)
    for a, b in zip(got, oracle_read_trips(path, stations), strict=True):
        assert a.dtype == np.int64 and np.array_equal(a, b)
    # the line numbers of the lines of each call's body
    return [lineno for call in spy.call_args_list for lineno in
            range(call.args[2], call.args[2] + call.args[1].count(b"\n"))]


# station sets, each with unknown names that share a prefix, a word or all but
# one byte with a known name
NAME_SHAPES = {
    "lengths": (["a", "b" * 7, "c" * 8, "d" * 9, "e" * 16, "f" * 17, "g" * 40],
                ["ab", "c" * 9, "d" * 8, "e" * 15, "f" * 16 + "g", "g" * 39, "g" * 41]),
    "utf8": (["人民广场", "Zürich Hauptbahnhof", "Zürich"],
             ["人民广", "人民广场站", "Zürich Hauptbahnho", "Zürich Hauptbahnhöf"]),
    "prefix_family": (["M1", "M10", "M100"], ["M", "M11", "M101", "M1000"]),
    "inner_space": (["People Square", "People", "Square"],
                    ["People  Square", "PeopleSquare", "People Squar"]),
    "trailing_nul": (["A", "A\x00"], ["A\x00\x00", "\x00A", "\x00"]),
}


def one_home(length, words):
    """A ``_name_hash`` that sends every name to the same home slot."""
    return np.zeros(length.shape, np.uint64)


HEADER = "origin,destination,timestamp"
BLANKS = ["", " ", "\t \t"]
PADS = ["", " ", "\t", " \t ", "\xa0", "\x0c"]
ODD_STAMPS = ["1_000", "+5", "-0", " 42", "\u0663", str(2**63 - 1), str(-2**63),
              str(2**63), str(-2**63 - 1), str(10**30), str(-10**23)]
BAD_STAMPS = ["1.5", "1e3", "", "ten", "1__0", "_1", "0x10", "--1"]


@st.composite
def trip_records(draw, names, stamps, count=3):
    """One comma-separated line; half of them pad every field with whitespace."""
    fields = [draw(names) for _ in range(count - 1)] + [draw(stamps)]
    if draw(st.booleans()):
        pad = st.sampled_from(PADS)
        fields = [draw(pad) + field + draw(pad) for field in fields]
    return ",".join(fields)


@st.composite
def defective_trip_logs(draw):
    """Trip-log text that mixes well-formed and defective lines and line endings.

    Well-formed lines are blank or records, bare or padded, with odd but valid
    stamps; defects are headers, 2- or 4-field lines, unknown names and stamps
    that are not integers, each placed on any line, the first included.
    """
    name = st.sampled_from(["A", "B", "C"])
    stamp = st.integers(-10**6, 10**6).map(str) | st.sampled_from(ODD_STAMPS)
    good = trip_records(name, stamp) | st.sampled_from(BLANKS)
    defect = (st.just(HEADER)
              | trip_records(st.sampled_from(["X", "a", "origin", "A B"]), stamp)
              | trip_records(name, st.sampled_from(BAD_STAMPS))
              | st.sampled_from([2, 4]).flatmap(lambda n: trip_records(name, stamp, n)))
    lines = draw(st.lists(good, max_size=30))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(defect))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


class TestStationList:
    def test_no_names(self, tmp_path):
        path = tmp_path / "stations.txt"
        path.write_text("\n  \n")
        with pytest.raises(dt.ConfigurationError,
                           match=f"^{re.escape(str(path))}: no station names$"):
            dt.read_stations(path)

    def test_name_listed_twice(self, tmp_path):
        # names are compared once stripped
        path = tmp_path / "stations.txt"
        path.write_text("A\nB\n A\n")
        with pytest.raises(dt.ConfigurationError, match="^station 'A' is listed twice$"):
            dt.read_stations(path)

    def test_padded_name_is_its_stripped_name(self, tmp_path):
        # the trip reader strips its fields, and the list strips its names to match
        stations, trips = tmp_path / "stations.txt", tmp_path / "trips.csv"
        stations.write_text(" A \nB\n")
        trips.write_text(" A,B,5\n")
        names = dt.read_stations(stations)
        assert names == ["A", "B"]
        assert [c.tolist() for c in dt.read_trips_with_lines(trips, names)] == [[0], [1], [5]]


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

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(defective_trip_logs())
    @example(f"{HEADER}\r\nA,B,100\r\nB,A,200\r\n")
    @example(f"A,B,100\r{HEADER}\rB,A,200\r")
    @example(f"\n{HEADER}\nA,B,100\n")
    @example(" A\t, B ,\t1_000 \nB,A,+5\nA,A\nB,A,3\n")
    @example(f"A,B,C,100\nA,B,{10**30}\n")
    @example(f"A,X,100\nA,B,ten\nB,A,{-10**23}\n")
    @example(f"A,B,{10**30}\r\nB,A,{-2**63 - 1}\nA,C, +5\n")
    def test_matches_the_per_line_oracle(self, text):
        stations = ["A", "B", "C"]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trips.csv")
            with open(path, "wb") as fh:
                fh.write(text.encode("utf-8"))
            try:
                expected = oracle_read_trips(path, stations)
            except dt.IngestionError as exc:
                with pytest.raises(dt.IngestionError) as got:
                    dt.read_trips_with_lines(path, stations)
                assert str(got.value) == str(exc)
                return
            got = dt.read_trips_with_lines(path, stations)
        assert all(a.dtype == np.int64 and np.array_equal(a, b)
                   for a, b in zip(got, expected, strict=True))

    @pytest.mark.parametrize("block", [1, 7, 64])
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(defective_trip_logs())
    @example(f"A,B,10\r\n{HEADER}\r\nB,A,200\r\n")  # 7 bytes: a read ends in \r
    @example(f"A,B,1\n{HEADER}\nB,A,2\n")  # a block ends right after line 1
    @example(f"{HEADER}\nA,B,100\nB,A,200\nA,B,{10**30}\n{HEADER}\n")
    @example("B,A,7\r\rA,B,1234567890\r")
    @example(f"A,B,1\nA,B,{2**63}\nB,A,{10**19 - 1}\nA,B,{10**18 - 1}\n")
    def test_matches_the_per_line_oracle_in_small_blocks(self, block, text):
        # blocks end inside lines, between \r and \n and after line 1
        with mock.patch.object(dt, "TRIP_BLOCK", block):
            self.test_matches_the_per_line_oracle.hypothesis.inner_test(self, text)

    def test_only_a_block_with_an_odd_line_goes_line_by_line(self, tmp_path):
        stations = [f"M{k:03d}" for k in range(8)] + ["Zürich"]
        rng = np.random.default_rng(0)
        lines = [HEADER] + [f"{stations[o]},{stations[d]},{t}" for o, d, t in zip(
            rng.integers(0, 9, 400), rng.integers(0, 9, 400), rng.integers(0, 2 * 10**9, 400))]
        odd = [" M001,M002,5", "M001,M002,+5", "M001,M002,1_000", f"M001,M002,{10**19 - 1}",
               "", "Zürich, M000 ,7"]
        path = tmp_path / "trips.csv"

        def line_by_line(lines):
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            return lines_read_one_by_one(path, stations)

        assert line_by_line(lines) == [1]  # the header; Zürich takes the numpy path
        mixed = lines[:200] + odd + lines[200:]
        # line 1 is block 0; each later block is 1024 characters and the rest of
        # the line that holds the next character
        blocks, block, start = [0], 1, 0
        for end in np.cumsum([len(line) + 1 for line in mixed[1:]]):
            blocks.append(block)
            if end > start + 1024:
                block, start = block + 1, end
        odd_block = blocks[200]
        assert blocks[205] == odd_block and 2 < odd_block < blocks[-1]  # a middle block
        assert line_by_line(mixed) == [1] + [lineno for lineno, k in
                                             enumerate(blocks, start=1) if k == odd_block]

    @pytest.mark.parametrize("stations, unknown", NAME_SHAPES.values(), ids=NAME_SHAPES)
    def test_names_of_any_shape_take_the_numpy_path(self, tmp_path, stations, unknown):
        rng = np.random.default_rng(0)
        o, d = rng.integers(0, len(stations), (2, 300))
        lines = [HEADER] + [f"{stations[a]},{stations[b]},{t}" for a, b, t in zip(
            o.tolist(), d.tolist(), rng.integers(0, 2 * 10**9, 300).tolist())]
        path = tmp_path / "trips.csv"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert lines_read_one_by_one(path, stations) == [1]
        for name in unknown:
            for line in (f"{name},{stations[0]},5", f"{stations[0]},{name},5"):
                path.write_text("".join(line + "\n" for line in lines[:150] + [line]
                                        + lines[150:]), encoding="utf-8")
                with pytest.raises(dt.IngestionError) as expected:
                    oracle_read_trips(path, stations)
                assert str(expected.value) == f"unknown station {name!r} at line 151"
                with mock.patch.object(dt, "TRIP_BLOCK", 1024), \
                        pytest.raises(dt.IngestionError) as got:
                    dt.read_trips_with_lines(path, stations)
                assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("stations, unknown", NAME_SHAPES.values(), ids=NAME_SHAPES)
    def test_names_match_by_their_bytes_when_every_hash_collides(self, tmp_path, stations,
                                                                 unknown):
        with mock.patch.object(dt, "_name_hash", one_home):
            # every name probes from slot 0, so the last is reached after all the others
            assert dt._name_table(stations)[-1] == len(stations) - 1
            self.test_names_of_any_shape_take_the_numpy_path(tmp_path, stations, unknown)

    @pytest.mark.parametrize("block", [7, 64])
    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(defective_trip_logs())
    @example(f"{HEADER}\nA,B,100\nC,A,200\nB,C,300\nA,X,400\n")
    def test_defective_logs_match_the_oracle_when_every_hash_collides(self, block, text):
        with mock.patch.object(dt, "_name_hash", one_home), \
                mock.patch.object(dt, "TRIP_BLOCK", block):
            self.test_matches_the_per_line_oracle.hypothesis.inner_test(self, text)

    def test_a_block_reads_only_the_words_its_longest_field_reaches(self, tmp_path):
        stations = [f"M{k:03d}" for k in range(8)] + ["L" * 1000]
        lines = [HEADER] + [f"M00{k % 8},M00{k * 3 % 8},{k}" for k in range(400)]
        lines[200] = f"M001,{stations[-1]},7"
        path = tmp_path / "trips.csv"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with mock.patch.object(dt, "_name_hash", wraps=dt._name_hash) as spy:
            assert lines_read_one_by_one(path, stations) == [1]
        # the table's 125 words a name, then 1 word a block, but 125 for the long name's
        words = [len(call.args[1]) for call in spy.call_args_list]
        assert words[0] == 125 and sorted(words[1:]) == [1] * (len(words) - 2) + [125]

    def test_many_stations_cost_about_what_a_name_dict_costs(self, tmp_path):
        stations = [f"S{k}" for k in range(2**17)]
        path = tmp_path / "trips.csv"
        path.write_text("S0,S1,5\nS131071,S7,9\n")

        def read():
            return dt.read_trips_with_lines(path, stations)

        def name_dicts():  # what each call built before the name table
            dt._check_stations(stations)
            index = {name: k for k, name in enumerate(stations) if name == name.strip()}
            return {name.encode("utf-8"): k for name, k in index.items()}

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def seconds(call):
            start = time.perf_counter()
            call()
            return time.perf_counter() - start

        for a, b in zip(read(), oracle_read_trips(path, stations), strict=True):
            assert a.dtype == np.int64 and np.array_equal(a, b)
        assert peak(read) <= 2 * peak(name_dicts)
        # the fastest of three alternated calls each, so that a busy machine slows both
        times = [(seconds(read), seconds(name_dicts)) for _ in range(3)]
        assert min(r for r, _ in times) <= 3 * min(d for _, d in times)

    def test_a_line_longer_than_a_block_is_read_whole(self, tmp_path):
        path = tmp_path / "trips.csv"
        path.write_bytes(b"A,B,1\n" + b" " * 100_000 + b"B , A,2\r\nA,B,3")
        with mock.patch.object(dt, "TRIP_BLOCK", 16):
            got = dt.read_trips_with_lines(path, ["A", "B"])
        for a, b in zip(got, oracle_read_trips(path, ["A", "B"]), strict=True):
            assert a.dtype == np.int64 and np.array_equal(a, b)
        assert got[2].tolist() == [1, 2, 3]

    @pytest.mark.parametrize("block", [7, 1 << 16])
    @pytest.mark.parametrize("text, error", [
        (b"A,B,1\nA,B\n" + b"A,B,2\n" * 20 + b"\xff,B,3\n",
         "malformed trip record at line 2: 'A,B'"),
        (b"A,B,1\n" + b"A,B,2\n" * 20 + b"\xff,B,3\nX,B,4\n", "not UTF-8 text"),
        (b"A,B,1\nA,B,\xff\nA,B\n", "not UTF-8 text"),
        (b"A,B,1\nA,X,2\nA,B,\xff\n", "unknown station 'X' at line 2"),
        # a sequence cut by the line end is reported as a decode of the file reports it
        (b"A,B,1\nA,B,2\xe2\n", "{path}: not UTF-8 text (invalid continuation byte)"),
        (b"A,B,1\n\xff,B,2\n", "{path}: not UTF-8 text (invalid start byte)"),
    ], ids=["malformed_before_later_block", "bad_byte_before_unknown", "bad_byte_first",
            "unknown_on_the_line_before", "cut_sequence_reason", "bad_first_byte_reason"])
    def test_first_defect_in_file_order_wins(self, tmp_path, block, text, error):
        path = tmp_path / "trips.csv"
        path.write_bytes(text)
        with mock.patch.object(dt, "TRIP_BLOCK", block), \
                pytest.raises(dt.IngestionError, match=re.escape(error.format(path=path))):
            dt.read_trips_with_lines(path, ["A", "B"])

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_peak_memory_is_twice_the_columns(self, tmp_path, end):
        # a log shaped like perfbench/gen_inputs.py's: a header, then 100k clean rows
        rng = np.random.default_rng(1)
        stations = [f"M{k:03d}" for k in range(80)]
        o, d = rng.integers(0, 80, (2, 100_000))
        stamps = rng.integers(1_700_000_000, 1_800_000_000, 100_000)
        path = tmp_path / "trips.csv"
        path.write_bytes((HEADER + end + "".join(
            f"M{a:03d},M{b:03d},{t}{end}" for a, b, t in zip(o.tolist(), d.tolist(),
                                                            stamps.tolist()))).encode())
        tracemalloc.start()
        try:
            got = dt.read_trips_with_lines(path, stations)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got[2], stamps)
        columns = 3 * 8 * 100_000
        # the blocks' columns and their concatenation, and a few blocks of parsing
        assert peak <= 2 * columns + 16 * dt.TRIP_BLOCK
