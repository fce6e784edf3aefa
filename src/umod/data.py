"""OD flow series construction, filtering, normalization, and windowing.

The pipeline turns a trip log into a ``[T, N, N]`` count tensor on a
fixed time grid, drops bins outside metro operating hours, fits a single
reversible z-score on the training portion, and slices the series into
(history, horizon) window pairs split chronologically by ``SPLIT``.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

SERIES_MAGIC = b"UMODODS1"
SERIES_VERSION = 1
SECONDS_PER_DAY = 86400
SPLIT = (0.7, 0.1, 0.2)  # chronological train : val : test fractions
INT64_MIN, INT64_MAX = -2**63, 2**63 - 1


class IngestionError(ValueError):
    """Raised for trip records that cannot be placed in the series."""


class ConfigurationError(ValueError):
    """Raised for infeasible pipeline settings."""


class SeriesFormatError(ValueError):
    """Raised when a series container cannot be parsed."""


@dataclass
class ODSeries:
    """Network-wide OD flow counts on a regular time grid.

    ``flows[t, i, j]`` counts trips from station ``i`` to station ``j``
    during bin ``t``. When ``operating_window`` is set the grid holds only
    the in-window bins of each day, indexed consecutively. A grid that
    ``_check_grid`` rejects raises ConfigurationError.
    """

    stations: list[str]
    start_time: int
    granularity: int
    flows: np.ndarray  # [T, N, N] float64
    operating_window: tuple[int, int] | None = None

    def __post_init__(self):
        self.flows = np.asarray(self.flows, dtype=np.float64)
        if self.flows.ndim != 3:
            raise ConfigurationError(f"flows must be [T, N, N], got {self.flows.shape}")
        n = len(self.stations)
        if self.flows.shape[1] != n or self.flows.shape[2] != n:
            raise ConfigurationError(
                f"flows {self.flows.shape} does not match {n} stations"
            )
        if len(set(self.stations)) != n:
            twice = next(s for k, s in enumerate(self.stations) if s in self.stations[:k])
            raise ConfigurationError(f"station {twice!r} is listed twice")
        _check_grid(self.granularity, self.operating_window)

    @property
    def n_stations(self) -> int:
        return len(self.stations)

    @property
    def n_bins(self) -> int:
        return self.flows.shape[0]

    @property
    def bins_per_day(self) -> int:
        return _bins_per_day(self.granularity, self.operating_window)


@dataclass
class NormStats:
    """Global scalar z-score statistics, fit on the training split only."""

    mean: float
    std: float
    used_fallback: bool = False  # std was degenerate and clamped to 1

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=np.float64) - self.mean
        out /= self.std  # in place, so the result is the only new array
        return out

    def invert(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) * self.std + self.mean


@dataclass
class WindowSample:
    """One normalized (history, horizon) pair anchored at bin ``t_anchor``."""

    x: np.ndarray  # [H, E, F]
    y: np.ndarray  # [P, E, F]
    t_anchor: int  # absolute index of the last history bin


@dataclass
class SyntheticSpec:
    """Deterministic generator settings; the defaults are the paper's protocol."""

    n_stations: int = 8
    days: int = 14
    granularity: int = 1800
    seed: int = 0
    noise_std: float = 0.5
    operating_window: tuple[int, int] | None = (6, 23)

    def __post_init__(self):
        if self.n_stations < 1 or self.days < 1 or not self.noise_std >= 0:
            raise ConfigurationError(
                f"synthetic series needs n_stations >= 1, days >= 1 and noise_std >= 0, "
                f"got {self.n_stations}, {self.days} and {self.noise_std}")
        _check_grid(self.granularity, self.operating_window)


# ---------------------------------------------------------------------------
# ingestion


def build_od_series(trips, stations, start_time: int, end_time: int,
                    granularity: int) -> tuple[ODSeries, int]:
    """Bin trips into an ODSeries.

    ``trips`` is ``(origin, destination, timestamp)``: station-index and
    timestamp arrays of one length, as ``read_trips_with_lines`` returns.
    Bins are half-open ``[start, start + granularity)``, so a boundary
    timestamp lands in the later bin. Returns the series and the count of
    trips dropped for falling outside ``[start_time, end_time)``.
    """
    _check_grid(granularity, None)
    if start_time >= end_time:
        raise ConfigurationError("start_time must precede end_time")
    if not INT64_MIN < start_time < end_time <= INT64_MAX:
        raise ConfigurationError(f"span [{start_time}, {end_time}) is beyond int64 seconds")
    span = end_time - start_time
    if span % granularity != 0 or span < granularity:
        raise ConfigurationError(
            f"granularity {granularity} does not tile the span of {span} seconds"
        )
    origin, destination, timestamp = (np.asarray(a, dtype=np.int64) for a in trips)
    n = len(stations)
    # an index of n would otherwise land silently in the next bin
    bad = np.flatnonzero((np.minimum(origin, destination) < 0)
                         | (np.maximum(origin, destination) >= n))
    if bad.size:
        raise IngestionError(f"station index out of range for {n} stations "
                             f"at record {bad[0]}")
    keep = (timestamp >= start_time) & (timestamp < end_time)
    t = (timestamp[keep] - start_time) // granularity
    cells = (t * n + origin[keep]) * n + destination[keep]
    t_total = span // granularity
    # unit weights count in float64 directly; counts below 2**53 stay exact
    flows = np.bincount(cells, weights=np.ones(cells.size),
                        minlength=t_total * n * n).reshape(t_total, n, n)
    series = ODSeries(list(stations), start_time, granularity, flows)
    return series, int(keep.size - np.count_nonzero(keep))


def _read_text_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, a leading byte-order mark dropped.

    Universal newlines have turned ``\\r\\n`` and ``\\r`` into ``\\n``, so
    line ``k`` of the file is item ``k - 1``.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def read_lines(path) -> list[tuple[int, str]]:
    """``(line number, stripped line)`` for each non-blank line of UTF-8 text."""
    return [(lineno, line) for lineno, line in
            enumerate(map(str.strip, _read_text_lines(path)), start=1) if line]


def read_trips_with_lines(path, stations) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse delimited trip text into origin, destination and timestamp columns.

    Format: ``origin,destination,unix_timestamp`` per line, optional header
    on line 1; blank lines are skipped and fields may carry whitespace.
    Origins and destinations become indices into ``stations``; timestamps
    beyond the int64 range are clamped to it, so they fall outside any span.
    Raises IngestionError naming the line of the first malformed record or
    unknown station.
    """
    # a stripped field never equals a name with outer whitespace
    index = {name: k for k, name in enumerate(stations) if name == name.strip()}
    flat = []  # origin, destination, timestamp of each trip in turn
    for lineno, raw in enumerate(_read_text_lines(path), start=1):
        try:  # most lines: two bare known names and an in-range integer
            o, d, s = raw.split(",")
            stamp = int(s)
            if INT64_MIN <= stamp <= INT64_MAX:
                flat += (index[o], index[d], stamp)
                continue
        except (ValueError, KeyError):
            pass
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        try:
            stamp = int(parts[-1])
        except ValueError:
            if lineno == 1:
                continue  # optional header
            stamp = None
        if len(parts) != 3 or stamp is None:
            raise IngestionError(f"malformed trip record at line {lineno}: {line!r}")
        for name in parts[:2]:
            if name not in index:
                raise IngestionError(f"unknown station {name!r} at line {lineno}")
        flat += (index[parts[0]], index[parts[1]], min(max(stamp, INT64_MIN), INT64_MAX))
    return tuple(np.array(flat, dtype=np.int64).reshape(-1, 3).T)


# ---------------------------------------------------------------------------
# filtering / normalization / windowing


def filter_operating_hours(series: ODSeries, window: tuple[int, int]) -> ODSeries:
    """Drop bins whose start hour falls outside ``[start_hour, end_hour)``.

    Remaining bins are re-indexed consecutively and the window is recorded
    on the returned series.
    """
    start_h, end_h = window
    if series.operating_window is not None:
        raise ConfigurationError("series already carries an operating window")
    _check_grid(series.granularity, window)
    t = np.arange(series.n_bins)
    second_of_day = (series.start_time + t * series.granularity) % SECONDS_PER_DAY
    keep = (second_of_day >= start_h * 3600) & (second_of_day < end_h * 3600)
    if not keep.any():
        raise ConfigurationError(f"no bin of the series falls inside operating window "
                                 f"{start_h}-{end_h}h")
    return ODSeries(series.stations, series.start_time, series.granularity,
                    series.flows[keep], operating_window=(start_h, end_h))


def _bins_per_day(granularity: int, window: tuple[int, int] | None) -> int:
    """Bins in one day of the grid, or in its operating window when one is set."""
    seconds = SECONDS_PER_DAY if window is None else (window[1] - window[0]) * 3600
    return seconds // granularity


def _check_grid(granularity: int, window: tuple[int, int] | None) -> None:
    """Require ``granularity >= 1`` second and, unless ``window`` is None, whole
    hours ``0 <= start_h < end_h <= 24`` that fall on bin boundaries."""
    if granularity < 1:
        raise ConfigurationError(f"granularity {granularity} must be >= 1 second")
    if window is None:
        return
    start_h, end_h = window
    if not (0 <= start_h < end_h <= 24):
        raise ConfigurationError(f"bad operating window {window}")
    if (start_h * 3600) % granularity or (end_h * 3600) % granularity:
        raise ConfigurationError(f"window {window} does not align with {granularity}s bins")


def fit_normalizer(series: ODSeries, train_fraction: float = SPLIT[0]) -> NormStats:
    """Fit global mean/std over the first ``floor(frac * T)`` bins."""
    if not (0.0 < train_fraction <= 1.0):
        raise ConfigurationError(f"train_fraction {train_fraction} out of (0, 1]")
    n_train = int(series.n_bins * train_fraction)
    if n_train < 1:
        raise ConfigurationError("training portion is empty")
    chunk = series.flows[:n_train]
    mean = float(chunk.mean())
    std = float(chunk.std())  # population formula
    if std <= 0.0:
        return NormStats(mean=mean, std=1.0, used_fallback=True)
    return NormStats(mean=mean, std=std)


def split_and_window(flows: np.ndarray, stats: NormStats, ratios, H: int, P: int):
    """Chronological split plus sliding windows that never cross a boundary.

    ``flows`` is any ``[T, E, F]`` array (the station-rows view ``[T, N, N]``
    or a pair view ``[T, K, 1]``). Returns (train, val, test) lists of
    WindowSample with ``len_split - H - P + 1`` samples each. Every ``x`` and
    ``y`` is a view of one normalised array, which is read-only so that no
    window can change another; ``training.stack_batch`` copies a batch.
    """
    if H < 1 or P < 1:
        raise ConfigurationError("H and P must be >= 1")
    flows = np.asarray(flows, dtype=np.float64)
    t_total = flows.shape[0]
    r_train, r_val, r_test = ratios
    if abs(r_train + r_val + r_test - 1.0) > 1e-9:
        raise ConfigurationError(f"split ratios {ratios} do not sum to 1")
    n_train, n_val, _ = split_lengths(t_total, ratios)
    bounds = [("train", 0, n_train), ("val", n_train, n_train + n_val),
              ("test", n_train + n_val, t_total)]
    need = H + P
    for name, lo, hi in bounds:
        if hi - lo < need:
            raise ConfigurationError(
                f"{name} split has {hi - lo} bins but needs at least {need} (H={H}, P={P})"
            )
    norm = stats.apply(flows)
    norm.flags.writeable = False
    out = []
    for _, lo, hi in bounds:
        samples = []
        # anchor t = index of the last history bin (absolute)
        for t in range(lo + H - 1, hi - P):
            samples.append(WindowSample(
                x=norm[t - H + 1:t + 1],
                y=norm[t + 1:t + P + 1],
                t_anchor=t,
            ))
        out.append(samples)
    return tuple(out)


def split_lengths(t_total: int, ratios=SPLIT) -> tuple[int, int, int]:
    n_train = int(t_total * ratios[0])
    n_val = int(t_total * ratios[1])
    return n_train, n_val, t_total - n_train - n_val


# ---------------------------------------------------------------------------
# synthetic data


def synth_generate(spec: SyntheticSpec) -> ODSeries:
    """Deterministic metro-like counts: per-pair rate x daily profile + noise.

    ``flows[t, i, j] = round(max(0, amp[i, j] * profile[t mod bpd] + eps))``
    with ``profile = two_peak_profile(bpd)``, and ``amp ~ U(2, 12)`` and
    ``eps ~ N(0, noise_std)`` drawn in that order from a generator seeded by
    ``spec.seed``. Only in-window bins are emitted.
    """
    n = spec.n_stations
    bpd = _bins_per_day(spec.granularity, spec.operating_window)
    rng = np.random.default_rng(spec.seed)
    amps = rng.uniform(2.0, 12.0, size=(n, n))  # [N, N] base rates
    t_total = spec.days * bpd
    base = amps[None, :, :] * two_peak_profile(bpd)[:, None, None]  # [bpd, N, N]
    flows = np.empty((t_total, n, n), dtype=np.float64)
    for day in range(spec.days):
        noise = rng.normal(0.0, spec.noise_std, size=(bpd, n, n)) if spec.noise_std > 0 \
            else 0.0
        flows[day * bpd:(day + 1) * bpd] = np.round(np.maximum(0.0, base + noise))
    return ODSeries(
        stations=[f"S{k:02d}" for k in range(n)],
        start_time=0,
        granularity=spec.granularity,
        flows=flows,
        operating_window=spec.operating_window,
    )


def two_peak_profile(bins_per_day: int) -> np.ndarray:
    """Morning/evening commute profile with exactly two local maxima."""
    b = np.arange(bins_per_day, dtype=np.float64)
    am = 0.30 * bins_per_day
    pm = 0.70 * bins_per_day
    width = bins_per_day / 12.0
    profile = (0.35
               + 1.00 * np.exp(-0.5 * ((b - am) / width) ** 2)
               + 0.85 * np.exp(-0.5 * ((b - pm) / width) ** 2))
    return profile


# ---------------------------------------------------------------------------
# binary containers: series, checkpoints and embedding dumps


def write_container(path, magic: bytes, header: dict, arrays) -> None:
    """Write ``magic (8 B) | u32 LE header length | JSON header | payload``.

    The header is UTF-8 JSON with sorted keys and holds ``"version"``; the
    payload is each array in turn as little-endian float64. Arrays are written
    one at a time, so the payload is never joined into one buffer.
    """
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for a in arrays:
            fh.write(memoryview(np.ascontiguousarray(a, dtype="<f8")))


def read_container(path, magic: bytes, version: int, shapes, error):
    """Read a file written by ``write_container``; returns (header, arrays).

    ``shapes(header)`` lists the shape of each array the header promises; a
    KeyError, TypeError or ValueError from it means a missing or ill-typed key.
    Every defect of the file raises ``error``, the caller's exception type.
    """
    def fail(msg: str) -> Exception:
        return error(f"{path}: {msg}")

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if len(head) < 12:
            raise fail(f"truncated file: {size} bytes, the preamble needs 12")
        if head[:8] != magic:
            raise fail(f"bad magic at byte 0: {head[:8]!r}, expected {magic!r}")
        (header_len,) = struct.unpack("<I", head[8:])
        if 12 + header_len > size:
            raise fail(f"header runs to byte {12 + header_len}, "
                       f"past the end of the file at byte {size}")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise fail(f"unparsable header at byte 12: {exc}") from exc
        if not isinstance(header, dict):
            raise fail("header at byte 12 is not a JSON object")
        if header.get("version") != version:
            raise fail(f"unsupported version {header.get('version')!r}, expected {version}")
        try:
            dims = [list(shape) for shape in shapes(header)]
        except (KeyError, TypeError, ValueError) as exc:
            raise fail(f"bad header: {type(exc).__name__}: {exc}") from exc
        if not all(type(d) is int and d >= 0 for shape in dims for d in shape):
            raise fail(f"bad header: array shapes {dims} are not lists of counts")
        counts = [math.prod(shape) for shape in dims]
        expected = 12 + header_len + 8 * sum(counts)
        if size != expected:
            raise fail(f"payload ends at byte {size}, expected {expected}")
        arrays = []
        for shape, count in zip(dims, counts):
            try:
                arrays.append(np.fromfile(fh, dtype="<f8", count=count).reshape(shape))
            except ValueError as exc:
                raise fail(f"bad header: array shape {shape}: {exc}") from exc
    return header, arrays


def dump_series(series: ODSeries, path) -> None:
    """Write the ``UMODODS1`` series container: metadata header, ``[T, N, N]`` flows."""
    header = {
        "version": SERIES_VERSION,
        "stations": series.stations,
        "start_time": series.start_time,
        "granularity": series.granularity,
        "dims": list(series.flows.shape),
        "operating_window": list(series.operating_window)
        if series.operating_window else None,
    }
    write_container(path, SERIES_MAGIC, header, [series.flows])


def load_series(path) -> ODSeries:
    header, (flows,) = read_container(path, SERIES_MAGIC, SERIES_VERSION,
                                      lambda h: [h["dims"]], SeriesFormatError)
    try:
        stations, window = header["stations"], header["operating_window"]
        numbers = [header["start_time"], header["granularity"], *(window or [])]
        if not (isinstance(stations, list) and all(isinstance(s, str) for s in stations)
                and all(type(v) is int for v in numbers)
                and (window is None or len(window) == 2)):
            raise TypeError("stations must be names; start_time, granularity and "
                            "operating_window integers")
        return ODSeries(stations, header["start_time"], header["granularity"], flows,
                        operating_window=tuple(window) if window else None)
    except (KeyError, TypeError, ConfigurationError) as exc:
        raise SeriesFormatError(
            f"{path}: bad series header: {type(exc).__name__}: {exc}") from exc
