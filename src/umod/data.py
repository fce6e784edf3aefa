"""OD flow series construction, filtering, normalization, and windowing.

The pipeline turns a trip log into the nonzero cells of a ``[T, N, N]``
count tensor (a ``SparseSeries``; training reads its dense ``ODSeries``) on a
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
SERIES_VERSION = 2
SECONDS_PER_DAY = 86400
SPLIT = (0.7, 0.1, 0.2)  # chronological train : val : test fractions
INT64_MIN, INT64_MAX = -2**63, 2**63 - 1
TRIP_BLOCK = 1 << 16  # characters of trip log read and parsed at a time


class IngestionError(ValueError):
    """Raised for trip records that cannot be placed in the series."""


class ConfigurationError(ValueError):
    """Raised for infeasible pipeline settings."""


class SeriesFormatError(ValueError):
    """Raised when a series container cannot be parsed."""


@dataclass(frozen=True)
class Grid:
    """Bins of ``granularity`` seconds from ``start_time``, of which those that
    start inside the whole hours ``window = (start_h, end_h)`` are kept, or all
    when ``window`` is None. ConfigurationError unless ``granularity >= 1``,
    ``0 <= start_h < end_h <= 24`` fall on bin boundaries, and a windowed
    grid's bins tile a day."""

    start_time: int
    granularity: int
    window: tuple[int, int] | None

    def __post_init__(self):
        if self.granularity < 1:
            raise ConfigurationError(f"granularity {self.granularity} must be >= 1 second")
        if self.window is None:
            return
        start_h, end_h = self.window
        if not (0 <= start_h < end_h <= 24):
            raise ConfigurationError(f"bad operating window {self.window}")
        if (start_h * 3600) % self.granularity or (end_h * 3600) % self.granularity:
            raise ConfigurationError(
                f"window {self.window} does not align with {self.granularity}s bins")
        self._check_tiles_day()  # else the kept bins fall at other hours on other days

    def _check_tiles_day(self) -> None:
        if SECONDS_PER_DAY % self.granularity:
            raise ConfigurationError(f"granularity {self.granularity} does not tile "
                                     f"a day of {SECONDS_PER_DAY} seconds")

    @property
    def bins_per_day(self) -> int:
        """Kept bins in one day; ConfigurationError unless the bins tile a day."""
        self._check_tiles_day()
        hours = 24 if self.window is None else self.window[1] - self.window[0]
        return hours * 3600 // self.granularity


@dataclass
class ODSeries:
    """OD flow counts on the kept bins of ``grid``, indexed consecutively:
    ``flows[t, i, j]`` counts trips from station ``i`` to station ``j`` in bin ``t``.
    A plain record: its makers check it."""

    stations: list[str]
    grid: Grid
    flows: np.ndarray  # [T, N, N] float64

    @property
    def n_stations(self) -> int:
        return len(self.stations)

    @property
    def n_bins(self) -> int:
        return self.flows.shape[0]


@dataclass
class SparseSeries:
    """A series as the version-2 file holds it, made by ingest and by
    ``load_series``, which check its stations and ``dims``: its ``[T, N, N]``
    flows of shape ``dims`` are ``values`` at the increasing flat indices
    ``cells``, +0.0 elsewhere. ``dense()`` is the one place that stored cells
    are made dense."""

    stations: list[str]
    grid: Grid
    dims: tuple[int, int, int]
    cells: np.ndarray  # int64
    values: np.ndarray  # float64

    def dense(self) -> ODSeries:
        flows = np.zeros(self.dims)
        flows.reshape(-1)[self.cells] = self.values
        return ODSeries(self.stations, self.grid, flows)


def _check_stations(stations) -> None:
    seen = set()
    for name in stations:
        if name in seen:
            raise ConfigurationError(f"station {name!r} is listed twice")
        seen.add(name)


@dataclass
class NormStats:
    """Global scalar z-score statistics, fit on the training split only."""

    mean: float
    std: float

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
        bins_per_day = self.grid.bins_per_day
        if self.seed < 0:
            raise ConfigurationError(f"synthetic seed must be >= 0, got {self.seed}")
        n = self.n_stations
        t_total = self.days * bins_per_day
        check_float64_shape((t_total, n, n), f"{t_total} bins of {n} x {n} cells")

    @property
    def grid(self) -> Grid:
        return Grid(0, self.granularity, self.operating_window)


# ---------------------------------------------------------------------------
# ingestion


def build_od_series(trips, stations, grid: Grid,
                    end_time: int) -> tuple[SparseSeries, int, int]:
    """Bin trips into a SparseSeries on the kept bins of ``grid``.

    ``trips`` is ``(origin, destination, timestamp)``: the int64 columns that
    ``read_trips_with_lines`` returns for ``stations``, so each index names one.
    Bins are half-open ``[start, start + granularity)``, so a boundary
    timestamp lands in the later bin; ``filter_operating_hours`` picks the
    bins that are kept, in a span ``[grid.start_time, end_time)`` that its
    caller has checked. Returns the series and the counts of trips dropped
    for falling outside the span and outside the window's hours.
    """
    start_time, granularity = grid.start_time, grid.granularity
    origin, destination, timestamp = trips
    n = len(stations)
    t_total = (end_time - start_time) // granularity
    # also keeps every flat cell index below int64, so none of them can wrap
    check_float64_shape((t_total, n, n), f"{t_total} bins of {n} x {n} cells")
    kept_bin = filter_operating_hours(grid, t_total)
    t_kept = int(kept_bin.max()) + 1
    if t_kept * n * n > 2**53:  # the series file stores each flat index as a float64
        raise ConfigurationError(f"{t_kept} kept bins of {n} x {n} cells are {t_kept * n * n} "
                                 f"cells, more than the 2**53 a series file indexes exactly")
    in_span = (timestamp >= start_time) & (timestamp < end_time)
    t = kept_bin[(timestamp[in_span] - start_time) // granularity]
    in_hours = t >= 0
    cells = (t[in_hours] * n + origin[in_span][in_hours]) * n + destination[in_span][in_hours]
    dropped = int(in_span.size - t.size), int(t.size - cells.size)
    cells, counts = np.unique(cells, return_counts=True)
    # counts below 2**53 are exact in float64
    series = SparseSeries(list(stations), grid, (t_kept, n, n), cells,
                          counts.astype(np.float64))
    return series, *dropped


def read_stations(path) -> list[str]:
    """The station names of a list file: its stripped non-blank lines of UTF-8
    text, a leading byte-order mark dropped. Raises IngestionError for text
    that is not UTF-8, then ConfigurationError for a list with no names or a
    name listed twice."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            stations = [line for line in map(str.strip, fh.read().split("\n")) if line]
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if not stations:
        raise ConfigurationError(f"{path}: no station names")
    _check_stations(stations)
    return stations


def read_trips_with_lines(path, stations) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse delimited trip text into origin, destination and timestamp columns.

    Format: ``origin,destination,unix_timestamp`` per line, optional header
    on line 1; blank lines are skipped and fields may carry whitespace.
    Origins and destinations become indices into ``stations``, the list
    ``read_stations`` returns; timestamps beyond the int64 range are clamped
    to it, so they fall outside any span. Raises IngestionError for the first
    defect in file order: a malformed record or unknown station, named with
    its line, or a byte that is not UTF-8, reported when no line before its
    own has a defect.

    The log is read in text mode (no byte-order mark, every line ending
    ``\n``, a byte that is not UTF-8 kept as itself): line 1 on its own, so
    that a header does not hold back the lines after it, then ``TRIP_BLOCK``
    characters and one ``readline`` at a time. A block whose lines are all
    ``name,name,digits`` (known names as they are, of any length, 1 to 18
    digits) is parsed in numpy, each name looked up by its UTF-8 bytes in the
    stations' one ``_name_table``, and any other block by ``_parse_lines``,
    the one copy of the per-line rules, which decodes each line where it
    parses it, to the same columns.
    """
    index = {name: k for k, name in enumerate(stations)}
    table = _name_table(stations)
    blocks, lineno = [np.empty((3, 0), np.int64)], 1
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        size = 0  # line 1 on its own
        while body := (fh.read(size) + fh.readline()).encode("utf-8", "surrogateescape"):
            if not body.endswith(b"\n"):
                body += b"\n"  # the end of the file ends the last line
            columns = _parse_block(body, table)
            if columns is None:
                columns = _parse_lines(path, body, lineno, index)
            blocks.append(columns)
            lineno += body.count(b"\n")
            size = TRIP_BLOCK
    return tuple(np.concatenate(blocks, axis=1))


_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd, so each multiply permutes the uint64 values
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)  # the low k bytes


def _name_hash(length: np.ndarray, words: np.ndarray) -> np.ndarray:
    """A uint64 hash of each name of ``length`` bytes held in a column of
    ``words``; its top bits pick the name's home slot. Zero words after a
    name's bytes leave its hash as it is."""
    h = np.zeros(length.shape, np.uint64)
    for word in words[::-1]:  # from the last, so that trailing zero words keep h at 0
        h = (h ^ word) * _MIX  # wraps
    return (h ^ length.astype(np.uint64)) * _MIX


def _name_table(stations) -> tuple:
    """The names of ``stations`` as ``_parse_block`` looks them up: ``lengths``,
    their UTF-8 byte lengths, and ``words``, whose column k holds name k's bytes
    as zero-padded little-endian 8-byte words, each with one more entry, of
    length -1, which no field matches and which fills the empty slots of
    ``slots``, a linear probing table of station indices: k sits at its home
    slot, the top ``bits`` of name k's ``_name_hash``, or at most ``reach`` after it."""
    names = [name.encode("utf-8") for name in stations]
    n = len(names)
    length = np.fromiter(map(len, names), np.int64, n)
    width = max(1, -(-int(length.max(initial=0)) // 8))  # words per name
    words = np.zeros((width, n + 1), np.uint64)
    words[:, :n] = np.array(names, f"S{8 * width}").view("<u8").reshape(n, width).T
    bits = max(1, (2 * n - 1).bit_length())  # at least 2n home slots
    home = (_name_hash(length, words[:, :n]) >> np.uint64(64 - bits)).astype(np.int64)
    # in order of home slot, each name takes the first free slot from its home
    order = np.argsort(home, kind="stable")
    rank = np.arange(n)
    slot = np.maximum.accumulate(home[order] - rank) + rank
    slots = np.full((1 << bits) + n, n)  # n more slots, so no probe wraps around
    slots[slot] = order
    reach = int((slot - home[order]).max(initial=0))
    return np.append(length, -1), words, slots, bits, reach


def _parse_block(body: bytes, table) -> np.ndarray | None:
    """The ``[3, n]`` columns of the ``n`` lines of ``body`` if each is
    ``origin,destination,digits`` with names of ``table`` (a ``_name_table``)
    and 1 to 18 ASCII digits, else None. Such a block is UTF-8.

    Each name field is found from the comma and newline positions, read as
    words through one gather from an unaligned 8-byte view of the zero-padded
    block, masked to its length, and matched by its length and every word
    with the names its hash probes; a field that none matches gives None."""
    b = np.frombuffer(body, np.uint8)
    newline = np.flatnonzero(b == ord("\n"))
    comma = np.flatnonzero(b == ord(","))
    n = newline.size
    if comma.size != 2 * n:
        return None
    # with 2n commas, and only digits from every second one to the next newline,
    # every line has exactly two
    width = newline - comma[1::2] - 1
    digits = int(width.max())
    if width.min() < 1 or digits > 18:
        return None
    stamp = np.zeros(n, np.int64)  # exact: below 10**18 < 2**63
    for j in range(digits, 0, -1):  # the j-th digit from the end, where a line has one
        # newline - j >= -j > -b.size: a short first line's index wraps, masked
        digit = np.where(width >= j, b[newline - j] - np.uint8(ord("0")), np.uint8(0))
        if (digit > 9).any():
            return None
        stamp *= 10
        stamp += digit
    lengths, words, slots, bits, reach = table
    # field 2i, line i's origin, ends at comma 2i; field 2i + 1, its destination, at 2i + 1
    start = np.empty(2 * n, np.int64)
    start[0], start[1::2], start[2::2] = 0, comma[0::2] + 1, newline[:-1] + 1
    length = comma - start
    # only the words the longest field reaches, so a long name costs only its blocks
    pad = 8 * max(1, min(len(words), -(-int(length.max()) // 8)))
    view = np.ndarray(b.size + pad - 7, "<u8", body + bytes(pad), strides=(1,))
    field = np.stack([view[start + j] & _MASKS[np.clip(length - j, 0, 8)]
                      for j in range(0, pad, 8)])
    words = words[:len(field)]
    probe = _name_hash(length, field) >> np.uint64(64 - bits)
    row = slots[probe]  # each field's home slot, then the next for those not matched
    todo = np.flatnonzero((lengths[row] != length) | (words[:, row] != field).any(axis=0))
    for k in range(1, reach + 1):
        s = slots[probe[todo] + k]
        hit = (lengths[s] == length[todo]) & (words[:, s] == field[:, todo]).all(axis=0)
        row[todo[hit]] = s[hit]
        todo = todo[~hit]
    if todo.size:
        return None
    return np.stack([row[0::2], row[1::2], stamp])


def _parse_lines(path, body: bytes, lineno: int, index) -> np.ndarray:
    """The ``[3, n]`` columns of the lines of ``body``, the first of which is
    line ``lineno`` of ``path``, each decoded where it is parsed; a blank
    line, or a header on line 1, gives no trip."""
    flat = []  # origin, destination, timestamp of each trip in turn
    for lineno, raw in enumerate(body.split(b"\n")[:-1], start=lineno):
        try:  # with its newline, so a sequence cut by the line end reads as in the file
            line = (raw + b"\n").decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise IngestionError(f"{path}: not UTF-8 text ({exc.reason})") from exc
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
    return np.array(flat, dtype=np.int64).reshape(-1, 3).T


# ---------------------------------------------------------------------------
# filtering / normalization / windowing


def filter_operating_hours(grid: Grid, n_bins: int) -> np.ndarray:
    """The row of each of ``grid``'s first ``n_bins`` bins among its kept bins,
    or -1 for a bin whose start hour falls outside the window.

    Kept bins are indexed consecutively; a window of None keeps every bin.
    """
    t = np.arange(n_bins)
    if grid.window is None:
        return t
    start_h, end_h = grid.window
    second_of_day = (grid.start_time + t * grid.granularity) % SECONDS_PER_DAY
    keep = (second_of_day >= start_h * 3600) & (second_of_day < end_h * 3600)
    if not keep.any():
        raise ConfigurationError(f"no bin of the series falls inside operating window "
                                 f"{start_h}-{end_h}h")
    return np.where(keep, np.cumsum(keep) - 1, -1)


def check_float64_shape(shape, what: str) -> None:
    """Raise ConfigurationError naming ``what`` if numpy cannot describe a
    float64 array of ``shape``: an extent, or 8 bytes times the product of the
    extents each taken as at least 1, is above 2**63 - 1 (so ``(2**62, 0)`` is
    refused too). Smaller shapes can still fail when they are allocated."""
    if max(shape) > INT64_MAX or 8 * math.prod(max(d, 1) for d in shape) > INT64_MAX:
        raise ConfigurationError(f"{what} are more than a float64 array can hold")


def fit_normalizer(series: ODSeries, train_fraction: float = SPLIT[0]) -> NormStats:
    """Fit global mean/std over the first ``floor(frac * T)`` bins.

    Raises ConfigurationError if either is not finite."""
    chunk = series.flows[:int(series.n_bins * train_fraction)]
    if chunk.size == 0:  # no bins, or no stations
        raise ConfigurationError("training portion is empty")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(chunk.mean())
        std = float(chunk.std())  # population formula
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise ConfigurationError(f"the training portion of the series has mean {mean} "
                                 f"and std {std}; both must be finite")
    return NormStats(mean=mean, std=std if std > 0.0 else 1.0)  # a zero std is clamped


def split_and_window(flows: np.ndarray, stats: NormStats, ratios, H: int, P: int):
    """Chronological split plus sliding windows that never cross a boundary.

    ``flows`` is any ``[T, E, F]`` array (the station-rows view ``[T, N, N]``
    or a pair view ``[T, K, 1]``). Returns (train, val, test) lists of
    WindowSample with ``len_split - H - P + 1`` samples each. Every ``x`` and
    ``y`` is a view of one normalised array, which is read-only so that no
    window can change another; ``training.stack_batch`` copies a batch.
    """
    flows = np.asarray(flows, dtype=np.float64)
    t_total = flows.shape[0]
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
    ``spec.seed``. Only in-window bins are emitted. Raises ConfigurationError
    if the counts or their sum are not finite.
    """
    n = spec.n_stations
    bpd = spec.grid.bins_per_day
    rng = np.random.default_rng(spec.seed)
    amps = rng.uniform(2.0, 12.0, size=(n, n))  # [N, N] base rates
    t_total = spec.days * bpd
    base = amps[None, :, :] * two_peak_profile(bpd)[:, None, None]  # [bpd, N, N]
    flows = np.empty((t_total, n, n), dtype=np.float64)
    for day in range(spec.days):
        noise = rng.normal(0.0, spec.noise_std, size=(bpd, n, n)) if spec.noise_std > 0 \
            else 0.0
        flows[day * bpd:(day + 1) * bpd] = np.round(np.maximum(0.0, base + noise))
    with np.errstate(over="ignore"):
        total = flows.sum()
    if not math.isfinite(total):
        raise ConfigurationError(f"noise_std = {spec.noise_std} gives flows whose total "
                                 f"is not finite")
    return ODSeries(
        stations=[f"S{k:02d}" for k in range(n)],
        grid=spec.grid,
        flows=flows,
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
# binary containers: series and checkpoints


def write_atomically(path, write, binary: bool = False) -> None:
    """Call ``write(fh)`` on a new file beside ``path``, then move it over ``path``.

    A write that fails or is interrupted partway removes its temporary file
    and leaves an existing ``path`` as it was; an ``OSError`` names ``path``,
    not the temporary file. Text is UTF-8.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb" if binary else "w", encoding=None if binary else "utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.remove(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError) and exc.filename == tmp:
            exc.filename = path
        raise


def write_container(path, magic: bytes, header: dict, arrays) -> None:
    """Write ``magic (8 B) | u32 LE header length | JSON header | payload``.

    The header is UTF-8 JSON with sorted keys and holds ``"version"``; the
    payload is each array in turn as little-endian float64. Arrays are written
    one at a time, so the payload is never joined into one buffer.
    """
    blob = json.dumps(header, sort_keys=True).encode("utf-8")

    def write(fh):
        fh.write(magic)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for a in arrays:
            fh.write(memoryview(np.ascontiguousarray(a, dtype="<f8")))

    write_atomically(path, write, binary=True)


def read_container(path, magic: bytes, version: int, parse, error):
    """Read a file written by ``write_container``; returns (value, arrays).

    ``parse(header)`` is the one reader of the header: it returns ``(value,
    shapes)``, the caller's decoded header and each promised array's shape as
    counts, and runs before any payload byte is read. A KeyError, TypeError or
    ValueError from it (a ConfigurationError too) is a bad header. Every
    defect of the file raises ``error``, the caller's exception type.
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
            value, shapes = parse(header)
            dims = [list(shape) for shape in shapes]
        except (KeyError, TypeError, ValueError) as exc:
            raise fail(f"bad header: {type(exc).__name__}: {exc}") from exc
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
    return value, arrays


def dump_series(series: ODSeries | SparseSeries, path) -> None:
    """Write the ``UMODODS1`` series container: metadata header, then the flat
    indices of the stored cells, in increasing order, and their values. A dense
    series stores the cells whose bits are not +0.0, which keeps -0.0 and every
    NaN payload."""
    if isinstance(series, ODSeries):
        flat = series.flows.reshape(-1)
        cells = np.flatnonzero(flat.view(np.int64) != 0)
        series = SparseSeries(series.stations, series.grid, series.flows.shape, cells,
                              flat[cells])
    header = {
        "version": SERIES_VERSION,
        "stations": series.stations,
        "start_time": series.grid.start_time,
        "granularity": series.grid.granularity,
        "dims": list(series.dims),
        "cells": int(series.cells.size),
        "operating_window": list(series.grid.window)
        if series.grid.window else None,
    }
    write_container(path, SERIES_MAGIC, header, [series.cells, series.values])


def _parse_series_header(header: dict):
    """A version-2 header's ``(stations, grid, dims)``, and the payload it
    promises: ``cells`` indices, then their values."""
    dims, cells = header["dims"], header["cells"]
    if not (type(dims) is list and len(dims) == 3
            and all(type(d) is int and d >= 0 for d in dims)):
        raise ValueError(f"dims {dims!r} is not three counts")
    check_float64_shape(dims, f"dims {dims}")
    if type(cells) is not int or cells < 0:
        raise ValueError(f"cells {cells!r} is not a count")
    stations, window = header["stations"], header["operating_window"]
    if not (type(stations) is list and all(type(s) is str for s in stations)):
        raise TypeError(f"stations {stations!r} is not a list of names")
    for key in ("start_time", "granularity"):
        if type(header[key]) is not int:
            raise TypeError(f"{key} {header[key]!r} is not an integer")
    if not (window is None or (type(window) is list and len(window) == 2
                               and all(type(v) is int for v in window))):
        raise TypeError(f"operating_window {window!r} is not null or two integers")
    grid = Grid(header["start_time"], header["granularity"], tuple(window) if window else None)
    if dims[1:] != [len(stations)] * 2:
        raise ConfigurationError(f"dims {dims} do not match {len(stations)} stations")
    _check_stations(stations)
    return (stations, grid, tuple(dims)), [[cells], [cells]]


def load_series(path) -> ODSeries:
    """Read a ``UMODODS1`` file back into the dense ``[T, N, N]`` series: its
    header, parsed before the payload is read, and its checked cells make a
    ``SparseSeries``, which ``dense()`` fills in."""
    (stations, grid, dims), (cells, values) = read_container(
        path, SERIES_MAGIC, SERIES_VERSION, _parse_series_header, SeriesFormatError)
    size = math.prod(dims)
    bad = ~((cells >= 0) & (cells < size) & (cells == np.floor(cells)))
    bad[1:] |= ~(cells[1:] > cells[:-1])
    if bad.any():
        k = int(np.argmax(bad))
        raise SeriesFormatError(
            f"{path}: cell {k} has index {float(cells[k])!r}; indices must be whole "
            f"numbers in [0, {size}), strictly increasing")
    cells = cells.astype(np.int64)  # frees the float64 indices before dense() allocates
    del bad
    return SparseSeries(stations, grid, dims, cells, values).dense()
