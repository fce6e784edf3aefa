"""Property tests of the one binary-container codec and its two formats.

For the series (``UMODODS1``) and checkpoint (``UMODCKPT``) files: a round
trip is bit-identical, every truncation raises the format's typed error, and a
file with any one byte flipped either loads or raises that typed error, never
any other exception. A write that fails halfway leaves the file it would have
replaced byte for byte. Hypothesis runs derandomized, so every run of the suite
draws the same examples.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from umod import data as dt
from umod import model as md

PROPERTY = settings(derandomize=True, database=None, max_examples=25, deadline=None)
EXHAUSTIVE = settings(derandomize=True, database=None, max_examples=8, deadline=None)
VALUES = st.floats(width=64, allow_nan=True, allow_infinity=True)


@st.composite
def series(draw):
    """A valid grid: any granularity without a window, else one that divides
    both of the window's edges and a day."""
    n, t = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    window = draw(st.none() | st.integers(0, 23).flatmap(
        lambda start: st.tuples(st.just(start), st.integers(start + 1, 24))))
    if window is None:
        granularity = draw(st.integers(1, 86400))
    else:
        edges = math.gcd(window[0] * 3600, window[1] * 3600, 86400)
        granularity = draw(st.sampled_from(
            [g for g in range(1, edges + 1) if edges % g == 0]))
    return dt.ODSeries(
        stations=draw(st.lists(st.text(max_size=4), min_size=n, max_size=n, unique=True)),
        grid=dt.Grid(draw(st.integers(-2**40, 2**40)), granularity, window),
        flows=draw(hnp.arrays(np.float64, (t, n, n), elements=VALUES)))


@st.composite
def checkpoints(draw):
    mode = draw(st.sampled_from([md.STATION_ROWS, md.TOP_K_PAIRS]))
    n = draw(st.integers(1, 3))
    use_input, use_adaptive = draw(
        st.sampled_from([(True, True), (True, False), (False, True)]))
    config = md.ModelConfig(
        n_entities=n, history=draw(st.integers(1, 3)), horizon=draw(st.integers(1, 2)),
        d_input=draw(st.integers(1, 3)), d_adaptive=draw(st.integers(1, 3)),
        use_input_embedding=use_input, use_adaptive_embedding=use_adaptive,
        entity_mode=mode, seed=draw(st.integers(0, 2**32)))
    params = md.init_params(config)
    for p in params.values():
        p.data[...] = draw(hnp.arrays(np.float64, p.shape, elements=VALUES))
    return params, config


# strategy, writer(example, path), loader, the loader's typed error
FORMATS = {
    "series": (series(), lambda s, path: dt.dump_series(s, path),
               dt.load_series, dt.SeriesFormatError),
    "checkpoint": (checkpoints(), lambda c, path: md.save_checkpoint(path, *c),
                   md.load_checkpoint, md.CheckpointError),
}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("containers")


def write_example(scratch, fmt, data):
    strategy, write, load, error = FORMATS[fmt]
    path = scratch / f"{fmt}.bin"
    write(data.draw(strategy), path)
    return path, load, error


class TestRoundTrip:
    @PROPERTY
    @given(series())
    def test_series(self, scratch, s):
        path = scratch / "series.bin"
        dt.dump_series(s, path)
        back = dt.load_series(path)
        assert back.flows.tobytes() == s.flows.tobytes()
        assert (back.stations, back.grid) == (s.stations, s.grid)
        raw = path.read_bytes()
        dt.dump_series(back, path)
        assert path.read_bytes() == raw

    @PROPERTY
    @given(checkpoints())
    def test_checkpoint(self, scratch, ckpt):
        params, config = ckpt
        path = scratch / "model.ckpt"
        md.save_checkpoint(path, params, config)
        back, back_config = md.load_checkpoint(path)
        assert back_config == config
        assert [(name, p.data.tobytes()) for name, p in back.items()] \
            == [(name, p.data.tobytes()) for name, p in params.items()]
        raw = path.read_bytes()
        md.save_checkpoint(path, back, back_config)
        assert path.read_bytes() == raw


@pytest.mark.parametrize("fmt", sorted(FORMATS))
class TestDamagedFiles:
    @EXHAUSTIVE
    @given(data=st.data())
    def test_every_truncation_is_typed(self, scratch, fmt, data):
        path, load, error = write_example(scratch, fmt, data)
        raw = path.read_bytes()
        for end in range(len(raw)):
            path.write_bytes(raw[:end])
            with pytest.raises(error):
                load(path)

    @PROPERTY
    @given(data=st.data())
    def test_trailing_bytes_are_typed(self, scratch, fmt, data):
        path, load, error = write_example(scratch, fmt, data)
        path.write_bytes(path.read_bytes() + data.draw(st.binary(min_size=1, max_size=16)))
        with pytest.raises(error, match="payload"):
            load(path)

    @EXHAUSTIVE
    @given(data=st.data())
    def test_flipped_byte_loads_or_is_typed(self, scratch, fmt, data):
        path, load, error = write_example(scratch, fmt, data)
        raw = path.read_bytes()
        mask = data.draw(st.integers(1, 255))
        for pos in range(len(raw)):
            path.write_bytes(raw[:pos] + bytes([raw[pos] ^ mask]) + raw[pos + 1:])
            try:
                load(path)
            except error:
                pass

    def test_header_that_is_not_an_object_is_typed(self, tmp_path, fmt):
        _, _, load, error = FORMATS[fmt]
        magic = {"series": dt.SERIES_MAGIC, "checkpoint": md.CHECKPOINT_MAGIC}[fmt]
        path = tmp_path / f"{fmt}.bin"
        path.write_bytes(magic + struct.pack("<I", 3) + b"[2]")
        with pytest.raises(error) as info:
            load(path)
        assert str(info.value) == f"{path}: header at byte 12 is not a JSON object"


def arrays_then_disk_full():
    yield np.arange(4.0)
    raise OSError(28, "No space left on device")


def text_then_interrupt(fh):
    fh.write("label,mae\n")
    raise KeyboardInterrupt


# a write that fails halfway, and the error it raises
INTERRUPTED_WRITES = {
    "container": (lambda path: dt.write_container(path, dt.SERIES_MAGIC, {"version": 2},
                                                  arrays_then_disk_full()), OSError),
    "text": (lambda path: dt.write_atomically(path, text_then_interrupt), KeyboardInterrupt),
}


@pytest.mark.parametrize("writer", sorted(INTERRUPTED_WRITES))
def test_interrupted_write_leaves_the_old_file(tmp_path, writer):
    write, error = INTERRUPTED_WRITES[writer]
    path = tmp_path / "out"
    dt.dump_series(dt.synth_generate(dt.SyntheticSpec(n_stations=2, days=1)), path)
    old = path.read_bytes()
    with pytest.raises(error):
        write(path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
