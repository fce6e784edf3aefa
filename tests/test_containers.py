"""Property tests of the one binary-container codec and its three formats.

For the series (``UMODODS1``), checkpoint (``UMODCKPT``) and embedding
(``UMODEMB1``) files: a round trip is bit-identical, every truncation raises
the format's typed error, and a file with any one byte flipped either loads or
raises that typed error, never any other exception. Hypothesis runs
derandomized, so every run of the suite draws the same examples.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from umod import data as dt
from umod import evaluation as ev
from umod import model as md

PROPERTY = settings(derandomize=True, database=None, max_examples=25, deadline=None)
EXHAUSTIVE = settings(derandomize=True, database=None, max_examples=8, deadline=None)
VALUES = st.floats(width=64, allow_nan=True, allow_infinity=True)


@st.composite
def series(draw):
    """A valid grid: any granularity without a window, else one that divides
    both of the window's edges."""
    n, t = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    window = draw(st.none() | st.integers(0, 23).flatmap(
        lambda start: st.tuples(st.just(start), st.integers(start + 1, 24))))
    if window is None:
        granularity = draw(st.integers(1, 86400))
    else:
        edges = math.gcd(window[0] * 3600, window[1] * 3600)
        granularity = draw(st.sampled_from(
            [g for g in range(1, edges + 1) if edges % g == 0]))
    return dt.ODSeries(
        stations=draw(st.lists(st.text(max_size=4), min_size=n, max_size=n, unique=True)),
        start_time=draw(st.integers(-2**40, 2**40)),
        granularity=granularity,
        flows=draw(hnp.arrays(np.float64, (t, n, n), elements=VALUES)),
        operating_window=window)


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
        entity_mode=mode, top_k=n if mode == md.TOP_K_PAIRS else None,
        seed=draw(st.integers(0, 2**32)))
    params = md.init_params(config)
    for p in params.values():
        p.data[...] = draw(hnp.arrays(np.float64, p.shape, elements=VALUES))
    return params, config


@st.composite
def embeddings(draw):
    shape = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
    return draw(hnp.arrays(np.float64, shape, elements=VALUES))


# strategy, writer(example, path), loader, the loader's typed error
FORMATS = {
    "series": (series(), lambda s, path: dt.dump_series(s, path),
               dt.load_series, dt.SeriesFormatError),
    "checkpoint": (checkpoints(), lambda c, path: md.save_checkpoint(path, *c),
                   md.load_checkpoint, md.CheckpointError),
    "embedding": (embeddings(), lambda e, path: ev.dump_embedding(path, e),
                  ev.load_embedding, dt.ConfigurationError),
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
        assert (back.stations, back.start_time, back.granularity, back.operating_window) \
            == (s.stations, s.start_time, s.granularity, s.operating_window)
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
        assert [(p.name, p.data.tobytes()) for p in back.values()] \
            == [(p.name, p.data.tobytes()) for p in params.values()]
        raw = path.read_bytes()
        md.save_checkpoint(path, back, back_config)
        assert path.read_bytes() == raw

    @PROPERTY
    @given(embeddings())
    def test_embedding(self, scratch, tensor):
        path = scratch / "embedding.bin"
        ev.dump_embedding(path, tensor)
        back = ev.load_embedding(path)
        assert back.shape == tensor.shape
        assert back.tobytes() == tensor.tobytes()


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


def test_embedding_eight_bytes_short_or_long(scratch):
    path = scratch / "embedding.bin"
    ev.dump_embedding(path, np.arange(6.0).reshape(2, 3))
    raw = path.read_bytes()
    for damaged in (raw[:-8], raw + raw[-8:]):
        path.write_bytes(damaged)
        with pytest.raises(dt.ConfigurationError, match="payload"):
            ev.load_embedding(path)
