import numpy as np
import pytest

from umod import data as dt


@pytest.fixture
def write_series_file():
    """``write(path, header, flows)`` writes a series file by hand.

    ``header`` goes into the file as given, so a test can drop or spoil any key;
    the payload is the version-2 one: the flat indices of the nonzero cells of
    the dense ``flows``, in increasing order, then their values.
    """
    def write(path, header, flows):
        flat = np.ravel(flows)
        cells = np.flatnonzero(flat)
        dt.write_container(path, dt.SERIES_MAGIC, header, [cells, flat[cells]])
    return write
