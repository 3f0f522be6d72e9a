"""Property tests of `.rsf` round trips.

Fields drawn by hypothesis over cell counts, frame counts, frame times and
float64 values (-0.0 and subnormals included) are written and read back.
Frames are built from C-ordered arrays and from non-contiguous views of
them: Fortran order, a stride-2 slice and reversed axes. Values and times
must come back bit for bit (compared as int64 words), the written frames
must be left as they were, and every frame read back must hold
C-contiguous, writeable float64 data. Runs are derandomized and keep no
example database, so every run checks the same examples.
"""

import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from regscan.fieldio import read_field, write_field  # noqa: E402
from regscan.grid import Box3, SpaceTimeField, VectorGrid  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

VALUES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1.1e-308, -2.2250738585072014e-308])


def laid_out(arr, layout):
    """A (3, nx, ny, nz) array equal to arr, in the given memory layout."""
    if layout == "fortran":
        return np.asfortranarray(arr)
    if layout == "strided":
        big = np.zeros((*arr.shape[:-1], 2 * arr.shape[-1]))
        big[..., ::2] = arr
        return big[..., ::2]
    if layout == "reversed":
        return arr[:, ::-1, ::-1, ::-1].copy()[:, ::-1, ::-1, ::-1]
    return arr


@st.composite
def fields(draw):
    n = draw(st.tuples(*[st.integers(1, 5)] * 3))
    frames = draw(st.integers(1, 3))
    times = draw(st.lists(st.floats(-1e6, 1e6), min_size=frames,
                          max_size=frames, unique=True).map(sorted))
    values = draw(hnp.arrays(np.float64, (frames, 3, *n), elements=VALUES))
    layouts = draw(st.lists(st.sampled_from(["c", "fortran", "strided", "reversed"]),
                            min_size=frames, max_size=frames))
    box = Box3((-1.0, 0.0, 2.0), (1.0, 3.0, 2.5), n)
    return values, SpaceTimeField(times, [
        VectorGrid(box, laid_out(v, lay)) for v, lay in zip(values, layouts)])


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@SETTINGS
@given(fields())
def test_rsf_round_trip_is_bit_exact(case):
    values, field = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "field.rsf")
        write_field(path, field)
        back = read_field(path)
    assert back.box == field.box
    assert np.array_equal(bits(back.times), bits(field.times))
    for v, before, after in zip(values, field.frames, back.frames):
        assert np.array_equal(bits(before.data), bits(v))
        assert np.array_equal(bits(after.data), bits(v))
        assert after.data.dtype == np.float64
        assert after.data.flags.c_contiguous and after.data.flags.writeable
