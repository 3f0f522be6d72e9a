"""Property tests of the dyadic packing count and key expansion.

`_greedy_disjoint` (with its bulk-kill cut-over as set, always on and always
off) and `_spread` (over dilation, child and parent bounds of random widths,
with and without a cover) are compared with the brute-force references of
`test_dyadic` on offset sets drawn by hypothesis. Runs are derandomized and
keep no example database, so every run checks the same examples.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import regscan.dyadic  # noqa: E402
from regscan.dyadic import _greedy_disjoint, _pack, _spread  # noqa: E402

from test_dyadic import brute_greedy_disjoint, brute_spread  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


def offsets(lo, hi, max_size):
    """Sorted distinct (n, 3) int64 offsets with entries in [lo, hi]."""
    row = st.tuples(*[st.integers(lo, hi)] * 3)
    return st.lists(row, min_size=1, max_size=max_size, unique=True).map(
        lambda rows: np.array(sorted(rows), dtype=np.int64))


@SETTINGS
@given(st.integers(1, 9).flatmap(
    lambda dm: st.tuples(st.just(dm), offsets(-3 * dm, 3 * dm, 300))))
def test_greedy_disjoint_is_the_brute_greedy(case):
    dm, j = case
    expect = brute_greedy_disjoint(j, dm)
    for bulk in (regscan.dyadic._BULK_KILL, -1.0, np.inf):
        old = regscan.dyadic._BULK_KILL
        regscan.dyadic._BULK_KILL = bulk
        try:
            assert _greedy_disjoint(j, 1.0 / (dm + 1)) == expect
        finally:
            regscan.dyadic._BULK_KILL = old


BOUNDS = {
    "dilation": lambda w: lambda j: (j - w, j + w),
    "children": lambda w: lambda j: (2 * j, 2 * j + w),
    "parents": lambda w: lambda j: ((j - w + 1) // 2, j // 2),
}
limits = st.tuples(st.integers(-30, 30), st.integers(0, 30)).map(
    lambda t: (t[0], t[0] + t[1]))


@SETTINGS
@given(offsets(-20, 20, 40), st.sampled_from(sorted(BOUNDS)),
       st.integers(1, 6), st.none() | st.tuples(limits, limits, limits),
       st.randoms(use_true_random=False))
def test_spread_is_the_plain_expansion(j, kind, width, cover, rnd):
    bounds = BOUNDS[kind](width)
    keys = _pack(j)
    expect = brute_spread(keys, bounds, cover)
    assert np.array_equal(_spread(keys, bounds, cover), expect)
    mixed = list(keys) + list(keys[::2])
    rnd.shuffle(mixed)
    assert np.array_equal(_spread(np.array(mixed, np.int64), bounds, cover), expect)
