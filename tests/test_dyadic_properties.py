"""Property tests of the dyadic key expansion and clustering.

`_spread` (over dilation, child and parent bounds of random widths, with
and without a cover) and `_cluster_labels` (on shuffled offsets with
repeats) are compared with the brute-force references of `test_dyadic` on
offset sets drawn by hypothesis. Runs are derandomized and keep no example
database, so every run checks the same examples.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from regscan.dyadic import (  # noqa: E402
    _OFF, _cluster_labels, _pack, _spread)

from test_dyadic import (  # noqa: E402
    brute_partition, brute_spread, labels_to_partition)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


def offsets(lo, hi, max_size):
    """Sorted distinct (n, 3) int64 offsets with entries in [lo, hi]."""
    row = st.tuples(*[st.integers(lo, hi)] * 3)
    return st.lists(row, min_size=1, max_size=max_size, unique=True).map(
        lambda rows: np.array(sorted(rows), dtype=np.int64))


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


@SETTINGS
@given(st.integers(1, 9).flatmap(
    lambda dm: st.tuples(st.just(dm), offsets(-3 * dm, 3 * dm, 100))),
    st.randoms(use_true_random=False))
def test_cluster_labels_are_the_union_find_partition(case, rnd):
    dm, j = case
    rows = list(range(len(j))) + list(range(0, len(j), 3))
    rnd.shuffle(rows)
    j = j[rows]
    labels = _cluster_labels(_pack(j), dm)
    assert labels_to_partition(labels) == brute_partition(j, dm)
    # labels 0, 1, ... first appear in that order along the sorted offsets
    seen = labels[np.lexsort(j.T[::-1])]
    values, first = np.unique(seen, return_index=True)
    assert np.array_equal(values, np.arange(len(values)))
    assert np.all(np.diff(first) > 0)


@SETTINGS
@given(st.integers(1, 9).flatmap(
    lambda dm: st.tuples(st.just(dm), st.integers(1, dm))),
    st.sampled_from([-1, 1]), st.integers(0, 2), offsets(-20, 20, 10))
def test_cluster_labels_reject_offsets_near_the_packing_range(case, sign, axis, j):
    dm, gap = case
    near = np.zeros((1, 3), np.int64)
    near[0, axis] = sign * (_OFF - gap)   # key + shift -/+ dm would borrow
    with pytest.raises(ValueError, match="packing range"):
        _cluster_labels(_pack(np.concatenate([j, near])), dm)
    near[0, axis] = sign * (_OFF - dm - 1)
    labels = _cluster_labels(_pack(np.concatenate([j, near])), dm)
    assert labels[-1] not in labels[:-1]
