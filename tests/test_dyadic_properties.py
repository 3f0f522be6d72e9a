"""Property tests of the dyadic key expansion and clustering.

`_spread` (over dilation, child and parent bounds of random widths, with
and without a cover) and `_cluster_labels` (on shuffled offsets with
repeats) are compared with the brute-force references of `test_dyadic` on
offset sets drawn by hypothesis, and `_cluster_labels` also with scipy's
`connected_components` over every pair of offsets within reach, on empty,
single, isolated, dense and chain-shaped sets. Runs are derandomized and
keep no example database, so every run checks the same examples.
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


def scipy_labels(j, dm):
    """`connected_components` over all pairs with |dj|_inf <= dm, numbered in
    the order of the components' lexicographically first offsets."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    if len(j) == 0:
        return np.empty(0, np.int64)
    pairs = cKDTree(j).query_pairs(dm, p=np.inf, output_type="ndarray")
    comp = connected_components(coo_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(len(j), len(j))),
        directed=False)[1]
    first = np.unique(comp[np.lexsort(j.T[::-1])], return_index=True)
    rank = np.empty(len(first[0]), np.int64)
    rank[first[0][np.argsort(first[1])]] = np.arange(len(rank))
    return rank[comp]


def row(lo, hi):
    return st.tuples(*[st.integers(lo, hi)] * 3)


@st.composite
def shaped_offsets(draw, shape, dm):
    """Offsets (n, 3), possibly repeated, of one of the SHAPES at reach dm."""
    if shape == "empty":
        return np.zeros((0, 3), np.int64)
    if shape == "single":
        return np.array([draw(row(-40 * dm, 40 * dm))])
    if shape == "isolated":   # lattice points dm + 1 apart: no two meet
        return np.array(draw(st.lists(row(-6, 6), min_size=2, max_size=60,
                                      unique=True))) * (dm + 1)
    if shape == "dense":
        return np.array(draw(st.lists(row(0, 2 * dm), min_size=2, max_size=200)))
    # chain: each step moves dm (joined) or dm + 1 (a break) on one axis
    # and at most dm on the others
    steps = draw(st.lists(st.tuples(row(-dm, dm), st.integers(0, 2),
                                    st.sampled_from([-1, 1]), st.booleans()),
                          min_size=1, max_size=80))
    walk = np.zeros((len(steps) + 1, 3), np.int64)
    for i, (step, axis, sign, cut) in enumerate(steps):
        step = list(step)
        step[axis] = sign * (dm + cut)
        walk[i + 1] = walk[i] + step
    return walk


SHAPES = ("empty", "single", "isolated", "dense", "chain")


@pytest.mark.parametrize("dm", [1, 9, 19])
@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cluster_labels_equal_scipy_connected_components(shape, dm, data):
    j = data.draw(shaped_offsets(shape, dm))
    labels = _cluster_labels(_pack(j), dm)
    assert np.array_equal(labels, scipy_labels(j, dm))
