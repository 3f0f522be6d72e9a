"""Dyadic covers, level-set selection, chain clustering, and count bounds.

Each combinatorial primitive is checked against a brute-force enumeration:
covers against a direct scan over lattice offsets, the selection families
against per-cube region measures, the certificate's overlap sum against
literal cube membership of every cell centre, and the meet-relation
clustering against a quadratic union-find. The brute forms only use
interval arithmetic.
"""

import re
import sys
import weakref
from itertools import product

import numpy as np
import pytest

from regscan.dyadic import (
    _OFF,
    CandidateSet,
    _child_span,
    _children_of,
    _cluster_labels,
    _cover_offsets,
    _cover_ranges,
    _first_parents,
    _meet_radius,
    _pack,
    _parents_of,
    _protrudes,
    _spread,
    _unpack,
    build_chains,
    count_bound,
    localize,
    select_f0,
    select_fk,
)
from regscan.grid import Box3, Cube, VectorGrid, region_measure
from regscan.localquant import AnalysisConfig
from regscan.synth import SpikeSpec, spike_field


def brute_cover(k, eps, box):
    """Offsets j with 2^-k (eps j + [0,1]^3) open-intersecting the box."""
    side = 2.0 ** (-k)
    sp = eps * side
    lo, hi = np.asarray(box.lo), np.asarray(box.hi)
    jlo = np.floor((lo - side) / sp).astype(int) - 2
    jhi = np.ceil(hi / sp).astype(int) + 2
    axes = [np.arange(jlo[a], jhi[a] + 1) for a in range(3)]
    jx, jy, jz = np.meshgrid(*axes, indexing="ij")
    j = np.stack([jx, jy, jz], axis=-1).reshape(-1, 3)
    corner = sp * j
    keep = np.all((corner < hi) & (corner + side > lo), axis=1)
    return {tuple(r) for r in j[keep]}


@pytest.mark.parametrize("k,eps", [(0, 0.2), (1, 0.2), (2, 0.22), (1, 0.13)])
def test_build_cover_matches_brute_enumeration(k, eps):
    box = Box3((0.0, 0.1, -0.2), (1.0, 0.7, 0.55), (8, 8, 8))
    cover = _cover_offsets(k, eps, box)
    # lexicographic order, so the packed keys come out sorted
    assert np.all(np.diff(_pack(cover)) > 0)
    assert {tuple(r) for r in cover} == brute_cover(k, eps, box)


def test_build_cover_validation():
    box = Box3((0, 0, 0), (1, 1, 1), (4, 4, 4))
    frame = VectorGrid(box, np.zeros((3, 4, 4, 4)))
    for eps in (0.0, 0.25, 0.4):
        with pytest.raises(ValueError, match="eps must lie in"):
            select_f0(frame.magnitude(), eps)


def corner(eps, k, j):
    """Low corner of the level-k cube at offset j: [eps 2^-k j, eps 2^-k j + 2^-k)^3."""
    return tuple(eps * 2.0 ** -k * v for v in j)


def meets(eps, a, b):
    """Same-level cubes at offsets a and b overlap: |a - b| <= meet radius."""
    return all(abs(x - y) <= _meet_radius(eps) for x, y in zip(a, b))


def contains(eps, a, b):
    """The cube at offset a holds the cube one level finer at offset b."""
    return all(2 * x <= y <= 2 * x + _child_span(eps) for x, y in zip(a, b))


def test_cube_geometry():
    assert corner(0.1, 2, (4, -2, 0)) == pytest.approx((0.1, -0.05, 0.0))
    # a candidate point is the centroid of its cluster's cube centres
    cs = localize(broad_blob_frame(), AnalysisConfig(eps=0.2), 1)
    assert cs.k_max == 1 and len(cs.clusters) >= 1
    for p, cl in zip(cs.points, cs.clusters):
        centres = [np.add(corner(0.2, 1, j), 0.25) for j in cl]
        assert p == pytest.approx(np.mean(centres, axis=0), rel=1e-12)


def test_meets_is_open_overlap(rng):
    eps, side = 0.15, 0.5
    for _ in range(200):
        a, b = (tuple(rng.integers(-8, 8, size=3)) for _ in range(2))
        geometric = all(abs(ca - cb) < side
                        for ca, cb in zip(corner(eps, 1, a), corner(eps, 1, b)))
        assert meets(eps, a, b) == geometric


def test_contains_is_geometric_inclusion(rng):
    eps = 0.15
    for _ in range(200):
        parent = tuple(rng.integers(-4, 4, size=3))
        child = tuple(rng.integers(-9, 9, size=3))
        geometric = all(
            pc <= cc and cc + 0.25 <= pc + 0.5 + 1e-12
            for pc, cc in zip(corner(eps, 1, parent), corner(eps, 2, child))
        )
        assert contains(eps, parent, child) == geometric


def test_protrudes():
    box = Box3((0, 0, 0), (1, 1, 1), (4, 4, 4))
    assert _protrudes(np.array([[-1, 0, 0]]), 0, 0.2, box).tolist() == [True]
    assert _protrudes(np.array([[1, 1, 1]]), 2, 0.2, box).tolist() == [False]


def random_offsets(rng, n, lo, hi):
    return np.unique(rng.integers(lo, hi, size=(n, 3)), axis=0)


@pytest.mark.parametrize("eps", [0.13, 0.15, 0.2, 0.24])
def test_parents_of_matches_brute_containment(rng, eps):
    j = random_offsets(rng, 12, -20, 20)
    got = {tuple(r) for r in _unpack(_parents_of(_pack(j), eps))}
    expect = set()
    for r in j:
        for q in product(*[range(v // 2 - 10, v // 2 + 2) for v in r]):
            if contains(eps, q, r):
                expect.add(q)
    assert got == expect


@pytest.mark.parametrize("eps", [0.13, 0.15, 0.2, 0.24])
def test_first_parents_is_the_least_reachable_parent(rng, eps):
    keys = _pack(random_offsets(rng, 300, -40, 40))
    every = _parents_of(keys, eps)
    reach = np.sort(rng.choice(every, len(every) // 20, replace=False))
    first = [np.intersect1d(_parents_of(key[None], eps), reach)[:1] for key in keys]
    has = np.array([len(f) > 0 for f in first])
    assert 100 < has.sum() < len(keys)
    # keys with no reachable parent get -1, and every key does for no reach
    assert _first_parents(keys, reach, eps).tolist() == [
        int(f[0]) if len(f) else -1 for f in first]
    assert _first_parents(keys, reach[:0], eps).tolist() == [-1] * len(keys)


@pytest.mark.parametrize("eps", [0.13, 0.15, 0.2, 0.24])
def test_children_of_matches_brute_containment(rng, eps):
    box = Box3((0.0, 0.1, -0.2), (1.0, 0.7, 0.55), (8, 8, 8))
    cover = brute_cover(2, eps, box)
    j = random_offsets(rng, 10, -3, 12)
    got = {tuple(r) for r in _unpack(_children_of(_pack(j), eps, 2, box))}
    expect = set()
    for r in j:
        for q in product(*[range(2 * v - 2, 2 * v + 12) for v in r]):
            if q in cover and contains(eps, r, q):
                expect.add(q)
    assert got == expect


def test_spread_rejects_offsets_past_the_packing_range():
    keys = _pack([[0, 0, 0], [5, -3, 2]])
    assert len(_spread(keys, lambda j: (j - 2, j + 2))) == 2 * 125
    with pytest.raises(ValueError, match="packing range"):
        _spread(keys, lambda j: (j, j + _OFF))
    with pytest.raises(ValueError, match="packing range"):
        _spread(keys, lambda j: (j - _OFF, j))


@pytest.mark.parametrize("eps", [0.13, 0.2, 0.24])
def test_spread_with_cover_matches_spread_then_filter(rng, eps):
    box = Box3((0.0, 0.1, -0.2), (1.0, 0.7, 0.55), (8, 8, 8))
    k = 2
    side = 2.0 ** (-k)

    def in_cover(keys):
        corner = eps * side * _unpack(keys)
        return np.all((corner < box.hi) & (corner + side > box.lo), axis=1)

    cover = _cover_ranges(k, eps, box)
    j = random_offsets(rng, 60, -40, 50)
    for bounds in (lambda j: (j - 3, j + 3), lambda j: (2 * j, 2 * j + 6),
                   lambda j: ((j - 5) // 2, j // 2)):
        alone = [len(_spread(_pack(r[None]), bounds, cover)) for r in j]
        assert 0 in alone   # some keys' ranges lie wholly outside the cover
        full = _spread(_pack(j), bounds)
        assert np.array_equal(_spread(_pack(j), bounds, cover), full[in_cover(full)])
    far = _pack([[200, 0, 0], [0, -90, 3], [-60, 300, -70]])
    got = _spread(far, lambda j: (j - 3, j + 3), cover)
    assert len(got) == 0 and got.dtype == np.int64


def brute_spread(keys, bounds, cover=None):
    """Every offset of the per-axis ranges of every key, as sorted distinct
    keys: a plain expansion through Python tuples."""
    out = set()
    for row in _unpack(keys):
        ranges = []
        for axis, v in enumerate(row):
            lo, hi = (int(b[0]) for b in bounds(np.array([v])))
            if cover is not None:
                lo, hi = max(lo, cover[axis][0]), min(hi, cover[axis][1])
            ranges.append(range(lo, hi + 1))
        out.update(product(*ranges))
    return np.sort(_pack(sorted(out))) if out else np.empty(0, np.int64)


SPREAD_BOUNDS = {
    "dilation": lambda j: (j - 4, j + 4),
    "children": lambda j: (2 * j, 2 * j + 5),
    "parents": lambda j: ((j - 4) // 2, j // 2),
}


@pytest.mark.parametrize("kind", sorted(SPREAD_BOUNDS))
def test_spread_matches_plain_expansion(rng, kind):
    bounds = SPREAD_BOUNDS[kind]
    box = Box3((0.0, 0.1, -0.2), (1.0, 0.7, 0.55), (8, 8, 8))
    cover = _cover_ranges(2, 0.2, box)
    for _ in range(10):
        j = random_offsets(rng, int(rng.integers(1, 40)), -12, 20)
        keys = _pack(j)
        # keys in any order, with repeats, give the same sorted distinct keys
        mixed = rng.permutation(np.concatenate([keys, keys[::3]]))
        for c in (None, cover):
            expect = brute_spread(keys, bounds, c)
            assert np.array_equal(_spread(keys, bounds, c), expect)
            assert np.array_equal(_spread(mixed, bounds, c), expect)
    if kind != "parents":   # halving never leaves the packing range
        with pytest.raises(ValueError, match="packing range"):
            _spread(_pack([[0, _OFF - 3, 0]]), bounds, cover)


def two_bump_frame(n=12, extent=0.6):
    """A frame whose magnitude concentrates in two small blobs."""
    box = Box3((0, 0, 0), (extent, extent, extent), (n, n, n))
    x, y, z = box.center_mesh()

    def blob(cx, cy, cz, w=0.05):
        return np.exp(-((x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2) / w ** 2)

    mag = 3.0 * blob(0.15, 0.15, 0.2) + 2.0 * blob(0.45, 0.4, 0.35)
    return VectorGrid(box, np.stack(
        [mag, np.zeros_like(mag), np.zeros_like(mag)]))


def broad_blob_frame():
    """A frame whose magnitude is one broad blob, so levels 0 and 1 select."""
    box = Box3((0, 0, 0), (0.7, 0.7, 0.7), (14, 14, 14))
    x, y, z = box.center_mesh()
    mag = 3.0 * np.exp(-((x - 0.3) ** 2 + (y - 0.35) ** 2 + (z - 0.4) ** 2) / 0.09)
    return VectorGrid(box, np.stack([mag, 0 * mag, 0 * mag]))


def brute_family(frame, eps, k, parent_G=None):
    """Re-derive F_k by measuring every admissible cover cube directly;
    parent_G holds the level-(k-1) G offsets."""
    mag = frame.magnitude()
    height = 2.0 ** k * eps
    thr = 2.0 ** (-3 * k) * eps
    cubes = brute_cover(k, eps, frame.box)
    if parent_G is not None:
        cubes = [j for j in cubes if any(contains(eps, g, j) for g in parent_G)]
    return {
        j for j in cubes
        if region_measure(mag, Cube(corner(eps, k, j), 2.0 ** -k), height) > thr
    }


def test_select_f0_matches_direct_measures():
    frame = two_bump_frame()
    eps = 0.2
    fam = select_f0(frame.magnitude(), eps)
    assert fam.level == 0
    assert fam.height == pytest.approx(eps)
    assert fam.measure_threshold == pytest.approx(eps)
    got = {tuple(r) for r in fam.F_indices}
    assert got == brute_family(frame, eps, 0)
    # G contains F and exactly the cover cubes meeting a selected one
    fset = {tuple(r) for r in fam.F_indices}
    gset = {tuple(r) for r in fam.G_indices}
    assert fset <= gset
    for j in brute_cover(0, eps, frame.box):
        assert (j in gset) == any(meets(eps, j, f) for f in fset)


def test_select_fk_descends_into_parents():
    frame = two_bump_frame()
    eps = 0.2
    mag = frame.magnitude()
    f0 = select_f0(mag, eps)
    f1 = select_fk(mag, f0)
    assert f1.level == 1
    assert f1.height == pytest.approx(2 * eps)
    assert f1.measure_threshold == pytest.approx(eps / 8.0)
    got = {tuple(r) for r in f1.F_indices}
    assert got == brute_family(frame, eps, 1, parent_G=f0.G_indices)


def test_select_fk_takes_eps_from_prev():
    # one broad blob, so level 1 selects cubes at eps 0.22
    frame = broad_blob_frame()
    mag = frame.magnitude()
    f0 = select_f0(mag, 0.22)
    f1 = select_fk(mag, f0)
    assert (f1.level, f1.eps) == (1, 0.22)
    got = {tuple(r) for r in f1.F_indices}
    assert got and got == brute_family(frame, 0.22, 1, parent_G=f0.G_indices)


def test_selection_certificates_hold_with_measured_m():
    frame = broad_blob_frame()
    eps = 0.2
    empty = select_f0(two_bump_frame().magnitude(), eps)
    assert empty.empty and empty.certificate["packing_ok"]   # n == 0 passes
    mag = frame.magnitude()
    fam = select_fk(mag, select_f0(mag, eps))
    cert = fam.certificate
    assert cert["overlap_ok"] and cert["packing_ok"] and cert["weak_ok"]
    cells = round(fam.global_measure / frame.box.cell_volume)
    assert cert["overlap_rhs"] == 5 ** 3 * cells
    assert fam.n * fam.measure_threshold / frame.box.cell_volume == pytest.approx(
        cert["packing_lhs"], rel=1e-12)
    assert 0 < cert["packing_lhs"] < cert["overlap_lhs"] <= cert["overlap_rhs"]
    assert fam.global_measure <= cert["weak_rhs"]
    summary = fam.summary()
    assert summary["n_selected"] == fam.n
    assert summary["level"] == 1


def brute_memberships(box, eps, k, offsets):
    """Per axis, a (len(offsets), cells) mask of the level-k cubes at the
    given offsets whose interval holds each cell centre c by the literal
    corner <= c < corner + side."""
    side = 2.0 ** (-k)
    corner = eps * side * np.asarray(offsets, dtype=np.int64)
    return [(corner[:, a, None] <= c) & (c < corner[:, a, None] + side)
            for a, c in enumerate(box.centers())]


@pytest.mark.parametrize("n, extent, eps, amplitude", [
    (12, 0.7, 0.2, 3.0), (12, 0.7, 0.13, 3.0), (10, 0.75, 0.22, 2.0),
    (14, 0.7, 0.1, 4.0), (16, 1.0, 0.125, 6.0)])
def test_certificate_overlap_is_the_brute_membership_sum(rng, n, extent, eps, amplitude):
    """overlap_lhs counts each cell of E once per selected cube holding its
    centre, and no centre lies in more than ceil(1/eps) lattice cubes per
    axis. The 16-cell unit box at eps 1/8 puts every centre (2i + 1)/32
    exactly on a face of the level-2 and level-3 cubes, and each centre
    counts only in the cube whose low face it lies on: exactly 8 cubes per
    axis."""
    box = Box3((0, 0, 0), (extent,) * 3, (n,) * 3)
    frame = VectorGrid(box, amplitude * rng.normal(size=(3, n, n, n)))
    per_axis = int(np.ceil(1 / eps - 1e-12))
    with pytest.warns(UserWarning, match="fewer than 4 cells"):
        cs = localize(frame, AnalysisConfig(eps=eps), 3, on_underresolved="warn")
    assert len(cs.families) == 4
    for fam in cs.families:
        cert = fam.certificate
        E = frame.magnitude().data > fam.height
        mx, my, mz = brute_memberships(box, eps, fam.level, fam.F_indices)
        xy = (mx[:, :, None] & my[:, None, :]).reshape(fam.n, -1)
        mult = (xy.T.astype(float) @ mz.astype(float)).reshape(E.shape)
        assert fam.n > 0
        assert cert["overlap_lhs"] == int(mult[E].sum())
        assert cert["overlap_rhs"] == per_axis ** 3 * int(E.sum())
        assert cert["overlap_ok"] and cert["packing_ok"] and cert["weak_ok"]
        # every lattice cube within reach of the box, axis by axis
        j = np.arange(-2 * per_axis, 2 ** fam.level * per_axis + 2)
        for m in brute_memberships(box, eps, fam.level, np.stack([j] * 3, axis=1)):
            assert m.sum(axis=0).max() <= per_axis
            if eps == 0.125 and fam.level >= 2:
                assert np.all(m.sum(axis=0) == per_axis)


def test_count_bound_values():
    assert count_bound(1.0, 0.1) == 10001000.0
    assert count_bound(0.0, 0.1) == 1000.0
    with pytest.raises(ValueError):
        count_bound(1.0, 0.3)
    with pytest.raises(ValueError):
        count_bound(-1.0, 0.1)


@pytest.mark.parametrize("M", [1e200, 1e101, np.float64(1e200)],
                         ids=["cube-overflows", "sum-is-inf", "numpy-m"])
def test_count_bound_overflow_is_a_value_error_naming_m(M):
    # M ** 3 overflows (1e200) or the sum rounds to inf (1e101)
    with pytest.raises(ValueError, match=re.escape(f"M = {M:g} overflows the count bound")):
        count_bound(M, 0.1)
    assert np.isfinite(count_bound(1e100, 0.1))


def test_selection_with_a_huge_m_is_a_value_error_naming_m():
    # (M / height)^3 of the weak-L3 certificate would overflow
    mag = two_bump_frame().magnitude()
    with pytest.raises(ValueError, match=r"M = 1e\+120 overflows the count bound"):
        select_f0(mag, 0.1, M=1e120)
    fam = select_f0(mag, 0.2)
    with pytest.raises(ValueError, match=r"M = 1e\+200 overflows the count bound"):
        select_fk(mag, fam, M=1e200)


def brute_partition(j, dm):
    n = len(j)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(n):
        for b in range(a + 1, n):
            if np.max(np.abs(j[a] - j[b])) <= dm:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), set()).add(i)
    return {frozenset(g) for g in groups.values()}


def labels_to_partition(labels):
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(int(lab), set()).add(i)
    return {frozenset(g) for g in groups.values()}


@pytest.mark.parametrize("dm", [1, 2, 3, 5])
def test_cluster_labels_match_union_find(rng, dm):
    # the lexicographic ends join by the x step 1, while (0, 2dm, 3dm) and
    # (dm, 2dm, 3dm) meet only at the x step dm
    ends = ([(x, 0, 0) for x in range(dm + 1)]
            + [(dm, y, 0) for y in range(1, 4 * dm + 1)])
    sets = [np.array(ends + [(0, 2 * dm, 3 * dm), (dm, 2 * dm, 3 * dm)])]
    for _ in range(25):
        n = int(rng.integers(1, 70))
        j = rng.integers(-25, 25, size=(n, 3))
        sets.append(np.unique(j, axis=0))
    for j in sets:
        labels = _cluster_labels(_pack(j), dm)
        assert labels_to_partition(labels) == brute_partition(j, dm)


@pytest.mark.parametrize("dm", [1, 2, 4, 7])
def test_cluster_labels_sharp_at_meet_radius(dm):
    touching = np.array([[0, 0, 0], [dm, -dm, dm]])
    labels = _cluster_labels(_pack(touching), dm)
    assert labels[0] == labels[1]
    apart = np.array([[0, 0, 0], [dm + 1, 0, 0]])
    labels = _cluster_labels(_pack(apart), dm)
    assert labels[0] != labels[1]


def test_cluster_labels_memory_ignores_the_bounding_box():
    import tracemalloc

    far = np.array([[0, 0, 0], [1, 0, 0], [3000, 3000, 3000]])
    tracemalloc.start()
    try:
        labels = _cluster_labels(_pack(far), 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert labels.tolist() == [0, 0, 1]
    assert peak < 16 * 2 ** 20


def zero_frame(n=24):
    box = Box3((0, 0, 0), (1, 1, 1), (n, n, n))
    return VectorGrid(box, np.zeros((3, n, n, n)))


def test_localize_zero_field_is_regular():
    cs = localize(zero_frame(), AnalysisConfig(eps=0.1), k_max=2, M=1.0)
    assert cs.regular
    assert len(cs.points) == 0 and cs.clusters == []
    assert cs.chains.shape == (0, cs.k_max + 1, 3)
    assert cs.to_dict()["chains"] == cs.to_dict()["cluster_sizes"] == []
    assert cs.flags["truncated"]
    assert cs.bound == count_bound(1.0, 0.1)


def test_localize_finds_a_single_spike():
    n = 48
    box = Box3((0, 0, 0), (1, 1, 1), (n, n, n))
    center = (0.5, 0.5, 0.5)
    spec = SpikeSpec(centers=[center], amplitudes=[0.125],
                     axes=[(0, 0, 1)], delta=0.05)
    frame = spike_field(spec, box)
    cs = localize(frame, AnalysisConfig(eps=0.1), k_max=3)
    assert not cs.regular
    assert len(cs.points) == 1
    assert np.linalg.norm(cs.points[0] - np.array(center)) <= 2 ** -3 * np.sqrt(3)
    assert len(cs.points) <= cs.bound
    assert not cs.flags["truncated"]
    assert cs.flags["underresolved_levels"] == []
    assert len(cs.survivors_per_level) == 4
    for fam in cs.families:
        cert = fam.certificate
        assert cert["overlap_ok"] and cert["packing_ok"] and cert["weak_ok"]
    # every chain is nested: each cube contains its successor
    for chain in cs.chains:
        for parent, child in zip(chain, chain[1:]):
            assert contains(0.1, parent, child)
    d = cs.to_dict()
    assert d["n_clusters"] == 1 and len(d["levels"]) == len(cs.families)


def test_localize_clusters_partition_the_deepest_survivors():
    n = 48
    box = Box3((0, 0, 0), (1, 1, 1), (n, n, n))
    spec = SpikeSpec(centers=[(0.2, 0.2, 0.2), (0.8, 0.8, 0.8)],
                     amplitudes=[0.125, 0.125], axes=[(0, 0, 1), (0, 0, 1)],
                     delta=0.05)
    cs = localize(spike_field(spec, box), AnalysisConfig(eps=0.1), k_max=3)
    assert len(cs.clusters) == len(cs.points) == len(cs.chains) == 2
    assert sum(len(cl) for cl in cs.clusters) == cs.survivors_per_level[-1]
    members = np.concatenate(cs.clusters)
    assert members.shape[1] == 3
    assert len(np.unique(members, axis=0)) == len(members)
    for cl, chain in zip(cs.clusters, cs.chains):
        assert tuple(chain[-1]) == tuple(cl[0])


def plain_reach(families, box):
    """Per level, the G keys inside a reachable cube of the level above,
    by expanding the children of the reach and intersecting."""
    eps = families[0].eps
    reach = [families[0].G_keys]
    for fam in families[1:]:
        cand = _children_of(reach[-1], eps, fam.level, box)
        reach.append(np.intersect1d(fam.G_keys, cand, assume_unique=True))
    return reach


def per_cluster_chains(families, clusters, reach):
    """Representative chains by the plain walk: per cluster and level, the
    first of the survivor's parent keys that the level reaches."""
    eps = families[0].eps
    chains = []
    for cl in clusters:
        key = _pack(cl[:1])
        chain = [tuple(cl[0])]
        for k in range(len(families) - 1, 0, -1):
            key = np.intersect1d(_parents_of(key, eps), reach[k - 1],
                                 assume_unique=True)[:1]
            chain.append(tuple(_unpack(key)[0]))
        chains.append(chain[::-1])
    return chains


@pytest.mark.parametrize("eps,amplitude", [(0.2, 0.3), (0.15, 0.2)])
def test_build_chains_matches_the_per_cluster_walk(eps, amplitude):
    rng = np.random.default_rng(0)
    box = Box3((0, 0, 0), (3, 3, 3), (48, 48, 48))
    spec = SpikeSpec(centers=rng.uniform(0.1, 2.9, (30, 3)),
                     amplitudes=rng.uniform(0.5, 1.0, 30) * amplitude,
                     axes=rng.normal(size=(30, 3)), delta=2.5 * 3 / 48)
    frame = spike_field(spec, box)
    mag = frame.magnitude()
    families = [select_f0(mag, eps)]
    for _ in range(3):
        families.append(select_fk(mag, families[-1]))
    cs = build_chains(families, box)
    assert len(cs.clusters) >= 10
    reach = plain_reach(families, box)
    assert cs.survivors_per_level == [len(r) for r in reach]
    assert cs.terminated_per_level == [
        len(r) - len(np.intersect1d(r, _parents_of(r_next, eps)))
        for r, r_next in zip(reach, reach[1:])]
    assert cs.chains.shape == (len(cs.clusters), 4, 3)
    assert [[tuple(j) for j in chain] for chain in cs.chains.tolist()] == \
        per_cluster_chains(families, cs.clusters, reach)


def test_localize_underresolved_modes():
    frame = zero_frame(n=16)
    cfg = AnalysisConfig(eps=0.1)
    with pytest.raises(ValueError):
        localize(frame, cfg, k_max=4, M=1.0)
    with pytest.warns(UserWarning):
        cs = localize(frame, cfg, k_max=4, M=1.0, on_underresolved="warn")
    assert cs.flags["underresolved_levels"] == [3, 4]
    with pytest.raises(ValueError):
        localize(frame, cfg, k_max=-1, M=1.0)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before 3.11 the caller's stack keeps call arguments alive")
def test_localize_frees_a_frame_passed_by_value(monkeypatch):
    import regscan.dyadic

    refs, alive = [], []

    def one_spike():
        spec = SpikeSpec(centers=[(0.5, 0.5, 0.5)], amplitudes=[0.125],
                         axes=[(0, 0, 1)], delta=0.1)
        frame = spike_field(spec, Box3((0, 0, 0), (1, 1, 1), (24, 24, 24)))
        refs.append(weakref.ref(frame))
        return frame

    def spy(mag, *args, **kwargs):
        alive.append(refs[0]() is not None)
        return select_f0(mag, *args, **kwargs)

    monkeypatch.setattr(regscan.dyadic, "select_f0", spy)
    localize(one_spike(), AnalysisConfig(eps=0.1), 0, on_underresolved="warn")
    assert alive == [False]     # the levels run on |u| alone
