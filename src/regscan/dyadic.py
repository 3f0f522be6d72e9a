"""Nested-cube localization of possible singular points.

A velocity frame is scanned with overlapping lattice covers: level k uses
cubes of side 2^-k whose corners sit on the lattice eps * 2^-k * Z^3. A
cube is selected when the set where |u| exceeds the level height 2^k * eps
fills more than 2^-3k * eps of space inside it; selected cubes plus their
meeting neighbours admit the next, finer level. Chains of nested admitted
cubes that survive to the finest level cluster around the candidate
points. Each level's count of selected cubes is certified from the cube
counts the selection already has (`SelectionFamily`): it stays below
ceil(1/eps)^3 eps^-4 M^3, which is eps^-7 M^3 when 1/eps is an integer,
for fields with weak-L^3 norm at most M.

Cube families are sorted, distinct int64 keys of packed lattice offsets at
one eps, unpacked only where arithmetic needs the offsets. Neighbour, child
and parent families are separable per axis: `_spread` expands merged runs
of ranges, at three sorts of the distinct keys. The survivors cluster on
z-runs of their keys (`_cluster_labels`): offsets of one (x, y) line chain
into runs, runs on nearby lines join by their z spans, and clusters are
numbered by their lexicographically first offset.
"""

import math
import warnings
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .lorentz import _finite_bound, weak_norm

__all__ = [
    "CountBoundError", "SelectionFamily", "CandidateSet",
    "select_f0", "select_fk", "build_chains", "count_bound", "localize",
]


class CountBoundError(RuntimeError):
    """More candidate points than the bound eps^-7 M^3 + eps^-3 allows."""


_OFF = 1 << 19
_MASK = (1 << 20) - 1
_SHIFTS = np.array([40, 20, 0])


def _pack(j):
    j = np.asarray(j, dtype=np.int64)
    if j.size and np.abs(j).max() >= _OFF:
        raise ValueError("lattice offset exceeds packing range")
    return ((j + _OFF) << _SHIFTS).sum(axis=1)


def _unpack(keys):
    return ((keys[:, None] >> _SHIFTS) & _MASK) - _OFF


def _spread(keys, bounds, cover=None):
    """Replace each key's offset j along every axis by the range bounds(j).

    bounds maps an offset array to inclusive (lo, hi) arrays, both
    nondecreasing in j, as the dilation, child and parent bounds are. Per
    axis the keys are sorted with that axis fastest, so the ranges of one
    line come in order; overlapping ones merge into runs, and expanding
    only the runs yields the keys sorted and distinct, at one sort of the
    distinct keys per axis and with no (n, width) array. Each range is
    clipped to the inclusive per-axis limits cover (`_cover_ranges`) first;
    keys left with an empty range are dropped.
    """
    order = (0, 1, 2)   # the axis held by each field of keys, high to low
    for axis, new in ((0, (1, 2, 0)), (1, (0, 2, 1)), (2, (0, 1, 2))):
        f = {a: (keys >> s) & _MASK for a, s in zip(order, _SHIFTS)}
        keys = np.sort((f[new[0]] << 40) | (f[new[1]] << 20) | f[axis])
        order = new
        j = (keys & _MASK) - _OFF
        lo, hi = bounds(j)
        if np.any(lo <= -_OFF) or np.any(hi >= _OFF):
            raise ValueError("lattice offset exceeds packing range")
        line = keys - (j + _OFF)
        if cover is not None:
            lo = np.maximum(lo, cover[axis][0])
            hi = np.minimum(hi, cover[axis][1])
            keep = lo <= hi
            line, lo, hi = line[keep], lo[keep], hi[keep]
        if len(line) == 0:
            return line
        # a run starts on a new line or past the end of the range before it
        first = np.flatnonzero(np.r_[True, (line[1:] != line[:-1])
                                     | (lo[1:] > hi[:-1] + 1)])
        last = np.append(first[1:], len(line)) - 1
        count = hi[last] - lo[first] + 1
        keys = np.repeat(line[first] + lo[first] + _OFF - np.cumsum(count) + count,
                         count) + np.arange(count.sum(), dtype=np.int64)
    return keys


def _meet_radius(eps):
    """Largest |dj| (per axis) for which two same-level cubes overlap."""
    return int(np.ceil(1.0 / eps - 1e-12)) - 1


def _child_span(eps):
    """Largest d with eps*(2 j + d) + 1 <= eps*2 j + 2: children occupy [0, d]^3."""
    return int(np.floor(1.0 / eps + 1e-12))


def _protrudes(j, k, eps, box):
    """Per cube: does the level-k cube at offsets j leave the box?"""
    s = 2.0 ** (-k)
    corner = eps * s * j
    lo = np.asarray(box.lo)
    hi = np.asarray(box.hi)
    return np.any((corner < lo - 1e-12) | (corner + s > hi + 1e-12), axis=1)


def _cover_ranges(k, eps, box):
    """Inclusive j ranges per axis for cubes open-intersecting the box."""
    s = 2.0 ** (-k)
    sp = eps * s
    ranges = []
    for lo, hi in zip(box.lo, box.hi):
        jmin = int(np.floor((lo - s) / sp)) + 1
        jmax = int(np.ceil(hi / sp)) - 1
        # the formulas can be off by one at exact float boundaries; widen and
        # re-filter with the literal predicate
        cand = np.arange(jmin - 2, jmax + 3, dtype=np.int64)
        corner = sp * cand
        keep = (corner < hi) & (corner + s > lo)
        cand = cand[keep]
        ranges.append((int(cand[0]), int(cand[-1])))
    return ranges


def _cover_offsets(k, eps, box):
    """Offsets of the level-k cover of the box, in lexicographic order."""
    r = _cover_ranges(k, eps, box)
    grids = np.meshgrid(*[np.arange(a, b + 1, dtype=np.int64) for a, b in r],
                        indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _prefix(mag, height):
    """Prefix sums of the cells where |mag| > height, built in place (int32
    below 2^31 cells), and their measure."""
    p = np.zeros(tuple(m + 1 for m in mag.data.shape),
                 np.int32 if mag.data.size < 2 ** 31 else np.int64)
    q = p[1:, 1:, 1:]
    np.greater(np.abs(mag.data), height, out=q, casting="unsafe")
    for axis in range(3):
        np.cumsum(q, axis=axis, out=q)
    return p, float(p[-1, -1, -1] * mag.box.cell_volume)


def _cube_counts(p, box, j, k, eps):
    """Super-level cell counts (prefix sums p) for cubes at lattice offsets
    j: a cube counts the cells whose centre c has corner <= c < corner +
    side on every axis, so a centre on a face counts in the cube whose low
    face it lies on."""
    s = 2.0 ** (-k)
    lo = eps * s * j
    (x0, y0, z0), (x1, y1, z1) = (
        [np.searchsorted(c, v[:, a]) for a, c in enumerate(box.centers())]
        for v in (lo, lo + s))
    return (p[x1, y1, z1] - p[x0, y1, z1] - p[x1, y0, z1] - p[x1, y1, z0]
            + p[x0, y0, z1] + p[x0, y1, z0] + p[x1, y0, z0] - p[x0, y0, z0])


@dataclass
class SelectionFamily:
    """Selected cubes F and their meeting extension G at one level.

    F holds the cubes passing the measure condition |E n Q| > thr, where
    E = {|u| > 2^k eps} and thr = 2^-3k eps; G adds every cover cube whose
    interior touches a member of F. Both are sorted, distinct packed keys
    of level-k offsets at the family's eps (F_keys, G_keys); F_indices and
    G_indices unpack them to (n, 3) offsets.

    The certificate bounds n; its overlap_* and packing_lhs count cells of
    E. Cubes that hold a common cell centre pairwise meet, so their offsets
    span at most the meet radius dm per axis and the centre lies in at most
    (dm + 1)^3 = ceil(1/eps)^3 cubes. So the overlap sum over F,
    overlap_lhs = sum |E n Q|, is at most overlap_rhs = ceil(1/eps)^3 |E|
    (overlap_ok, both exact integers); packing_lhs = n thr < overlap_lhs
    (packing_ok, as each cube of F holds more than thr); and the measure
    global_measure of E is at most weak_rhs = (M / 2^k eps)^3 (weak_ok).
    Together

        n < ceil(1/eps)^3 (2^k eps)^-3 M^3 / (2^-3k eps) = ceil(1/eps)^3 eps^-4 M^3,

    which is eps^-7 M^3, the first term of `count_bound`, when 1/eps is an
    integer.
    """

    level: int
    eps: float
    height: float
    measure_threshold: float
    F_keys: np.ndarray
    G_keys: np.ndarray
    global_measure: float
    certificate: dict
    boundary_adjacent: bool = False

    @property
    def F_indices(self):
        return _unpack(self.F_keys)

    @property
    def G_indices(self):
        return _unpack(self.G_keys)

    @property
    def n(self):
        return len(self.F_keys)

    @property
    def empty(self):
        return len(self.F_keys) == 0

    def summary(self):
        return {
            "level": self.level,
            "height": self.height,
            "measure_threshold": self.measure_threshold,
            "n_selected": self.n,
            "n_extended": len(self.G_keys),
            "global_measure": self.global_measure,
            "boundary_adjacent": self.boundary_adjacent,
            **self.certificate,
        }


def _make_family(mag, k, eps, keys, M, prefix):
    """Apply the level-k measure condition to the sorted distinct candidate
    keys and certify the count; prefix is _prefix at the level-k height and
    M defaults to the weak-L^3 norm of the magnitude grid mag."""
    if M is None:
        M = weak_norm(mag, 3.0)
    count_bound(M, eps)     # rejects M; (M / height)^3 is at most the bound it checks
    height = (2.0 ** k) * eps
    thr = (2.0 ** (-3 * k)) * eps
    p, global_measure = prefix
    box = mag.box
    j = _unpack(keys)
    counts = _cube_counts(p, box, j, k, eps)
    sel = counts * box.cell_volume > thr
    f_keys, f, counts = keys[sel], j[sel], counts[sel]
    n, overlap = len(f_keys), int(counts.sum(dtype=np.int64))

    # G: the Minkowski sum of F with the meeting offsets [-dm, dm]^3, in the cover
    dm = _meet_radius(eps)
    g_keys = _spread(f_keys, lambda j: (j - dm, j + dm), _cover_ranges(k, eps, box))

    overlap_rhs = (dm + 1) ** 3 * int(p[-1, -1, -1])
    packing_lhs = n * thr / box.cell_volume
    weak_rhs = (M / height) ** 3
    cert = {
        "overlap_ok": overlap <= overlap_rhs, "overlap_lhs": overlap,
        "overlap_rhs": overlap_rhs,
        "packing_ok": packing_lhs < overlap or n == 0, "packing_lhs": packing_lhs,
        "weak_ok": global_measure <= weak_rhs * (1 + 1e-12), "weak_rhs": weak_rhs,
    }
    return SelectionFamily(
        level=k, eps=eps, height=height, measure_threshold=thr,
        F_keys=f_keys, G_keys=g_keys, global_measure=global_measure,
        certificate=cert, boundary_adjacent=bool(_protrudes(f, k, eps, box).any()))


def select_f0(mag, eps, M=None):
    """Level-0 selection over the full cover of the box of the |u| grid mag."""
    if not (0 < eps < 0.25):
        raise ValueError("eps must lie in (0, 1/4)")
    keys = _pack(_cover_offsets(0, eps, mag.box))
    return _make_family(mag, 0, eps, keys, M, _prefix(mag, eps))


def _children_of(keys, eps, k_child, box):
    """Candidate level-k keys contained in the given level-(k-1) cubes."""
    span = _child_span(eps)
    return _spread(keys, lambda j: (2 * j, 2 * j + span),
                   _cover_ranges(k_child, eps, box))


def select_fk(mag, prev, M=None):
    """Selection on the |u| grid mag one level below prev, at prev's eps,
    among the cubes contained in its G family."""
    k = prev.level + 1
    eps = prev.eps
    prefix = _prefix(mag, (2.0 ** k) * eps)

    # only parents holding at least one super-level cell can have children
    # passing the (strictly positive) measure condition
    counts = _cube_counts(prefix[0], mag.box, prev.G_indices, k - 1, eps)
    keys = _children_of(prev.G_keys[counts > 0], eps, k, mag.box)
    return _make_family(mag, k, eps, keys, M, prefix)


def count_bound(M, eps):
    """Upper bound eps^-7 M^3 + eps^-3 on the number of candidate points."""
    if not (0 < eps < 0.25):
        raise ValueError("eps must lie in (0, 1/4)")
    if not (np.isfinite(M) and M >= 0):
        raise ValueError(f"M must be finite and nonnegative, got {M}")
    inv = 1.0 / eps
    return _finite_bound(M, "count bound eps^-7 M^3 + eps^-3",
                         lambda: M ** 3 * inv ** 7 + inv ** 3)


def _parents_of(keys, eps):
    """All level-(k-1) keys whose cube contains the given level-k cubes:
    per axis, the range [ceil((j-span)/2), floor(j/2)]."""
    span = _child_span(eps)
    return _spread(keys, lambda j: ((j - span + 1) // 2, j // 2))


def _first_parents(keys, reach, eps):
    """Per level-k key, the lexicographically first key of the sorted reach
    whose level-(k-1) cube contains it, or -1 where there is none (every
    key, when the reach is empty). The (x, y) lines of the parent boxes are
    scanned in order, one `searchsorted` of all keys per line; packed keys
    sort lexicographically, so the first hit wins."""
    found = np.full(len(keys), -1, np.int64)
    if len(reach) == 0:
        return found
    span = _child_span(eps)
    j = _unpack(keys)
    lo = (j - span + 1) // 2
    width = j // 2 - lo
    for dx, dy in product(range(span // 2 + 1), repeat=2):
        rows = np.flatnonzero((found < 0) & (dx <= width[:, 0]) & (dy <= width[:, 1]))
        first = _pack(lo[rows] + (dx, dy, 0))
        pos = np.minimum(np.searchsorted(reach, first), len(reach) - 1)
        hit = reach[pos] - first
        on_line = (hit >= 0) & (hit <= width[rows, 2])
        found[rows[on_line]] = reach[pos[on_line]]
    return found


@dataclass
class CandidateSet:
    """Surviving nested-cube chains, clustered into candidate points: per
    candidate, clusters holds its (m, 3) int64 deepest-level offsets in
    lexicographic order, and chains is one (n_clusters, k_max + 1, 3) int64
    array of lattice offsets, coarsest first: row k of a chain is the cube
    [eps 2^-k j, eps 2^-k j + 2^-k)^3, and its last row is the cluster's
    first offset. Candidates are ordered by their lexicographically first
    offset."""

    points: np.ndarray
    clusters: list
    chains: np.ndarray
    regular: bool
    terminated_per_level: list
    survivors_per_level: list
    boundary_adjacent: bool
    eps: float
    k_max: int
    M: float = float("nan")
    bound: float = float("nan")
    weak_norm_measured: float = float("nan")
    families: list = field(default_factory=list)
    flags: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "points": self.points.tolist(),
            "n_clusters": len(self.clusters),
            "cluster_sizes": [len(c) for c in self.clusters],
            "chains": self.chains.tolist(),
            "regular": self.regular,
            "eps": self.eps,
            "k_max": self.k_max,
            "M": self.M,
            "bound": self.bound,
            "weak_norm_measured": self.weak_norm_measured,
            "hypothesis_ok": self.weak_norm_measured <= self.M * (1 + 1e-12),
            "survivors_per_level": self.survivors_per_level,
            "terminated_per_level": self.terminated_per_level,
            "boundary_adjacent": self.boundary_adjacent,
            "levels": [f.summary() for f in self.families],
            "flags": self.flags,
        }


def _cluster_labels(keys, dm):
    """Connected components of the packed offsets keys under |dj|_inf <= dm,
    exactly, numbered in the order of their lexicographically first offsets.

    In the sorted packed keys, offsets of one (x, y) line with z gaps of at
    most dm chain into a run. Runs on lines at most dm apart in x and y meet
    exactly when their z spans are at most dm apart (an end of one span
    inside the other lies between two members at most dm apart; a gap of at
    most dm is bridged by the two ends), and per line shift the runs a run
    meets form one range of the sorted runs, found by `searchsorted`. After
    each x step of the shifts the components so far are contracted over that
    step's meeting pairs (each larger label hooks to the least label it
    meets, then pointer jumping), so only one step's pairs are held at once;
    the steps stop once a single component is left. A label only ever falls
    to a label it meets, so each run ends labelled with its component's
    first run.
    """
    if len(keys) == 0:
        return np.empty(0, np.int64)
    if np.abs(_unpack(keys)).max() >= _OFF - dm:   # key + shift -/+ dm: no borrow
        raise ValueError("lattice offset exceeds packing range")
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    start = np.r_[True, keys[1:] - keys[:-1] > dm]
    lo, hi = keys[start], keys[np.r_[start[1:], True]]
    comp = np.arange(len(lo))
    for dx in range(dm + 1):   # shifts (dx, dy) > 0: each pair of lines once
        a, b = [], []
        for dy in range(-dm if dx else 1, dm + 1):
            shift = (dx << 40) + (dy << 20)
            first = np.searchsorted(hi, lo + shift - dm)
            count = np.searchsorted(lo, hi + shift + dm, "right") - first
            a.append(np.repeat(comp, count))
            b.append(comp[np.repeat(first - np.cumsum(count) + count, count)
                          + np.arange(count.sum())])
        a, b = np.concatenate(a), np.concatenate(b)
        root = np.arange(len(lo))
        while len(a):
            np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
            while not np.array_equal(up := root[root], root):
                root = up
            a, b = root[a], root[b]
            join = a != b
            a, b = a[join], b[join]
        comp = root[comp]
        if np.all(comp == comp[0]):
            break
    # comp holds each run's first run, so its ranks number by first run
    labels = np.empty(len(keys), np.int64)
    labels[order] = np.unique(comp, return_inverse=True)[1][np.cumsum(start) - 1]
    return labels


def build_chains(families, box):
    """Follow nested admitted cubes through every level and cluster survivors.

    A cube of the level-k G family is reachable when it lies inside a
    reachable cube of level k - 1 (`_first_parents` finds one); branching
    follows all qualifying cubes.
    Survivors at the deepest level are clustered by the meet relation on
    z-runs of their keys (`_cluster_labels`) and split by one stable argsort
    of the labels; each cluster (an offset array, lexicographic) is reported
    as one candidate point (centroid of cube centers) with a representative
    chain, in the order of the clusters' lexicographically first offsets.
    """
    families = list(families)
    if not families:
        return CandidateSet(
            points=np.zeros((0, 3)), clusters=[],
            chains=np.zeros((0, 0, 3), np.int64), regular=True,
            terminated_per_level=[], survivors_per_level=[],
            boundary_adjacent=False, eps=float("nan"), k_max=-1)

    eps = families[0].eps
    k_max = families[-1].level
    reach = [families[0].G_keys]
    for fam in families[1:]:
        reach.append(fam.G_keys[_first_parents(fam.G_keys, reach[-1], eps) >= 0])
    terminated = [
        int(len(r) - len(np.intersect1d(r, _parents_of(r_next, eps),
                                        assume_unique=True)))
        for r, r_next in zip(reach, reach[1:])
    ]

    # cluster by the meet relation: |dj| <= meet radius per axis
    labels = _cluster_labels(reach[-1], _meet_radius(eps))
    j = _unpack(reach[-1])
    clusters = np.split(j[np.argsort(labels, kind="stable")],
                        np.cumsum(np.bincount(labels)))[:-1]
    side = 2.0 ** (-k_max)
    points = [(eps * side * cl + 0.5 * side).mean(axis=0) for cl in clusters]

    # representative chains: walk each cluster's lexicographically first
    # survivor up, taking its first reachable parent at every level
    walk = [reach[-1][np.unique(labels, return_index=True)[1]]]
    for k in range(k_max, 0, -1):
        walk.append(_first_parents(walk[-1], reach[k - 1], eps))
    chains = np.stack([_unpack(keys) for keys in reversed(walk)], axis=1)

    return CandidateSet(
        points=np.asarray(points).reshape(-1, 3), clusters=clusters,
        chains=chains, regular=not clusters, terminated_per_level=terminated,
        survivors_per_level=[int(len(r)) for r in reach],
        boundary_adjacent=bool(_protrudes(j, k_max, eps, box).any()),
        eps=eps, k_max=k_max)


def localize(frame, cfg, k_max, M=None, on_underresolved="error"):
    """Full localization pipeline for one frame.

    Runs the level-0 selection, descends to k_max following admitted
    cubes, certifies each level's count, and clusters surviving
    chains into candidate points. M defaults to the measured weak-L^3
    norm of |u|. The finest cubes must span at least 4 cells per axis;
    on_underresolved chooses between raising (default) and warning. Cubes
    narrower than one cell are an error either way.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    hmax = max(frame.box.spacing)
    if math.ldexp(1.0, -k_max) < hmax:
        raise ValueError(f"k_max {k_max} makes cubes narrower than a cell of {hmax!r}")
    if M is not None:
        count_bound(M, cfg.eps)     # M and the bound it sets, before any selection
    mag = frame.magnitude()
    del frame   # the levels read |u| alone; with no other reference the frame goes here
    underresolved = [k for k in range(k_max + 1) if 2.0 ** (-k) < 4.0 * hmax]
    if underresolved:
        suggested = int(np.floor(np.log2(1.0 / (4.0 * hmax))))
        msg = (f"cubes at levels {underresolved} span fewer than 4 cells; "
               f"largest safe k_max is {max(suggested, 0)}")
        if on_underresolved == "error":
            raise ValueError(msg)
        warnings.warn(msg)

    measured = weak_norm(mag, 3.0)
    if M is None:
        M = measured

    families = [select_f0(mag, cfg.eps, M=M)]
    for _ in range(k_max):
        if families[-1].empty:
            break
        families.append(select_fk(mag, families[-1], M=M))

    cs = build_chains(families, mag.box)
    cs.M = float(M)
    cs.weak_norm_measured = float(measured)
    cs.bound = count_bound(M, cfg.eps)
    cs.families = families
    cs.flags = {
        "underresolved_levels": underresolved,
        "truncated": len(families) < k_max + 1,
    }
    if len(cs.points) > cs.bound:
        raise CountBoundError(
            f"candidate count {len(cs.points)} exceeds bound {cs.bound}"
        )
    return cs
