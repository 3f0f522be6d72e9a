"""Nested-cube localization of possible singular points.

A velocity frame is scanned with overlapping lattice covers: level k uses
cubes of side 2^-k whose corners sit on the lattice eps * 2^-k * Z^3. A
cube is selected when the set where |u| exceeds the level height 2^k * eps
fills more than 2^-3k * eps of space inside it; selected cubes plus their
meeting neighbours admit the next, finer level. Chains of nested admitted
cubes that survive to the finest level cluster around the candidate
points; the count of selected cubes per level is certified against the
measure-packing bounds that cap the number of candidates at
eps^-7 M^3 + eps^-3 for fields with weak-L^3 norm at most M.

Cube families are held as integer lattice-offset arrays packed into int64
keys; neighbour and child enumerations are separable per axis, which keeps
full 128^3 scans in the tens of millions of integer ops.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .lorentz import weak_norm

__all__ = [
    "DyadicCube",
    "SelectionFamily",
    "CandidateSet",
    "build_cover",
    "select_f0",
    "select_fk",
    "build_chains",
    "count_bound",
    "localize",
]

_OFF = 1 << 19
_MASK = (1 << 20) - 1


def _pack(j):
    j = np.asarray(j, dtype=np.int64)
    if j.size and np.abs(j).max() >= _OFF:
        raise ValueError("lattice offset exceeds packing range")
    return ((j[:, 0] + _OFF) << 40) | ((j[:, 1] + _OFF) << 20) | (j[:, 2] + _OFF)


def _unpack(keys):
    j = np.empty((len(keys), 3), dtype=np.int64)
    j[:, 0] = (keys >> 40) - _OFF
    j[:, 1] = ((keys >> 20) & _MASK) - _OFF
    j[:, 2] = (keys & _MASK) - _OFF
    return j


_SHIFTS = (40, 20, 0)


def _dilate(keys, dmin, dmax):
    """Minkowski sum with the offset box [dmin, dmax]^3, axis by axis."""
    for axis in range(3):
        d = (np.arange(dmin, dmax + 1, dtype=np.int64) << _SHIFTS[axis])
        keys = np.unique((keys[:, None] + d).ravel())
    return keys


def _meet_radius(eps):
    """Largest |dj| (per axis) for which two same-level cubes overlap."""
    return int(np.ceil(1.0 / eps - 1e-12)) - 1


def _child_span(eps):
    """Largest d with eps*(2 j + d) + 1 <= eps*2 j + 2: children occupy [0, d]^3."""
    return int(np.floor(1.0 / eps + 1e-12))


@dataclass(frozen=True)
class DyadicCube:
    """Cube [corner, corner + side)^3 with corner = eps * 2^-level * j."""

    eps: float
    level: int
    j: tuple

    @property
    def side(self):
        return 2.0 ** (-self.level)

    @property
    def corner(self):
        s = self.eps * self.side
        return tuple(s * ji for ji in self.j)

    @property
    def center(self):
        half = 0.5 * self.side
        return tuple(c + half for c in self.corner)

    def meets(self, other):
        """Interiors intersect (same level only)."""
        if other.level != self.level:
            raise ValueError("meets() compares cubes of one level")
        dm = _meet_radius(self.eps)
        return all(abs(a - b) <= dm for a, b in zip(self.j, other.j))

    def contains(self, child):
        """Whole-cube containment of a cube one level finer."""
        if child.level != self.level + 1:
            raise ValueError("contains() expects a cube one level finer")
        d = _child_span(self.eps)
        return all(2 * a <= b <= 2 * a + d for a, b in zip(self.j, child.j))

    def protrudes(self, box):
        return any(
            c < lo - 1e-12 or c + self.side > hi + 1e-12
            for c, lo, hi in zip(self.corner, box.lo, box.hi)
        )


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


def _clip_to_cover(keys, k, eps, box):
    """Drop cubes that do not open-intersect the domain box."""
    r = _cover_ranges(k, eps, box)
    j = _unpack(keys)
    keep = np.ones(len(keys), dtype=bool)
    for a in range(3):
        keep &= (j[:, a] >= r[a][0]) & (j[:, a] <= r[a][1])
    return keys[keep]


def build_cover(k, eps, domain):
    """All level-k cubes whose interior intersects the domain box."""
    if not (0 < eps < 0.25):
        raise ValueError("eps must lie in (0, 1/4)")
    if k < 0:
        raise ValueError("level must be nonnegative")
    r = _cover_ranges(k, eps, domain)
    grids = np.meshgrid(*[np.arange(a, b + 1, dtype=np.int64) for a, b in r],
                        indexing="ij")
    j = np.stack([g.ravel() for g in grids], axis=1)
    return [DyadicCube(eps, k, tuple(row)) for row in j]


class _FrameScan:
    """Prefix-sum machinery for counting super-level cells inside cubes."""

    def __init__(self, frame):
        mag = frame.magnitude() if hasattr(frame, "magnitude") else frame
        self.box = mag.box
        self.mag = np.abs(mag.data)
        self.centers = self.box.centers()
        self.cell_volume = self.box.cell_volume

    def prefix(self, height):
        ind = (self.mag > height)
        p = np.zeros(tuple(m + 1 for m in self.mag.shape), dtype=np.int64)
        p[1:, 1:, 1:] = np.cumsum(np.cumsum(np.cumsum(ind, 0), 1), 2)
        return p, float(p[-1, -1, -1] * self.cell_volume)

    def cube_counts(self, p, j, k, eps):
        """Super-level cell counts for cubes given by lattice offsets j."""
        s = 2.0 ** (-k)
        sp = eps * s
        idx = []
        for a in range(3):
            lo = sp * j[:, a]
            i0 = np.searchsorted(self.centers[a], lo, side="left")
            i1 = np.searchsorted(self.centers[a], lo + s, side="left")
            idx.append((i0, i1))
        (x0, x1), (y0, y1), (z0, z1) = idx
        return (
            p[x1, y1, z1] - p[x0, y1, z1] - p[x1, y0, z1] - p[x1, y1, z0]
            + p[x0, y0, z1] + p[x0, y1, z0] + p[x1, y0, z0] - p[x0, y0, z0]
        )


def _lex_sorted(j):
    order = np.lexsort((j[:, 2], j[:, 1], j[:, 0]))
    return j[order]


def _greedy_disjoint(j, eps):
    """Size of the lexicographic greedy maximal pairwise-disjoint subfamily."""
    dm = _meet_radius(eps)
    bucket_size = dm + 1
    kept = {}
    count = 0
    for row in j:
        bx, by, bz = (int(row[0]) // bucket_size, int(row[1]) // bucket_size,
                      int(row[2]) // bucket_size)
        clash = False
        for nx in (bx - 1, bx, bx + 1):
            for ny in (by - 1, by, by + 1):
                for nz in (bz - 1, bz, bz + 1):
                    for q in kept.get((nx, ny, nz), ()):
                        if (abs(row[0] - q[0]) <= dm and abs(row[1] - q[1]) <= dm
                                and abs(row[2] - q[2]) <= dm):
                            clash = True
                            break
                    if clash:
                        break
                if clash:
                    break
            if clash:
                break
        if not clash:
            kept.setdefault((bx, by, bz), []).append((int(row[0]), int(row[1]),
                                                      int(row[2])))
            count += 1
    return count


@dataclass
class SelectionFamily:
    """Selected cubes F and their meeting extension G at one level.

    F holds the cubes passing the measure condition
    m{x in E : |u| > 2^k eps} > 2^-3k eps; G adds every cover cube whose
    interior touches a member of F. The certificate records the packing
    chain: n <= eps^-3 n_disjoint, n_disjoint * 2^-3k eps <= m_global,
    and m_global <= (2^k eps)^-3 M^3.
    """

    level: int
    eps: float
    shape_factor: float
    height: float
    measure_threshold: float
    F_indices: np.ndarray
    G_indices: np.ndarray
    n_disjoint: int
    global_measure: float
    certificate: dict
    boundary_adjacent: bool = False

    @property
    def eps_effective(self):
        return self.eps * self.shape_factor

    @property
    def n(self):
        return len(self.F_indices)

    @property
    def empty(self):
        return len(self.F_indices) == 0

    @property
    def F(self):
        e = self.eps_effective
        return [DyadicCube(e, self.level, tuple(r)) for r in self.F_indices]

    @property
    def G(self):
        e = self.eps_effective
        return [DyadicCube(e, self.level, tuple(r)) for r in self.G_indices]

    def summary(self):
        return {
            "level": self.level,
            "height": self.height,
            "measure_threshold": self.measure_threshold,
            "n_selected": self.n,
            "n_extended": len(self.G_indices),
            "n_disjoint": self.n_disjoint,
            "global_measure": self.global_measure,
            "boundary_adjacent": self.boundary_adjacent,
            **self.certificate,
        }


def _certificate(n, n_disjoint, thr_measure, global_measure, height, M, eps_eff):
    inv = 1.0 / eps_eff
    overlap_rhs = inv ** 3 * n_disjoint
    packing_lhs = n_disjoint * thr_measure
    weak_rhs = (M / height) ** 3 if height > 0 else float("inf")
    return {
        "overlap_ok": n <= overlap_rhs,
        "overlap_rhs": overlap_rhs,
        "packing_ok": packing_lhs <= global_measure or n_disjoint == 0,
        "packing_lhs": packing_lhs,
        "weak_ok": global_measure <= weak_rhs * (1 + 1e-12),
        "weak_rhs": weak_rhs,
    }


def _make_family(scan, k, eps, shape_factor, j, M):
    """Apply the level-k measure condition to candidate offsets j."""
    eps_eff = eps * shape_factor
    height = (2.0 ** k) * eps_eff
    thr = (2.0 ** (-3 * k)) * eps_eff
    prefix, global_measure = scan.prefix(height)
    if len(j):
        counts = scan.cube_counts(prefix, j, k, eps_eff)
        sel = j[counts * scan.cell_volume > thr]
    else:
        sel = j.reshape(0, 3)
    sel = _lex_sorted(sel)
    nd = _greedy_disjoint(sel, eps_eff)

    if len(sel):
        g_keys = _dilate(_pack(sel), -_meet_radius(eps_eff), _meet_radius(eps_eff))
        g_keys = _clip_to_cover(g_keys, k, eps_eff, scan.box)
        g = _lex_sorted(_unpack(g_keys))
    else:
        g = sel

    s = 2.0 ** (-k)
    sp = eps_eff * s
    boundary = False
    if len(sel):
        corner = sp * sel
        lo = np.asarray(scan.box.lo)
        hi = np.asarray(scan.box.hi)
        boundary = bool(np.any((corner < lo - 1e-12) | (corner + s > hi + 1e-12)))

    cert = _certificate(len(sel), nd, thr, global_measure, height, M, eps_eff)
    return SelectionFamily(
        level=k,
        eps=eps,
        shape_factor=shape_factor,
        height=height,
        measure_threshold=thr,
        F_indices=sel,
        G_indices=g,
        n_disjoint=nd,
        global_measure=global_measure,
        certificate=cert,
        boundary_adjacent=boundary,
    )


def select_f0(frame, eps, shape_factor=1.0, M=None):
    """Level-0 selection over the full cover of the frame's box."""
    if not (0 < eps < 0.25):
        raise ValueError("eps must lie in (0, 1/4)")
    scan = _FrameScan(frame)
    if M is None:
        M = weak_norm(frame.magnitude() if hasattr(frame, "magnitude") else frame, 3.0)
    r = _cover_ranges(0, eps * shape_factor, scan.box)
    grids = np.meshgrid(*[np.arange(a, b + 1, dtype=np.int64) for a, b in r],
                        indexing="ij")
    j = np.stack([g.ravel() for g in grids], axis=1)
    return _make_family(scan, 0, eps, shape_factor, j, M)


def _children_of(keys, eps_eff, k_child, box):
    """Candidate level-k offsets contained in the given level-(k-1) cubes."""
    if len(keys) == 0:
        return keys
    doubled = _pack(2 * _unpack(keys))
    span = _child_span(eps_eff)
    cand = _dilate(doubled, 0, span)
    return _clip_to_cover(cand, k_child, eps_eff, box)


def select_fk(frame, eps, k, prev, shape_factor=None, M=None):
    """Level-k selection among cubes contained in the previous G family."""
    if k != prev.level + 1:
        raise ValueError("select_fk must be called with k = prev.level + 1")
    if shape_factor is None:
        shape_factor = prev.shape_factor
    scan = _FrameScan(frame)
    if M is None:
        M = weak_norm(frame.magnitude() if hasattr(frame, "magnitude") else frame, 3.0)
    eps_eff = eps * shape_factor
    height = (2.0 ** k) * eps_eff

    parent_keys = _pack(prev.G_indices) if len(prev.G_indices) else np.empty(0, np.int64)
    if len(parent_keys):
        # only parents holding at least one super-level cell can have children
        # passing the (strictly positive) measure condition
        prefix, _ = scan.prefix(height)
        counts = scan.cube_counts(prefix, prev.G_indices, k - 1, eps_eff)
        parent_keys = parent_keys[counts > 0]
    cand_keys = _children_of(parent_keys, eps_eff, k, scan.box)
    j = _unpack(cand_keys) if len(cand_keys) else np.empty((0, 3), np.int64)
    return _make_family(scan, k, eps, shape_factor, j, M)


def count_bound(M, eps):
    """Upper bound eps^-7 M^3 + eps^-3 on the number of candidate points."""
    if not (0 < eps < 0.25):
        raise ValueError("eps must lie in (0, 1/4)")
    if M < 0:
        raise ValueError("M must be nonnegative")
    inv = 1.0 / eps
    return M ** 3 * inv ** 7 + inv ** 3


def _parents_of(keys, eps_eff):
    """All level-(k-1) offsets whose cube contains the given level-k cubes.

    Per-axis parent ranges [ceil((j-span)/2), floor(j/2)] are independent,
    so expand axis by axis with dedupe.
    """
    span = _child_span(eps_eff)
    cur = keys
    for axis in range(3):
        jj = _unpack(cur)
        lo = (jj[:, axis] - span + 1) // 2
        hi = jj[:, axis] // 2
        width = int((hi - lo).max()) + 1 if len(jj) else 0
        rows = []
        for d in range(width):
            p = lo + d
            ok = p <= hi
            sub = jj[ok].copy()
            sub[:, axis] = p[ok]
            rows.append(sub)
        if rows:
            cur = np.unique(_pack(np.concatenate(rows)))
        else:
            cur = np.empty(0, np.int64)
    return cur


@dataclass
class CandidateSet:
    """Surviving nested-cube chains, clustered into candidate points."""

    points: np.ndarray
    clusters: list
    chains: list
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


_DENSE_VOXEL_CAP = 200_000_000


def _cluster_labels_sparse(j, dm):
    """Meet-relation components by offset matching (for sparse, spread-out sets)."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    keys = _pack(j)
    order = np.argsort(keys)
    skeys = keys[order]
    rows = []
    cols = []
    for dx in range(0, dm + 1):
        for dy in range(-dm, dm + 1):
            for dz in range(-dm, dm + 1):
                if dx == 0 and (dy < 0 or (dy == 0 and dz <= 0)):
                    continue
                shift = (dx << _SHIFTS[0]) + (dy << _SHIFTS[1]) + dz
                pos = np.searchsorted(skeys, skeys + shift)
                pos = np.clip(pos, 0, len(skeys) - 1)
                hit = skeys[pos] == skeys + shift
                rows.append(order[hit])
                cols.append(order[pos[hit]])
    if rows:
        r = np.concatenate(rows)
        c = np.concatenate(cols)
    else:
        r = c = np.empty(0, np.int64)
    g = coo_matrix((np.ones(len(r), bool), (r, c)), shape=(len(j), len(j)))
    _, lab = connected_components(g, directed=False)
    return lab.astype(np.int64)


def _cluster_labels(j, dm):
    """Connected components of lattice offsets under |dj|_inf <= dm, exactly.

    Offsets are pre-split on a coarse grid of pitch dm (meeting offsets land
    in identical or 26-adjacent coarse cells, so the split never separates a
    true pair). Each coarse component is then labeled on a doubled dense
    lattice where the boxes [2j, 2j + 2*dm] overlap iff the offsets meet;
    doubling makes face contact without overlap impossible by parity, so
    6-connected labeling of the dilated occupancy is the exact relation.
    """
    n = len(j)
    if n == 0:
        return np.empty(0, np.int64)
    if n == 1:
        return np.zeros(1, np.int64)

    coarse = np.floor_divide(j, dm)
    cmin = coarse.min(axis=0)
    occ = np.zeros(tuple(coarse.max(axis=0) - cmin + 1), dtype=bool)
    occ[tuple((coarse - cmin).T)] = True
    comp, _ = ndimage.label(occ, structure=np.ones((3, 3, 3), bool))
    pre = comp[tuple((coarse - cmin).T)]

    labels = np.empty(n, np.int64)
    base = 0
    for c in np.unique(pre):
        idx = np.nonzero(pre == c)[0]
        pj = j[idx]
        d = 2 * (pj - pj.min(axis=0))
        shape = tuple(int(v) for v in d.max(axis=0) + 2 * dm + 1)
        if int(np.prod([float(v) for v in shape])) > _DENSE_VOXEL_CAP:
            sub = _cluster_labels_sparse(pj, dm)
        else:
            grid = np.zeros(shape, dtype=np.uint8)
            grid[tuple(d.T)] = 1
            for axis in range(3):
                grid = ndimage.maximum_filter1d(grid, size=2 * dm + 1,
                                                axis=axis, origin=-dm)
            fine, _ = ndimage.label(grid)
            sub = fine[tuple(d.T)]
        _, sub = np.unique(sub, return_inverse=True)
        labels[idx] = base + sub
        base += int(sub.max()) + 1
    return labels


def build_chains(families, box):
    """Follow nested admitted cubes through every level and cluster survivors.

    A cube at level k extends a chain when it lies inside a reachable cube
    of the previous G family; branching follows all qualifying cubes.
    Survivors at the deepest level are clustered by the meet relation and
    each cluster is reported as one candidate point (centroid of cube
    centers) with a representative chain.
    """
    families = [f for f in families]
    if not families or families[0].empty:
        return CandidateSet(
            points=np.zeros((0, 3)),
            clusters=[],
            chains=[],
            regular=True,
            terminated_per_level=[],
            survivors_per_level=[0] * len(families),
            boundary_adjacent=False,
            eps=families[0].eps if families else float("nan"),
            k_max=families[-1].level if families else -1,
        )

    eps_eff = families[0].eps_effective
    reach = [_pack(families[0].G_indices)]
    for fam in families[1:]:
        keys = _pack(fam.G_indices) if len(fam.G_indices) else np.empty(0, np.int64)
        if len(keys) and len(reach[-1]):
            cand = _children_of(reach[-1], eps_eff, fam.level, box)
            reach.append(np.intersect1d(keys, cand, assume_unique=True))
        else:
            reach.append(np.empty(0, np.int64))

    survivors = reach[-1]
    terminated = []
    for k in range(len(reach) - 1):
        if len(reach[k + 1]):
            fertile = np.intersect1d(reach[k], _parents_of(reach[k + 1], eps_eff),
                                     assume_unique=True)
            terminated.append(int(len(reach[k]) - len(fertile)))
        else:
            terminated.append(int(len(reach[k])))

    k_max = families[-1].level
    if len(survivors) == 0:
        return CandidateSet(
            points=np.zeros((0, 3)),
            clusters=[],
            chains=[],
            regular=True,
            terminated_per_level=terminated,
            survivors_per_level=[int(len(r)) for r in reach],
            boundary_adjacent=False,
            eps=families[0].eps,
            k_max=k_max,
        )

    j = _lex_sorted(_unpack(survivors))
    side = 2.0 ** (-k_max)
    sp = eps_eff * side
    centers = sp * j + 0.5 * side

    # cluster by the meet relation: |dj| <= meet radius per axis
    dm = _meet_radius(eps_eff)
    roots = _cluster_labels(j, dm)
    labels = np.unique(roots)

    clusters = []
    points = []
    chains = []
    for lab in labels:
        sel = roots == lab
        member_j = j[sel]
        clusters.append([DyadicCube(eps_eff, k_max, tuple(r)) for r in member_j])
        points.append(centers[sel].mean(axis=0))
        # representative chain: walk the lexicographically-first survivor up,
        # taking the first reachable parent (packed keys sort lexicographically)
        chain = [clusters[-1][0]]
        key = _pack(member_j[:1])
        for k in range(k_max, 0, -1):
            key = np.intersect1d(_parents_of(key, eps_eff), reach[k - 1])[:1]
            if not len(key):
                break
            chain.append(DyadicCube(eps_eff, k - 1, tuple(_unpack(key)[0])))
        chains.append(list(reversed(chain)))

    boundary = any(c.protrudes(box) for cl in clusters for c in cl)
    return CandidateSet(
        points=np.asarray(points),
        clusters=clusters,
        chains=chains,
        regular=False,
        terminated_per_level=terminated,
        survivors_per_level=[int(len(r)) for r in reach],
        boundary_adjacent=boundary,
        eps=families[0].eps,
        k_max=k_max,
    )


def localize(frame, cfg, k_max, M=None, eps_shape_factor=1.0,
             on_underresolved="error"):
    """Full localization pipeline for one frame.

    Runs the level-0 selection, descends to k_max following admitted
    cubes, certifies the per-level packing chain, and clusters surviving
    chains into candidate points. M defaults to the measured weak-L^3
    norm of |u|. The finest cubes must span at least 4 cells per axis;
    on_underresolved chooses between raising (default) and warning.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    scan = _FrameScan(frame)
    hmax = max(scan.box.spacing)
    underresolved = [k for k in range(k_max + 1) if 2.0 ** (-k) < 4.0 * hmax]
    if underresolved:
        suggested = int(np.floor(np.log2(1.0 / (4.0 * hmax))))
        msg = (
            f"cubes at levels {underresolved} span fewer than 4 cells; "
            f"largest safe k_max is {max(suggested, 0)}"
        )
        if on_underresolved == "error":
            raise ValueError(msg)
        warnings.warn(msg)

    mag = frame.magnitude() if hasattr(frame, "magnitude") else frame
    measured = weak_norm(mag, 3.0)
    if M is None:
        M = measured

    fam = select_f0(frame, cfg.eps, eps_shape_factor, M=M)
    families = [fam]
    for k in range(1, k_max + 1):
        if families[-1].empty:
            break
        fam = select_fk(frame, cfg.eps, k, families[-1], M=M)
        families.append(fam)

    cs = build_chains(families, scan.box)
    cs.M = float(M)
    cs.weak_norm_measured = float(measured)
    cs.bound = count_bound(M, cfg.eps * eps_shape_factor)
    cs.families = families
    cs.flags = {
        "underresolved_levels": underresolved,
        "truncated": len(families) < k_max + 1,
        "eps_shape_factor": eps_shape_factor,
    }
    if len(cs.points) > cs.bound:
        raise AssertionError(
            f"candidate count {len(cs.points)} exceeds bound {cs.bound}"
        )
    return cs
