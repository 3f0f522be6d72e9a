"""Localizing near-singular behaviour with nested dyadic cube families.

A field with two rotational spikes (magnitude ~ c/|x - a_i|) is scanned
level by level: at level k the overlapping cover by cubes of side 2^-k
keeps exactly those cubes where m({|u| > 2^k eps} inside Q) exceeds
2^(-3k) eps, and candidates must chain up through every coarser level.
Survivors at the deepest level cluster into one component per spike,
and each level carries a certificate that the counting argument behind
the bound N(M) = eps^-7 M^3 + eps^-3 actually held on this data: in cells
of E = {|u| > 2^k eps}, the selected cubes' overlap sum is at most
ceil(1/eps)^3 |E|, and n_k times the threshold stays below that sum.
"""

import time

import numpy as np

from regscan.dyadic import count_bound, localize
from regscan.grid import Box3
from regscan.localquant import AnalysisConfig
from regscan.synth import SpikeSpec, spike_field


def main():
    n = 64
    box = Box3((0, 0, 0), (1.1, 1.1, 1.1), (n, n, n))
    centers = np.array([[0.05, 0.05, 0.05], [1.05, 1.05, 1.05]])
    spec = SpikeSpec(centers=tuple(map(tuple, centers)),
                     amplitudes=(0.125, 0.125),
                     axes=((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)),
                     delta=2.05 * 1.1 / n)
    u = spike_field(spec, box)

    cfg = AnalysisConfig(eps=0.1)
    started = time.perf_counter()
    cs = localize(u, cfg, 3)
    elapsed = time.perf_counter() - started

    print(f"grid {n}^3, eps = {cfg.eps}, deepest level k = {cs.k_max} "
          f"({elapsed:.2f} s)\n")
    print(f"{'k':>2} {'F_k':>6} {'G_k':>6} {'n_k thr <':>11} {'sum|EnQ| <=':>11} "
          f"{'ceil(1/eps)^3|E|':>16} {'|E| <=':>9} {'(M/h)^3':>9} ok")
    for fam in cs.families:
        c = fam.certificate
        cells = fam.global_measure / u.box.cell_volume
        ok = c["overlap_ok"] and c["packing_ok"] and c["weak_ok"]
        print(f"{fam.level:>2} {fam.n:>6} {len(fam.G_keys):>6} "
              f"{c['packing_lhs']:>11.0f} {c['overlap_lhs']:>11} "
              f"{c['overlap_rhs']:>16} {cells:>9.0f} "
              f"{c['weak_rhs'] / u.box.cell_volume:>9.0f} {ok}")
    print("(measures in cells; h = 2^k eps is the level height)")

    print(f"\nsurvivors per level: {cs.survivors_per_level}")
    print(f"terminated per level: {cs.terminated_per_level}")
    print(f"candidate clusters: {len(cs.clusters)}")
    for i, (p, cluster) in enumerate(zip(cs.points, cs.clusters)):
        err = np.linalg.norm(p - centers, axis=1).min()
        print(f"  cluster {i}: centroid ({p[0]:.4f}, {p[1]:.4f}, {p[2]:.4f}), "
              f"{len(cluster)} cubes, distance to nearest spike {err:.4f}")
    # chain row k is the level-k cube [eps 2^-k j, eps 2^-k j + 2^-k)^3; each
    # holds the next when 2 j_k <= j_(k+1) <= 2 j_k + floor(1/eps) per axis
    span = int(np.floor(1.0 / cfg.eps + 1e-12))
    for chain in cs.chains:
        nested = all(np.all((2 * a <= b) & (b <= 2 * a + span))
                     for a, b in zip(chain, chain[1:]))
        if not nested:
            raise SystemExit(f"chain {chain.tolist()} is not nested")
        print(f"  chain j = {' > '.join(str(tuple(j)) for j in chain.tolist())} "
              f"(nested: {nested})")

    print(f"\nmeasured M = {cs.M:.4f}; candidates {cs.points.shape[0]} <= "
          f"N(M) = {cs.bound:,.0f} (= count_bound(M, eps) "
          f"{count_bound(cs.M, cfg.eps):,.0f})")

    zero = spike_field(SpikeSpec(centers=((0.55, 0.55, 0.55),),
                                 amplitudes=(0.0,), axes=((0, 0, 1.0),),
                                 delta=0.1), box)
    empty = localize(zero, cfg, 3)
    print(f"zero field: regular = {empty.regular}, "
          f"candidates = {empty.points.shape[0]}")


if __name__ == "__main__":
    main()
