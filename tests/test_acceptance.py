"""End-to-end acceptance checks, one per shipped guarantee.

Each test is self-contained, pins its own tolerances, and is reported as
a single pass/fail line in the terminal summary (see conftest.py). The
oracles are closed forms: level-set volumes of radial profiles, subset
suprema on step functions, exact layer-cake telescoping, pullback grids
for the scaling map, manufactured pressure gradients, and ball integrals
of |x_1| and the capped pole.
"""

import itertools
import time

import numpy as np
import pytest

from regscan.dyadic import count_bound, localize
from regscan.grid import Ball, Box3, Cube, Cylinder, ScalarGrid, SpaceTimeField, VectorGrid
from regscan.localquant import AnalysisConfig, quant_report, rescale
from regscan.lorentz import (
    NormReport,
    distribution,
    equivalent_norm,
    l4_interpolation_check,
    local_l2_check,
    lp_norm,
    weak_norm,
)
from regscan.stokes import (
    BumpTestFunction,
    estar,
    harmonic_residual,
    harmonic_rigidity_check,
    local_energy_residual,
    pressure_parts,
    restrict_to_cube,
)
from regscan.synth import (SolverConfig, SpikeSpec, default_box, random_solenoidal, run_solver,
                           spike_field)


def capped_pole(n, delta=0.125, box_hi=1.0):
    box = Box3((-box_hi,) * 3, (box_hi,) * 3, (n,) * 3)
    return ScalarGrid.sample(box, lambda x, y, z: 1.0 / np.maximum(
        np.sqrt(x * x + y * y + z * z), delta))


def step_grid(values):
    values = np.asarray(values, dtype=float)
    box = Box3((0, 0, 0), (float(len(values)), 1.0, 1.0), (len(values), 1, 1))
    return ScalarGrid(box, values.reshape(-1, 1, 1))


def subset_supremum(values, q, r):
    """Brute-force sup over every nonempty subset of unit-volume cells."""
    best = 0.0
    n = len(values)
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            s = sum(abs(values[i]) ** r for i in combo)
            best = max(best, float(k) ** (1.0 / q - 1.0 / r) * s ** (1.0 / r))
    return best


def test_criterion_01_weak_norm_matches_closed_form_oracle():
    # |f| = 1/|x| capped at delta has m{|f| > h} = (4pi/3) h^-3 for
    # h < 1/delta, so the weak-L3 norm is exactly (4pi/3)^(1/3)
    oracle = (4.0 * np.pi / 3.0) ** (1.0 / 3.0)
    w64 = weak_norm(capped_pole(64), 3.0)
    started = time.perf_counter()
    w128 = weak_norm(capped_pole(128), 3.0)
    elapsed = time.perf_counter() - started
    assert abs(w64 - oracle) / oracle <= 0.08
    assert abs(w128 - oracle) / oracle <= 0.04
    assert abs(w128 - oracle) <= abs(w64 - oracle)
    assert elapsed <= 10.0


def test_criterion_02_equivalent_norm_is_the_subset_supremum():
    rng = np.random.default_rng(42)
    pairs = ((3.0, 1.0), (3.0, 2.0))
    for trial in range(100):
        cells = int(rng.integers(1, 13))
        # quarter-integer steps make ties and zero cells common
        values = np.round(rng.uniform(0.0, 3.0, cells) * 4.0) / 4.0
        g = step_grid(values)
        q, r = pairs[trial % 2]
        brute = subset_supremum(values, q, r)
        assert equivalent_norm(g, q, r) == pytest.approx(brute, rel=1e-12, abs=1e-15)
    for seed in range(5):
        mag = random_solenoidal(default_box(32), seed=seed, rms=1.0 + seed).magnitude()
        for q, r in pairs:
            rep = NormReport.from_scalar(mag, q=q, r=r)
            assert 1.0 - 1e-12 <= rep.ratio <= rep.ratio_bound + 1e-12


def test_criterion_03_layer_cake_identity():
    rng = np.random.default_rng(7)
    fields = [step_grid(np.round(rng.uniform(0, 2, int(rng.integers(2, 12))) * 4) / 4)
              for _ in range(5)]
    box16 = Box3((0, 0, 0), (1, 1, 1), (16, 16, 16))
    fields += [ScalarGrid(box16, rng.uniform(0.0, 1.0, (16, 16, 16)))
               for _ in range(2)]
    fields.append(random_solenoidal(default_box(32), seed=3).magnitude())
    fields.append(capped_pole(32))
    for f in fields:
        prof = distribution(f)
        for q in (2.0, 3.0, 6.0):
            assert prof.layer_cake(q) == pytest.approx(lp_norm(f, q) ** q, rel=1e-12)


def test_criterion_04_scaling_invariance_of_local_quantities():
    box = Box3((0, 0, 0), (2 * np.pi,) * 3, (64, 64, 64))
    base = VectorGrid.sample(box, lambda x, y, z: (
        np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y), np.zeros_like(z))).data
    times = np.linspace(0.0, 0.5, 9)
    f = SpaceTimeField(tuple(times), [
        VectorGrid(box, np.exp(-t) * base) for t in times])
    cyl = Cylinder(center=(np.pi, np.pi, np.pi), t0=0.4375, r=0.6)
    cfg = AnalysisConfig(eps=0.1, zeta=1.0)
    ref = quant_report(f, cyl, cfg)
    for lam in (0.5, 2.0):
        g = rescale(f, lam, (cyl.center, cyl.t0))
        rep = quant_report(
            g, Cylinder(center=cyl.center, t0=cyl.t0, r=cyl.r / lam), cfg)
        assert rep.q3 == pytest.approx(ref.q3, rel=1e-2)
        assert rep.e16.ratio == pytest.approx(ref.e16.ratio, rel=1e-2)
        assert rep.caccioppoli.lhs == pytest.approx(ref.caccioppoli.lhs, rel=1e-2)
        assert rep.caccioppoli.rhs == pytest.approx(ref.caccioppoli.rhs, rel=1e-2)
        assert rep.energy_sup == pytest.approx(ref.energy_sup, rel=1e-2)


@pytest.mark.parametrize("amplitudes", [(0.125, 0.125), (0.125, -0.125)],
                         ids=["co-rotating", "counter-rotating"])
def test_criterion_05_two_spike_localization(amplitudes):
    n = 128
    box = Box3((0, 0, 0), (1.1, 1.1, 1.1), (n, n, n))
    h = 1.1 / n
    centers = np.array([[0.05, 0.05, 0.05], [1.05, 1.05, 1.05]])
    spec = SpikeSpec(centers=tuple(map(tuple, centers)),
                     amplitudes=amplitudes,
                     axes=((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)),
                     delta=2.05 * h)
    u = spike_field(spec, box)
    cfg = AnalysisConfig(eps=0.1)

    started = time.perf_counter()
    with pytest.warns(UserWarning, match="fewer than 4 cells"):
        cs = localize(u, cfg, 6, on_underresolved="warn")
    elapsed = time.perf_counter() - started
    assert elapsed <= 60.0

    assert len(cs.clusters) == 2
    dist = np.linalg.norm(cs.points[:, None, :] - centers[None, :, :], axis=2)
    assert dist.min(axis=0).max() <= 2.0 ** -6 * np.sqrt(3.0)
    assert sorted(dist.argmin(axis=0)) == [0, 1]    # one cluster per spike

    assert len(cs.families) >= 1
    for fam in cs.families:
        cert = fam.certificate
        assert cert["overlap_ok"]    # sum |E n Q| <= ceil(1/eps)^3 |E|
        assert cert["packing_ok"]    # n_k 2^-3k eps < sum |E n Q|
        assert cert["weak_ok"]       # |E| <= (2^k eps)^-3 M^3
    assert cs.points.shape[0] <= cs.bound
    assert cs.bound == count_bound(cs.M, cfg.eps)

    zero = VectorGrid(
        Box3((0, 0, 0), (1, 1, 1), (32, 32, 32)), np.zeros((3, 32, 32, 32)))
    empty = localize(zero, cfg, 3)
    assert empty.regular
    assert empty.points.shape == (0, 3)
    assert empty.clusters == []


def test_criterion_06_count_bound_arithmetic():
    bound = count_bound(1.0, 0.1)
    assert bound == 10_001_000.0
    assert float(bound).is_integer()


def trig_gradient_64():
    box = Box3((0, 0, 0), (1, 1, 1), (64, 64, 64))
    pi = np.pi
    return VectorGrid.sample(box, lambda x, y, z: (
        pi * np.cos(pi * x) * np.sin(pi * y) * np.sin(pi * z),
        pi * np.sin(pi * x) * np.cos(pi * y) * np.sin(pi * z),
        pi * np.sin(pi * x) * np.sin(pi * y) * np.cos(pi * z)))


def poly_gradient_64():
    box = Box3((0, 0, 0), (1, 1, 1), (64, 64, 64))
    return VectorGrid.sample(box, lambda x, y, z: (
        3 * x ** 2 * y - y * z, x ** 3 - x * z, 2 * z - x * y))


def curl_field(n):
    """curl of (chi, 0, psi): exactly solenoidal, multi-frequency."""
    box = Box3((0, 0, 0), (1, 1, 1), (n, n, n))
    pi = np.pi
    return VectorGrid.sample(box, lambda x, y, z: (
        2 * pi * np.sin(pi * x) * np.cos(2 * pi * y) * np.sin(pi * z),
        pi * np.sin(2 * pi * x) * np.sin(pi * y) * np.cos(pi * z)
        - pi * np.cos(pi * x) * np.sin(2 * pi * y) * np.sin(pi * z),
        -pi * np.sin(2 * pi * x) * np.cos(pi * y) * np.sin(pi * z)))


def test_criterion_07_stokes_projection_idempotence_and_refinement():
    for F in (trig_gradient_64(), poly_gradient_64()):
        sol = estar(F)
        err = np.sqrt(((sol.grad_p.data - F.data) ** 2).sum())
        assert err / np.sqrt((F.data ** 2).sum()) <= 1e-3
    res = {}
    for n in (32, 64):
        u = curl_field(n)
        parts = pressure_parts(u)
        res[n] = harmonic_residual(parts.solutions["ph"], u)
    assert res[32] / res[64] >= 3.0


def test_criterion_08_local_energy_inequality_on_resolved_run():
    run = run_solver(SolverConfig(n=64, nu=0.05, dt=0.005, t_end=0.3,
                                  save_every=2))
    assert run.energy_balance_residual() <= 1e-4 * run.energy[0]

    field = run.field
    cube = Cube((0.6, 0.6, 0.6), 5.0)
    pressures = [pressure_parts(restrict_to_cube(fr, cube))
                 for fr in field.frames]
    bumps = (
        BumpTestFunction((np.pi, np.pi, np.pi), 1.8, 0.15, 0.13),
        BumpTestFunction((3.6, 2.6, 3.2), 1.5, 0.16, 0.13),
        BumpTestFunction((2.8, 2.8, 3.6), 1.9, 0.15, 0.12),
    )
    for phi in bumps:
        out = local_energy_residual(field, cube, phi, nu=0.05,
                                    pressures=pressures)
        assert out["slack_relative"] >= -1e-2


def test_criterion_09_interpolation_inequalities_hold_with_measured_m():
    rng = np.random.default_rng(11)
    box16 = Box3((0, 0, 0), (1, 1, 1), (16, 16, 16))
    tg = VectorGrid.sample(
        Box3((0, 0, 0), (2 * np.pi,) * 3, (32, 32, 32)),
        lambda x, y, z: (np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y),
                         np.zeros_like(z)))
    spec = SpikeSpec(centers=((0.5, 0.5, 0.5),), amplitudes=(0.25,),
                     axes=((0.0, 0.0, 1.0),), delta=0.1)
    fields = (
        [random_solenoidal(default_box(32), seed=s).magnitude() for s in range(3)]
        + [ScalarGrid(box16, rng.uniform(0.0, 2.0, (16, 16, 16)))
           for _ in range(2)]
        + [tg.magnitude(),
           spike_field(spec, Box3((0, 0, 0), (1, 1, 1), (32, 32, 32))).magnitude(),
           capped_pole(48)]
    )
    for f in fields:
        M = weak_norm(f, 3.0)
        l4 = l4_interpolation_check(f, M, M)
        assert l4.hypothesis_ok and l4.holds
        ball = Ball(tuple(0.5 * (lo + hi) for lo, hi in zip(f.box.lo, f.box.hi)),
                    0.25 * min(f.box.extent))
        l2 = local_l2_check(f, ball, M, M)
        assert l2.hypothesis_ok and l2.holds
        prof = distribution(f)
        s6 = lp_norm(f, 6.0) ** 6
        assert np.all(prof.levels ** 6 * prof.measures <= s6 * (1 + 1e-12))


def test_criterion_10_harmonic_rigidity_slopes():
    box = Box3((-1, -1, -1), (1, 1, 1), (48, 48, 48))
    radii = np.linspace(0.3, 0.9, 7)

    pole = ScalarGrid.sample(box, lambda x, y, z: 1.0 / np.maximum(
        np.sqrt(x * x + y * y + z * z), 0.2))
    out = harmonic_rigidity_check(pole, radii, M=weak_norm(pole, 3.0))
    assert out["slope_split"] == pytest.approx(-2.0, abs=0.05)
    assert out["slope_direct"] <= -1.0
    assert radii[0] <= out["crossover_R"] <= radii[-1]

    linear = ScalarGrid.sample(box, lambda x, y, z: x)
    flat = harmonic_rigidity_check(linear, radii)
    assert abs(flat["slope_direct"]) <= 0.2
    assert radii[0] <= flat["crossover_R"] <= radii[-1]
