"""Weak-Lebesgue norms, the prefix-sum equivalent norm, and layer-cake checks.

The brute-force oracles here enumerate every subset of a small sample set,
so the prefix-sum shortcut inside equivalent_norm is tested against the
full variational definition rather than against itself.
"""

import itertools
from dataclasses import asdict

import numpy as np
import pytest

from regscan.grid import Ball, Box3, ScalarGrid
from regscan.lorentz import (
    LevelSetProfile,
    NormReport,
    distribution,
    equivalent_norm,
    l4_interpolation_check,
    lp_norm,
    local_l2_check,
    weak_norm,
)


def line_grid(values):
    """A ScalarGrid holding the given samples along one axis (cells of volume 1)."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    box = Box3((0, 0, 0), (n, 1, 1), (n, 1, 1))
    return ScalarGrid(box, values.reshape(n, 1, 1))


def bump_grid(n=16, width=0.15):
    box = Box3((-1, -1, -1), (1, 1, 1), (n, n, n))
    return ScalarGrid.sample(
        box, lambda x, y, z: np.exp(-(x * x + y * y + z * z) / (2 * width ** 2)))


def subset_sup(values, cell_volume, q, r):
    """sup over every nonempty subset E of m(E)^(1/q - 1/r) (int_E |f|^r)^(1/r)."""
    vals = np.abs(np.asarray(values, dtype=float))
    vals = vals[vals > 0]
    best = 0.0
    for k in range(1, len(vals) + 1):
        for combo in itertools.combinations(vals, k):
            m = k * cell_volume
            mass = sum(v ** r for v in combo) * cell_volume
            best = max(best, m ** (1.0 / q - 1.0 / r) * mass ** (1.0 / r))
    return best


def test_distribution_counts_strictly_above_level():
    g = line_grid([3.0] * 5 + [1.0] * 7 + [0.0] * 4)
    prof = distribution(g)
    assert np.allclose(prof.levels, [3.0, 1.0, 0.0])
    assert np.allclose(prof.measures, [5.0, 12.0, 16.0])
    assert prof.distribution_at(0.0) == pytest.approx(12.0)
    assert prof.distribution_at(0.5) == pytest.approx(12.0)
    assert prof.distribution_at(1.0) == pytest.approx(5.0)   # strict
    assert prof.distribution_at(2.9) == pytest.approx(5.0)
    assert prof.distribution_at(3.0) == 0.0
    assert prof.distribution_at(9.0) == 0.0


def test_distribution_at_counts_cells_above_every_level(rng):
    for _ in range(50):
        vals = rng.integers(-4, 5, size=int(rng.integers(1, 30))) * 0.5
        prof = distribution(line_grid(vals))
        hs = np.concatenate([prof.levels, prof.levels + 0.25, prof.levels - 0.25,
                             [-0.0, np.inf, -np.inf]])
        for h in hs:
            assert prof.distribution_at(h) == np.count_nonzero(np.abs(vals) > h)


def test_distribution_at_rejects_a_nan_level():
    prof = distribution(line_grid([3.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match="must not be NaN"):
        prof.distribution_at(np.nan)
    assert prof.distribution_at(-np.inf) == 3.0
    assert prof.distribution_at(np.inf) == 0.0


def test_weak_norm_matches_sorted_formula(rng):
    q = 3.0
    for _ in range(20):
        vals = rng.exponential(size=rng.integers(2, 40))
        g = line_grid(vals)
        v = np.sort(np.abs(vals))[::-1]
        ranks = (np.arange(len(v)) + 1) * g.box.cell_volume
        expected = np.max(v * ranks ** (1.0 / q))
        assert weak_norm(g, q) == pytest.approx(expected, rel=1e-13)


def test_weak_norm_zero_field():
    g = line_grid([0.0] * 6)
    assert weak_norm(g, 3.0) == 0.0
    assert equivalent_norm(g, 3.0, 2.0) == 0.0
    assert lp_norm(g, 3.0) == 0.0


@pytest.mark.parametrize("p", [np.inf, np.nan])
def test_lp_norm_rejects_a_non_finite_exponent(p):
    # at |f| = 173 everywhere, p = inf gave 1.0 and p = nan gave NaN
    g = line_grid([100.0 * np.sqrt(3.0)] * 6)
    with pytest.raises(ValueError, match=f"exponent p must be finite and positive, got {p}"):
        lp_norm(g, p)


@pytest.mark.parametrize("alpha", [2.0, -3.5, 0.25])
def test_norms_are_absolutely_homogeneous(rng, alpha):
    vals = rng.normal(size=30)
    g, ga = line_grid(vals), line_grid(alpha * vals)
    s = abs(alpha)
    assert weak_norm(ga, 3.0) == pytest.approx(s * weak_norm(g, 3.0), rel=1e-12)
    assert equivalent_norm(ga, 3.0, 2.0) == pytest.approx(
        s * equivalent_norm(g, 3.0, 2.0), rel=1e-12)
    assert lp_norm(ga, 4.0) == pytest.approx(s * lp_norm(g, 4.0), rel=1e-12)


@pytest.mark.parametrize("q,r", [(3.0, 1.0), (3.0, 2.0), (4.0, 2.0)])
def test_equivalent_norm_is_the_subset_supremum(rng, q, r):
    for _ in range(60):
        n = rng.integers(1, 11)
        vals = np.where(rng.random(n) < 0.25, 0.0, rng.exponential(size=n))
        g = line_grid(vals)
        brute = subset_sup(vals, g.box.cell_volume, q, r)
        assert equivalent_norm(g, q, r) == pytest.approx(brute, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("q,r", [(3.0, 1.0), (3.0, 2.0)])
def test_norm_ratio_lands_in_the_equivalence_window(rng, q, r):
    bound = (q / (q - r)) ** (1.0 / r)
    fields = [bump_grid(), bump_grid(n=12, width=0.4)]
    for _ in range(10):
        fields.append(line_grid(rng.exponential(size=50)))
    for g in fields:
        w, e = weak_norm(g, q), equivalent_norm(g, q, r)
        assert w <= e * (1 + 1e-12)
        assert e <= bound * w * (1 + 1e-12)


def test_equivalent_norm_requires_r_below_q():
    g = line_grid([1.0, 2.0])
    for r in (0.0, 3.0, 4.0):
        with pytest.raises(ValueError):
            equivalent_norm(g, 3.0, r)


@pytest.mark.parametrize("q", [np.inf, np.nan, -np.inf])
def test_norms_require_a_finite_q(q):
    g = line_grid([1.0, 2.0])
    with pytest.raises(ValueError, match="exponent q must be finite"):
        weak_norm(g, q)
    with pytest.raises(ValueError, match="need 0 < r < q < inf"):
        equivalent_norm(g, q, 2.0)


@pytest.mark.parametrize("q", [2.0, 3.0, 6.0])
def test_layer_cake_equals_direct_power_integral(rng, q):
    fields = [
        bump_grid(),
        line_grid(rng.exponential(size=64)),
        line_grid([2.0] * 3 + [0.5] * 9),
    ]
    for g in fields:
        prof = distribution(g)
        direct = lp_norm(g, q) ** q
        assert prof.layer_cake(q) == pytest.approx(direct, rel=1e-12)


def test_layer_cake_of_zero_field():
    prof = distribution(line_grid([0.0, 0.0]))
    assert prof.layer_cake(3.0) == 0.0


def test_level_set_profile_telescoping_by_hand():
    prof = LevelSetProfile(np.array([2.0, 1.0]), np.array([3.0, 5.0]))
    # int 2 h m(h) dh = 3 (4 - 1) + 5 (1 - 0)
    assert prof.layer_cake(2.0) == pytest.approx(14.0, rel=1e-15)
    assert prof.distribution_at(1.5) == 3.0
    assert prof.distribution_at(0.2) == 5.0
    assert prof.distribution_at(2.0) == 0.0
    with pytest.raises(ValueError):
        prof.layer_cake(0.0)


def test_chebyshev_inequality_at_every_sampled_level(rng):
    for _ in range(10):
        g = line_grid(rng.exponential(size=40))
        s6 = lp_norm(g, 6.0) ** 6
        prof = distribution(g)
        for h in prof.levels:
            assert h ** 6 * prof.distribution_at(h) <= s6 * (1 + 1e-12)


def test_l4_interpolation_check_closed_form(rng):
    g = bump_grid()
    M = weak_norm(g, 3.0)
    chk = l4_interpolation_check(g, M, M)
    l6 = lp_norm(g, 6.0)
    assert chk.hypothesis_ok and chk.holds
    assert chk.constant == 6.0
    assert chk.rhs_bound == pytest.approx(6.0 * M ** 2 * l6 ** 2, rel=1e-12)
    assert chk.lhs_l4_integral == pytest.approx(lp_norm(g, 4.0) ** 4, rel=1e-12)
    # an undersized M breaks the hypothesis but is still reported
    weakened = l4_interpolation_check(g, 0.5 * M, M)
    assert not weakened.hypothesis_ok
    with pytest.raises(ValueError):
        l4_interpolation_check(g, 0.0, M)


def test_local_l2_check_closed_form():
    g = bump_grid(n=20)
    ball = Ball((0.0, 0.0, 0.0), 0.6)
    M = weak_norm(g, 3.0)
    chk = local_l2_check(g, ball, M, M)
    assert chk.hypothesis_ok and chk.holds
    r = ball.r
    vb = chk.ball_volume_grid
    assert vb == pytest.approx(np.count_nonzero(ball.mask(g.box))
                               * g.box.cell_volume, rel=1e-12)
    assert chk.rhs_bound == pytest.approx(vb * (M / r) ** 2 + 2 * M ** 2 * r, rel=1e-12)
    assert chk.rhs_continuum == pytest.approx(
        (4 * np.pi / 3 + 2) * M ** 2 * r, rel=1e-12)


def test_checks_take_m_zero_on_the_zero_field():
    # the measured weak-L3 norm of the zero field is 0; both bounds are 0
    g = ScalarGrid(bump_grid().box, np.zeros((16, 16, 16)))
    w = weak_norm(g, 3.0)
    assert w == 0.0
    l4 = l4_interpolation_check(g, w, w)
    l2 = local_l2_check(g, Ball((0.0, 0.0, 0.0), 0.5), w, w)
    for chk in (l4, l2):
        assert chk.rhs_bound == 0.0 and chk.cut_H == 0.0
        assert chk.hypothesis_ok and chk.holds
    assert l4.lhs_l4_integral == 0.0 and l2.lhs_l2_integral == 0.0
    # a nonzero field still needs a positive M
    for check in (lambda f: l4_interpolation_check(f, 0.0, 0.0),
                  lambda f: local_l2_check(f, Ball((0.0, 0.0, 0.0), 0.5), 0.0, 0.0)):
        with pytest.raises(ValueError, match="M must be finite and positive"):
            check(bump_grid())


@pytest.mark.parametrize("M", [1e200, 5e102])
@pytest.mark.parametrize("check, bound", [
    (lambda f, M: l4_interpolation_check(f, M, 1.0),
     "L4 interpolation bound 4 M^3 H + 2 ||f||_6^6 H^-2"),
    (lambda f, M: local_l2_check(f, Ball((0.5, 0.5, 0.5), 0.3), M, 1.0),
     "local L2 bound V_B H^2 + 2 M^3 / H"),
], ids=["l4", "local_l2"])
def test_a_huge_m_is_an_error_naming_m(check, bound, M):
    # at 1e200 M ** 3 raises OverflowError, at 5e102 the bound rounds to inf
    g = ScalarGrid(Box3((0, 0, 0), (1, 1, 1), (4, 4, 4)), np.ones((4, 4, 4)))
    with pytest.raises(ValueError) as err:
        check(g, M)
    assert str(err.value) == f"M = {M:g} overflows the {bound}"


def test_l4_check_with_a_cut_that_squares_to_zero_is_an_error_naming_m():
    # H = ||f||_6^2 / M is 1e-180, so H ** 2 is 0.0 and 2 ||f||_6^6 / H ** 2 divides by 0
    g = ScalarGrid(Box3((0, 0, 0), (1, 1, 1), (4, 4, 4)), np.full((4, 4, 4), 1e-40))
    with pytest.raises(ValueError, match=r"^M = 1e\+100 overflows the L4 interpolation"):
        l4_interpolation_check(g, 1e100, 1.0)


def test_norm_report_bundles_everything():
    g = bump_grid()
    rep = NormReport.from_scalar(g, q=3.0, r=2.0)
    assert rep.ratio == pytest.approx(rep.equivalent_norm / rep.weak_norm, rel=1e-13)
    assert rep.ratio_bound == pytest.approx(np.sqrt(3.0), rel=1e-13)
    assert set(rep.lp_norms) == {2.0, 3.0, 6.0}
    d = asdict(rep)   # the field names are the payload keys
    assert d["weak_norm"] == rep.weak_norm
    zero = NormReport.from_scalar(line_grid([0.0]))
    assert zero.ratio is None


@pytest.mark.parametrize("q, r", [(3.0, 2.0), (4.0, 2.0), (2.5, 1.0)])
def test_norm_report_equals_the_separate_norms(rng, q, r):
    # from_scalar sorts once for both norms; the values are the same bits
    box = Box3((0, 0, 0), (1, 2, 3), (9, 10, 11))
    data = np.round(rng.normal(size=box.n), 1)   # ties and zeros included
    g = ScalarGrid(box, data)
    rep = NormReport.from_scalar(g, q=q, r=r)
    assert rep.weak_norm == weak_norm(g, q)
    assert rep.equivalent_norm == equivalent_norm(g, q, r)
    assert rep.lp_norms == {p: float((np.sum(np.abs(data) ** p) * box.cell_volume)
                                     ** (1.0 / p)) for p in (2.0, 3.0, 6.0)}
    for bad_q, bad_r in ((np.inf, 2.0), (3.0, 3.0)):
        with pytest.raises(ValueError):
            NormReport.from_scalar(g, q=bad_q, r=bad_r)
