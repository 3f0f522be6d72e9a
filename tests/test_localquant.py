"""Scaling-invariant cylinder quantities and the parabolic rescaling map.

Closed forms used as oracles: for a field that is constant in space the
ball integrals reduce to the cell-counted ball measure, and a field whose
magnitude grows like t^(1/3) makes |u|^3 linear in time, so the
piecewise-linear time quadrature is exact and q3 has an elementary value.
Trilinear/linear interpolation is exact on fields affine in space and
time, which pins down the resampling branch of rescale to round-off.
"""

from dataclasses import asdict

import numpy as np
import pytest

from regscan.grid import Ball, Box3, Cylinder, SpaceTimeField, VectorGrid, gradient
from regscan.localquant import (
    AnalysisConfig,
    CaccioppoliReport,
    QuantReport,
    _time_integral,
    caccioppoli_sides,
    criterion_e16,
    energy_sup,
    q3,
    quant_report,
    rescale,
)


def unit_box(n=16):
    return Box3((0, 0, 0), (1, 1, 1), (n, n, n))


def uniform_field(box, times, values):
    """|u| = values[i] everywhere at time times[i] (all along the x axis)."""
    frames = [
        VectorGrid(box, np.stack([
            np.full(box.n, v), np.zeros(box.n), np.zeros(box.n)]))
        for v in values
    ]
    return SpaceTimeField(times, frames)


def ball_cells(box, ball):
    return int(np.count_nonzero(ball.mask(box)))


def test_analysis_config_validation():
    AnalysisConfig(eps=0.1)
    for eps in (0.0, 0.25, 0.3, -0.1):
        with pytest.raises(ValueError):
            AnalysisConfig(eps=eps)
    with pytest.raises(ValueError):
        AnalysisConfig(eps=0.1, zeta=0.0)


def test_q3_constant_field_closed_form():
    box = unit_box(20)
    c = 1.3
    f = uniform_field(box, [0.0, 0.1, 0.2], [c, c, c])
    cyl = Cylinder((0.5, 0.5, 0.5), t0=0.2, r=0.3)
    md = ball_cells(box, cyl.ball) * box.cell_volume
    # time window has length r^2, cancelling the r^-2 prefactor
    assert q3(f, cyl) == pytest.approx(c ** 3 * md, rel=1e-12)


def test_q3_time_quadrature_exact_on_linear_cube():
    box = unit_box(12)
    times = np.linspace(0.0, 0.5, 6)
    f = uniform_field(box, times, np.cbrt(times))   # |u|^3 = t
    cyl = Cylinder((0.5, 0.5, 0.5), t0=0.47, r=0.4)
    md = ball_cells(box, cyl.ball) * box.cell_volume
    ta = cyl.t_start
    expected = md * (cyl.t0 ** 2 - ta ** 2) / 2.0 / cyl.r ** 2
    assert q3(f, cyl) == pytest.approx(expected, rel=1e-12)


def test_q3_validates_time_window_and_ball():
    box = unit_box(12)
    f = uniform_field(box, [0.0, 0.1], [1.0, 1.0])
    with pytest.raises(ValueError):
        q3(f, Cylinder((0.5, 0.5, 0.5), t0=0.1, r=0.5))   # window starts at -0.15
    with pytest.raises(ValueError):
        q3(f, Cylinder((3.0, 3.0, 3.0), t0=0.1, r=0.2))   # ball misses the box


def test_criterion_e16_both_directions():
    box = unit_box(24)
    r, eps = 0.25, 0.1
    level = eps / r
    quiet = SpaceTimeField((0.0,), (VectorGrid(box, np.full((3, *box.n),
                                                          0.5 * level / np.sqrt(3))),))
    res = criterion_e16(quiet, (0.5, 0.5, 0.5), r, eps, 0)
    assert res.passes and res.ratio == 0.0 and res.level == pytest.approx(level)
    loud = SpaceTimeField((0.0,), (VectorGrid(box, np.full((3, *box.n), 2.0 * level)),))
    res = criterion_e16(loud, (0.5, 0.5, 0.5), r, eps, 0)
    md = ball_cells(box, Ball((0.5, 0.5, 0.5), r)) * box.cell_volume
    assert not res.passes
    assert res.ratio == pytest.approx(md / r ** 3, rel=1e-12)
    with pytest.raises(ValueError):
        criterion_e16(loud, (0.5, 0.5, 0.5), r, 0.0, 0)


@pytest.mark.parametrize("eps", [np.inf, np.nan, 0.25])
def test_criterion_e16_takes_eps_in_the_analysis_range(eps):
    # eps = inf passed on a field with |u| = 173 everywhere
    box = unit_box(24)
    f = SpaceTimeField((0.0,), (VectorGrid(box, np.full((3, *box.n), 100.0)),))
    with pytest.raises(ValueError, match=r"eps must lie in \(0, 1/4\), got"):
        criterion_e16(f, (0.5, 0.5, 0.5), 0.25, eps, 0)
    with pytest.raises(ValueError, match=r"eps must lie in \(0, 1/4\)"):
        AnalysisConfig(eps)


def test_caccioppoli_constant_field_closed_form():
    box = unit_box(24)
    c = 0.8
    times = np.linspace(0.0, 0.3, 7)
    f = uniform_field(box, times, [c] * 7)
    cyl = Cylinder((0.5, 0.5, 0.5), t0=0.3, r=0.4)
    rep = caccioppoli_sides(f, cyl)
    r = cyl.r
    m_in = ball_cells(box, Ball(cyl.center, r / 2)) * box.cell_volume
    m_out = ball_cells(box, cyl.ball) * box.cell_volume
    i103 = c ** (10.0 / 3.0) * m_in * (r / 2) ** 2
    ie23 = (c ** 2 * m_out) ** 3 * r ** 2
    assert rep.lhs_terms[0] == pytest.approx(i103 ** 0.6 / r, rel=1e-12)
    assert rep.lhs_terms[1] == pytest.approx(0.0, abs=1e-12)   # constant: no gradient
    assert rep.rhs_terms[0] == pytest.approx((ie23 / r ** 5) ** (1 / 3), rel=1e-12)
    assert rep.rhs_terms[1] == pytest.approx(ie23 / r ** 5, rel=1e-12)
    assert rep.ratio == pytest.approx(rep.lhs / rep.rhs, rel=1e-12)
    assert not rep.both_zero


def test_time_integral_reads_only_the_bracketing_frames(rng):
    times = np.cumsum(rng.uniform(0.05, 0.2, size=12))
    values = rng.normal(size=12)
    for _ in range(50):
        ta, tb = np.sort(rng.uniform(times[0], times[-1], size=2))
        if rng.random() < 0.3:   # start on the sample at or before ta
            ta = times[times <= ta][-1]
        seen = []

        def integrand(idx):
            seen.append(idx)
            return values[idx]

        got = _time_integral(times, integrand, ta, tb)
        inside = times[(times > ta) & (times < tb)]
        knots = np.concatenate([[ta], inside, [tb]])
        assert got == float(np.trapezoid(np.interp(knots, times, values), knots))
        (idx,) = seen
        assert times[idx[0]] <= ta < times[idx[1]]
        assert times[idx[-2]] < tb <= times[idx[-1]]


def test_caccioppoli_takes_gradients_only_on_the_inner_window(monkeypatch):
    import regscan.localquant

    box = unit_box(16)
    times = np.linspace(0.0, 0.9, 10)
    f = uniform_field(box, times, 1.0 + times)
    cyl = Cylinder((0.5, 0.5, 0.5), t0=0.9, r=0.5)
    expected = caccioppoli_sides(f, cyl)
    seen, shapes = [], []
    original = regscan.localquant.gradient

    def recording(data, spacing):
        seen.append(next(i for i, fr in enumerate(f.frames)
                         if np.shares_memory(data, fr.data)))
        shapes.append(data.shape)
        return original(data, spacing)

    monkeypatch.setattr(regscan.localquant, "gradient", recording)
    assert caccioppoli_sides(f, cyl) == expected
    # inner window [0.9 - 0.0625, 0.9] is read from the frames at 0.8 and 0.9
    assert seen == [8, 9]
    # in space, from the inner ball's index window and one stencil cell a side
    cells = np.nonzero(Ball(cyl.center, cyl.r / 2).mask(box))
    bound = tuple(int(np.ptp(ix)) + 1 + 2 for ix in cells)
    assert all(s[0] == 3 and all(m <= b for m, b in zip(s[1:], bound))
               for s in shapes)
    assert all(b < m for b, m in zip(bound, box.n))


def test_caccioppoli_zero_field_sentinel():
    box = unit_box(16)
    f = uniform_field(box, [0.0, 0.1], [0.0, 0.0])
    rep = caccioppoli_sides(f, Cylinder((0.5, 0.5, 0.5), t0=0.1, r=0.3))
    assert rep.both_zero and rep.ratio is None
    assert rep.lhs == rep.rhs == 0.0


def test_caccioppoli_requires_resolved_radius():
    box = unit_box(16)
    f = uniform_field(box, [0.0, 0.01], [1.0, 1.0])
    with pytest.raises(ValueError):
        caccioppoli_sides(f, Cylinder((0.5, 0.5, 0.5), t0=0.01, r=0.1))


def test_energy_sup_uses_only_frames_in_window():
    box = unit_box(16)
    times = [0.0, 0.1, 0.2, 0.3]
    f = uniform_field(box, times, [50.0, 1.0, 2.0, 3.0])
    cyl = Cylinder((0.5, 0.5, 0.5), t0=0.3, r=0.35)
    md = ball_cells(box, cyl.ball) * box.cell_volume
    # window (0.3 - 0.1225, 0.3] keeps t in {0.2, 0.3}; the loud frame is out
    assert energy_sup(f, cyl) == pytest.approx(9.0 * md / cyl.r, rel=1e-12)


def test_quant_report_is_consistent_with_parts():
    box = unit_box(20)
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 0.2, 5)
    frames = [VectorGrid(box, rng.normal(size=(3, *box.n)))
              for _ in times]
    f = SpaceTimeField(times, frames)
    cyl = Cylinder((0.5, 0.5, 0.5), t0=0.2, r=0.4)
    cfg = AnalysisConfig(eps=0.1, zeta=2.0)
    rep = quant_report(f, cyl, cfg)
    assert rep.q3 == q3(f, cyl)
    assert rep.energy_sup == energy_sup(f, cyl)
    assert rep.e16.ratio == criterion_e16(f, cyl.center, cyl.r, 0.1, len(f.times) - 1).ratio
    assert rep.caccioppoli.lhs == caccioppoli_sides(f, cyl).lhs
    assert rep.q3_small == (rep.q3 <= cfg.zeta ** 3)
    d = asdict(rep)
    assert d["q3"] == rep.q3 and d["e16"]["ratio"] == rep.e16.ratio


def affine_spacetime(box, times):
    x, y, z = box.center_mesh()

    def frame(t):
        s = 1.0 + 0.5 * t
        return VectorGrid(box, np.stack([
            s * (2 * x - 1.0), s * (y + 3.0), s * (-z)]))

    return SpaceTimeField(times, [frame(t) for t in times])


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_rescale_resampling_exact_on_affine_fields(lam):
    # trilinear interpolation reproduces affine fields exactly, so the
    # resampled rescale must agree with the analytic scaling to round-off
    box = Box3((-1, -1, -1), (1, 1, 1), (10, 10, 10))
    times = np.linspace(0.0, 1.0, 5)
    f = affine_spacetime(box, times)
    x0 = np.array([0.1, -0.2, 0.0])
    t0 = 0.5
    target = Box3((-0.4, -0.4, -0.4), (0.35, 0.4, 0.45), (7, 9, 8))
    target_times = np.array([0.45, 0.5, 0.55])   # maps inside [0, 1] for both lam
    g = rescale(f, lam, (x0, t0), target_box=target, target_times=target_times)
    xt, yt, zt = target.center_mesh()
    for k, t in enumerate(target_times):
        s = 1.0 + 0.5 * (t0 + lam ** 2 * (t - t0))
        sx, sy, sz = (x0[i] + lam * (c - x0[i]) for i, c in enumerate((xt, yt, zt)))
        expected = lam * s * np.stack([2 * sx - 1.0, sy + 3.0, -sz])
        assert np.allclose(g.frames[k].data, expected, rtol=0, atol=1e-12)


def test_rescale_pullback_leaves_quantities_invariant():
    box = Box3((0, 0, 0), (1, 1, 1), (24, 24, 24))
    rng = np.random.default_rng(11)
    times = np.linspace(0.0, 0.3, 6)
    frames = [VectorGrid(box, rng.normal(size=(3, *box.n)))
              for _ in times]
    f = SpaceTimeField(times, frames)
    cyl = Cylinder((0.5, 0.5, 0.5), t0=0.3, r=0.3)
    base = q3(f, cyl)
    for lam in (0.5, 2.0):
        g = rescale(f, lam, (np.array(cyl.center), cyl.t0))
        scaled = q3(g, Cylinder(cyl.center, cyl.t0, cyl.r / lam))
        assert scaled == pytest.approx(base, rel=1e-12)


def scipy_resampled(f, lam, pivot, target, target_times):
    """rescale's resampling with scipy's RegularGridInterpolator per frame."""
    from scipy.interpolate import RegularGridInterpolator

    x0, t0 = pivot
    pts = np.stack(np.meshgrid(*(a + lam * (t - a) for a, t in zip(x0, target.centers())),
                               indexing="ij"), axis=-1).reshape(-1, 3)

    def at(i):
        interp = RegularGridInterpolator(f.box.centers(), np.moveaxis(f.frames[i].data, 0, -1),
                                         bounds_error=False, fill_value=None)
        return interp(pts).T.reshape(3, *target.n)

    out = []
    for t in target_times:
        s = t0 + lam ** 2 * (t - t0)
        j = int(np.searchsorted(f.times, s, side="right")) - 1
        if f.times[j] == s:
            out.append(lam * at(j))
        else:
            w = (s - f.times[j]) / (f.times[j + 1] - f.times[j])
            out.append(lam * ((1 - w) * at(j) + w * at(j + 1)))
    return out


@pytest.mark.parametrize("n, target", [
    ((9, 10, 11), Box3((-0.4, -0.4, -0.4), (0.35, 0.4, 0.45), (7, 9, 8))),
    ((9, 10, 11), Box3((-1.3, -0.2, 0.6), (0.2, 1.4, 1.5), (6, 5, 9))),   # extrapolates
    ((1, 6, 7), Box3((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5), (3, 4, 5))),   # one-cell axis
], ids=["inside", "past-the-edge", "one-cell-axis"])
def test_rescale_resampling_equals_scipy_interpolator(n, target):
    box = Box3((-1, -1, -1), (1, 1, 1), n)
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 1.0, 5)
    f = SpaceTimeField(times, [VectorGrid(box, rng.normal(size=(3, *n)))
                               for _ in times])
    pivot = (np.array([0.1, -0.2, 0.05]), 0.5)
    target_times = np.array([0.3, 0.5, 0.6, 0.75])   # on a frame and between frames
    g = rescale(f, 1.25, pivot, target_box=target, target_times=target_times)
    for got, expect in zip(g.frames, scipy_resampled(f, 1.25, pivot, target, target_times)):
        assert np.array_equal(got.data, expect)


def test_rescale_validation():
    box = unit_box(8)
    f = uniform_field(box, [0.0, 0.1], [1.0, 1.0])
    with pytest.raises(ValueError):
        rescale(f, 0.0, (np.zeros(3), 0.0))
    with pytest.raises(ValueError):    # lam=2 needs source times beyond t=0.4
        rescale(f, 2.0, (np.zeros(3), 0.0), target_times=np.array([0.0, 0.1]))
    far = Box3((10, 10, 10), (11, 11, 11), (8, 8, 8))
    with pytest.raises(ValueError):
        rescale(f, 1.0, (np.zeros(3), 0.0), target_box=far,
                target_times=np.array([0.0, 0.1]))


# -- full-box reference ---------------------------------------------------------
#
# The cylinder quantities as they were computed on the whole box: |u| and the
# velocity gradient of every frame everywhere, then masked to the ball. The
# index-window sums must give the same bits.


def full_box_q3(f, cyl):
    mask = cyl.ball.mask(f.box)
    c = f.box.cell_volume

    def cubes(idx):
        return np.array([np.sum(f.frames[i].magnitude().data[mask] ** 3) * c
                         for i in idx])

    return _time_integral(f.times, cubes, cyl.t_start, cyl.t0) / cyl.r ** 2


def full_box_caccioppoli(f, cyl):
    mask_out = cyl.ball.mask(f.box)
    r = cyl.r
    inner = Cylinder(cyl.center, cyl.t0, r / 2.0)
    mask_in = inner.ball.mask(f.box)
    c = f.box.cell_volume
    sums = np.full((len(f.times), 2), np.nan)

    def energy_cubed(idx):
        for i in idx:
            mag = f.frames[i].magnitude().data
            sums[i] = (np.sum(mag[mask_out] ** 2) * c,
                       np.sum(mag[mask_in] ** (10.0 / 3.0)) * c)
        return sums[idx, 0] ** 3

    def grad_squared(idx):
        g2 = ((gradient(f.frames[i].data, f.box.spacing) ** 2).sum(axis=(0, 1)) for i in idx)
        return np.array([np.sum(g[mask_in]) * c for g in g2])

    ie23 = _time_integral(f.times, energy_cubed, cyl.t_start, cyl.t0)
    i103 = _time_integral(f.times, lambda idx: sums[idx, 1], inner.t_start, inner.t0)
    igrad = _time_integral(f.times, grad_squared, inner.t_start, inner.t0)
    lhs1, lhs2 = i103 ** 0.6 / r, igrad / r
    rhs1, rhs2 = (ie23 / r ** 5) ** (1.0 / 3.0), ie23 / r ** 5
    lhs, rhs = lhs1 + lhs2, rhs1 + rhs2
    both_zero = lhs == 0.0 and rhs == 0.0
    return CaccioppoliReport(
        lhs=lhs, rhs=rhs,
        ratio=None if both_zero else (lhs / rhs if rhs > 0 else float("inf")),
        both_zero=both_zero, lhs_terms=(lhs1, lhs2), rhs_terms=(rhs1, rhs2))


def full_box_energy_sup(f, cyl):
    mask = cyl.ball.mask(f.box)
    c = f.box.cell_volume
    times = f.times
    idx = np.nonzero((times > cyl.t_start - 1e-9) & (times <= cyl.t0 + 1e-9))[0]
    return max(float(np.sum(f.frames[i].magnitude().data[mask] ** 2) * c)
               for i in idx) / cyl.r


TWO_PI_H = 2 * np.pi / 48
R_EDGE = 0.54


@pytest.fixture(scope="module")
def two_pi_field():
    """A seeded random field on the 48^3 cells of [0, 2 pi]^3 at 7 times."""
    box = Box3((0, 0, 0), (2 * np.pi,) * 3, (48,) * 3)
    rng = np.random.default_rng(23)
    times = np.linspace(0.0, 0.3, 7)
    return SpaceTimeField(times, [VectorGrid(box, rng.normal(size=(3, *box.n)))
                                  for _ in times])


@pytest.mark.parametrize("center", [
    (2.3, 4.1, 3.0),                                   # interior
    (0.1, 3.0, 3.0),                                   # crosses the x = 0 face
    (0.05, 6.2, 0.1),                                  # at a corner
    (-0.3, 3.0, 3.0),                                  # centre outside, no inner cell
    (-R_EDGE / 2 + 0.3 * TWO_PI_H, 3.0, 3.0),          # inner ball misses the box
    (-R_EDGE / 2 + 0.6 * TWO_PI_H, 3.0, 3.0),          # inner ball: one-cell sliver
    (2 * np.pi + R_EDGE / 2 - 0.6 * TWO_PI_H, 3.0, 3.0),   # sliver at x = 2 pi
], ids=["interior", "face", "corner", "outside", "inner-empty", "sliver",
        "sliver-high"])
def test_window_sums_equal_full_box_sums(two_pi_field, center):
    f = two_pi_field
    cyl = Cylinder(center, 0.3, R_EDGE)
    cfg = AnalysisConfig(eps=0.1)
    expected = {"q3": full_box_q3(f, cyl),
                "caccioppoli": full_box_caccioppoli(f, cyl),
                "energy_sup": full_box_energy_sup(f, cyl)}
    assert q3(f, cyl) == expected["q3"]
    assert caccioppoli_sides(f, cyl) == expected["caccioppoli"]
    assert energy_sup(f, cyl) == expected["energy_sup"]
    assert quant_report(f, cyl, cfg) == QuantReport(
        center=cyl.center, t0=cyl.t0, r=cyl.r, q3=expected["q3"], zeta=cfg.zeta,
        q3_small=expected["q3"] <= cfg.zeta ** 3,
        e16=criterion_e16(f, cyl.center, cyl.r, cfg.eps, len(f.times) - 1),
        caccioppoli=expected["caccioppoli"], energy_sup=expected["energy_sup"])
