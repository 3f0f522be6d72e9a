"""Scaling-invariant local quantities on parabolic cylinders.

All quantities are invariant under the natural scaling
u -> lambda u(x0 + lambda (x - x0), t0 + lambda^2 (t - t0)) about a pivot
z0 = (x0, t0): the cubed-velocity density q3, the single-time level-set
criterion ratio, both sides of the Caccioppoli-type inequality, and the
scaled kinetic energy supremum. Space integrals are cell sums, time
integrals use the trapezoid rule on the piecewise-linear interpolant of
the per-frame integrand.

A cylinder's cell sums run over its ball's index window: the smallest
index box that holds the ball's cells, with the ball's mask on the whole
box sliced to it, and the whole box's cell volume and spacing. So they add
the same values in the same order as whole-box sums, cost the ball, not the
box, and run on a FieldWindow of what check_cylinder names, via grid.frame_cells.
"""

import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np

from .grid import (Box3, Ball, Cylinder, VectorGrid, SpaceTimeField, frame_cells, gradient,
                   nearest_frame)

__all__ = [
    "AnalysisConfig",
    "QuantReport",
    "E16Result",
    "CaccioppoliReport",
    "q3",
    "criterion_e16",
    "caccioppoli_sides",
    "energy_sup",
    "rescale",
    "check_cylinder",
]


@dataclass(frozen=True)
class AnalysisConfig:
    """Thresholds for the regularity diagnostics.

    eps is the level-set criterion parameter (must lie in (0, 1/4));
    zeta is the smallness threshold for q3 (no constructive value is
    available, so it is a configuration default).
    """

    eps: float
    zeta: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.eps < 0.25):
            raise ValueError("eps must lie in (0, 1/4)")
        if not (np.isfinite(self.zeta) and self.zeta > 0):
            raise ValueError(f"zeta must be finite and positive, got {self.zeta}")


def _knots(times, ta, tb):
    """The frames the piecewise-linear interpolant on [ta, tb] reads, from the
    last sample at or before ta to the first at or after tb, and the knots."""
    tol = 1e-9 * max(1.0, abs(ta), abs(tb))
    if ta < times[0] - tol or tb > times[-1] + tol:
        raise ValueError(
            f"time window [{ta}, {tb}] not covered by samples "
            f"[{times[0]}, {times[-1]}]"
        )
    ta = min(max(ta, times[0]), times[-1])
    tb = min(max(tb, times[0]), times[-1])
    if tb <= ta:
        raise ValueError("time window has zero length at the sampled resolution")
    idx = np.arange(np.searchsorted(times, ta, side="right") - 1,
                    np.searchsorted(times, tb, side="left") + 1)
    t = times[idx]
    return idx, np.concatenate([[ta], t[(t > ta) & (t < tb)], [tb]])


def _time_integral(times, values, ta, tb):
    """Integral over [ta, tb] of the piecewise-linear interpolant of a
    per-frame integrand. values(idx) returns the integrand at the frames
    idx; it is asked only for the frames `_knots` names."""
    idx, knots = _knots(times, ta, tb)
    return float(np.trapezoid(np.interp(knots, times[idx], values(idx)), knots))


def _frames_in_window(times, cyl):
    tol = 1e-9 * max(1.0, abs(cyl.t0))
    times = np.asarray(times)
    idx = np.nonzero((times > cyl.t_start - tol) & (times <= cyl.t0 + tol))[0]
    if len(idx) == 0:
        raise ValueError("no frames inside the cylinder time window")
    return idx


def _ball_window(box, times, cyl, min_cells=0):
    """Check the cylinder's window against the sampled times and its ball
    against the box, with a radius of at least min_cells cells; return the
    ball's index window and its cell mask on the window."""
    tol = 1e-9 * max(1.0, abs(cyl.t0))
    if cyl.t_start < times[0] - tol or cyl.t0 > times[-1] + tol:
        raise ValueError("cylinder time window exceeds the sampled range")
    mask = cyl.ball.mask(box)
    if not mask.any():
        raise ValueError("empty region: cylinder ball misses all cell centers")
    if cyl.r < min_cells * max(box.spacing):
        raise ValueError(f"inner cylinder under-resolved: radius {cyl.r} spans "
                         f"fewer than {min_cells} cells")
    win = _window(mask)
    return win, mask[win]


def _window(mask, margin=0, min_cells=1):
    """Index window of a mask's cells: per axis, the slice from its first to
    its last cell, grown by margin cells on each side and clipped to the
    mask, then widened inward where a face of the mask cuts it, to
    min_cells or the whole axis if that is shorter. None for an empty mask."""
    if not mask.any():
        return None
    win = []
    for axis, n in enumerate(mask.shape):
        hit = np.flatnonzero(mask.any(axis=tuple(b for b in range(3) if b != axis)))
        lo, hi = max(int(hit[0]) - margin, 0), min(int(hit[-1]) + 1 + margin, n)
        lo = max(min(lo, hi - min_cells), 0)
        win.append(slice(lo, min(max(hi, lo + min_cells), n)))
    return tuple(win)


def _inner(box, cyl):
    """Q(z0, r/2), its ball's mask and its gradient window: the ball's window
    grown by one cell, so each cell has its whole-box stencil, and at least 3
    cells where a face of the box cuts it (None: the ball holds no cell)."""
    inner = Cylinder(cyl.center, cyl.t0, cyl.r / 2.0)
    mask = inner.ball.mask(box)
    return inner, mask, _window(mask, margin=1, min_cells=3)


def _speed(f, i, win):
    """|u| of frame i on an index window (VectorGrid.magnitude's arithmetic)."""
    u1, u2, u3 = frame_cells(f, i, win)
    return np.sqrt(u1 ** 2 + u2 ** 2 + u3 ** 2)


def check_cylinder(box, times, cyl):
    """Check the cylinder as `quant_report` needs: a time window inside the
    sampled range that holds a frame, a ball on cells and a radius of at
    least 4 cells. It reads only the box and the sample times, so a caller
    holding a file's header can run it before decoding a frame. Returns what
    quant_report reads: the range of frames of the outer time integral (which
    hold the inner one's and the one nearest t0) and of energy_sup, and the
    index window that holds the ball's (e16's too) and the gradient's."""
    times = np.asarray(times)
    win, _ = _ball_window(box, times, cyl, min_cells=4)
    idx = np.union1d(_frames_in_window(times, cyl),
                     _knots(times, cyl.t_start, cyl.t0)[0])
    wins = [w for w in (win, _inner(box, cyl)[2]) if w is not None]
    return range(idx[0], idx[-1] + 1), tuple(
        slice(min(s.start for s in axis), max(s.stop for s in axis)) for axis in zip(*wins))


def q3(f, cyl):
    """r^-2 * integral of |u|^3 over Q(z0, r)."""
    win, mask = _ball_window(f.box, f.times, cyl)
    c = f.box.cell_volume

    def cubes(idx):
        return np.array([np.sum(_speed(f, i, win)[mask] ** 3) * c for i in idx])

    return _time_integral(f.times, cubes, cyl.t_start, cyl.t0) / cyl.r ** 2


@dataclass
class E16Result:
    """Single-time level-set criterion: r^-3 m{x in B : |u| > eps/r} <= eps."""

    ratio: float
    eps: float
    level: float
    passes: bool


def criterion_e16(f, x0, r, eps, i):
    """Evaluate the level-set criterion for one ball on frame i of a field (a
    SpaceTimeField, or a FieldWindow that holds the ball), counted on the
    ball's index window; eps lies in (0, 1/4), as in AnalysisConfig."""
    if not (0.0 < eps < 0.25):
        raise ValueError(f"eps must lie in (0, 1/4), got {eps}")
    level = eps / r
    mask = Ball(x0, r).mask(f.box)
    win = _window(mask)
    if win is None:
        warnings.warn("region contains no cell centers of the sampled box")
    m = 0.0 if win is None else float(
        np.count_nonzero(mask[win] & (_speed(f, i, win) > level)) * f.box.cell_volume)
    ratio = m / r ** 3
    return E16Result(ratio=ratio, eps=float(eps), level=level, passes=ratio <= eps)


@dataclass
class CaccioppoliReport:
    """Both sides of the Caccioppoli-type inequality on Q(z0, r).

    lhs = r^-1 (int_{Q(z0,r/2)} |u|^{10/3})^{3/5} + r^-1 int_{Q(z0,r/2)} |grad u|^2
    rhs = (r^-5 int (int_B |u|^2)^3 dt)^{1/3} + r^-5 int (int_B |u|^2)^3 dt
    with the rhs time integral over the full window of Q(z0, r). When both
    sides vanish the ratio is reported as None (both_zero sentinel).
    """

    lhs: float
    rhs: float
    ratio: float | None
    both_zero: bool
    lhs_terms: tuple
    rhs_terms: tuple


def caccioppoli_sides(f, cyl):
    """Evaluate both sides of the Caccioppoli-type inequality."""
    win, mask_out = _ball_window(f.box, f.times, cyl, min_cells=4)
    r = cyl.r
    inner, mask_in, grad_win = _inner(f.box, cyl)
    c, h = f.box.cell_volume, f.box.spacing
    # the sums run over index windows of the balls (see the module docstring);
    # the inner ball lies in the outer one, so both share the outer window;
    # an empty inner ball takes no gradient
    in_out = mask_in[win]
    in_grad = None if grad_win is None else mask_in[grad_win]
    # int_{B_r} |u|^2 and int_{B_r/2} |u|^{10/3} per frame, from one magnitude,
    # filled while integrating the outer window, whose frames include the inner's
    sums = np.full((len(f.times), 2), np.nan)

    def energy_cubed(idx):
        for i in idx:
            mag = _speed(f, i, win)
            sums[i] = (np.sum(mag[mask_out] ** 2) * c,
                       np.sum(mag[in_out] ** (10.0 / 3.0)) * c)
        return sums[idx, 0] ** 3

    def grad_squared(idx):
        if grad_win is None:
            return np.zeros(len(idx))
        g2 = ((gradient(frame_cells(f, i, grad_win), h) ** 2).sum(axis=(0, 1))
              for i in idx)
        return np.array([np.sum(g[in_grad]) * c for g in g2])

    ie23 = _time_integral(f.times, energy_cubed, cyl.t_start, cyl.t0)
    i103 = _time_integral(f.times, lambda idx: sums[idx, 1], inner.t_start, inner.t0)
    igrad = _time_integral(f.times, grad_squared, inner.t_start, inner.t0)

    lhs1 = i103 ** 0.6 / r
    lhs2 = igrad / r
    rhs1 = (ie23 / r ** 5) ** (1.0 / 3.0)
    rhs2 = ie23 / r ** 5
    lhs = lhs1 + lhs2
    rhs = rhs1 + rhs2
    both_zero = lhs == 0.0 and rhs == 0.0
    ratio = None if both_zero else (lhs / rhs if rhs > 0 else float("inf"))
    return CaccioppoliReport(lhs=lhs, rhs=rhs, ratio=ratio, both_zero=both_zero,
                             lhs_terms=(lhs1, lhs2), rhs_terms=(rhs1, rhs2))


def energy_sup(f, cyl):
    """r^-1 * max over frames in the window of int_{B(x0,r)} |u|^2 dx."""
    win, mask = _ball_window(f.box, f.times, cyl)
    idx = _frames_in_window(f.times, cyl)
    c = f.box.cell_volume
    best = max(float(np.sum(_speed(f, i, win)[mask] ** 2) * c) for i in idx)
    return best / cyl.r


@dataclass
class QuantReport:
    """All local quantities for one cylinder."""

    center: tuple
    t0: float
    r: float
    q3: float
    zeta: float
    q3_small: bool
    e16: E16Result
    caccioppoli: CaccioppoliReport
    energy_sup: float


def quant_report(f, cyl, cfg):
    """Evaluate every local quantity on one cylinder, after `check_cylinder`,
    on a SpaceTimeField or on a FieldWindow of what check_cylinder names."""
    check_cylinder(f.box, f.times, cyl)
    val = q3(f, cyl)
    e16 = criterion_e16(f, cyl.center, cyl.r, cfg.eps, nearest_frame(f.times, cyl.t0))
    cacc = caccioppoli_sides(f, cyl)
    esup = energy_sup(f, cyl)
    return QuantReport(center=cyl.center, t0=cyl.t0, r=cyl.r, q3=val, zeta=cfg.zeta,
                       q3_small=val <= cfg.zeta ** 3, e16=e16, caccioppoli=cacc,
                       energy_sup=esup)


def rescale(f, lam, pivot, target_box=None, target_times=None):
    """Resample the rescaled field lambda*u(x0+lambda(x-x0), t0+lambda^2(t-t0)).

    pivot is (x0, t0). By default the target grid is the pullback of the
    source grid under the scaling map (same cell counts), in which case
    the sample points land exactly on source cell centers and no genuine
    interpolation happens. Any other target box/times are resampled with
    trilinear interpolation in space and linear interpolation in time.
    """
    if lam <= 0:
        raise ValueError("scale factor must be positive")
    x0, t0 = pivot
    x0 = np.asarray(x0, dtype=float)
    src_box = f.box

    if target_box is None:
        lo = x0 + (np.asarray(src_box.lo) - x0) / lam
        hi = x0 + (np.asarray(src_box.hi) - x0) / lam
        target_box = Box3(tuple(lo), tuple(hi), src_box.n)
    if target_times is None:
        target_times = t0 + (f.times - t0) / lam ** 2
    target_times = np.asarray(target_times, dtype=float)

    # forward-map target cell centers into the source box
    sx, sy, sz = (a + lam * (t - a) for a, t in zip(x0, target_box.centers()))
    cs = src_box.centers()
    for axis_pts, axis_src in zip((sx, sy, sz), cs):
        if axis_pts.min() > axis_src[-1] or axis_pts.max() < axis_src[0]:
            raise ValueError("rescaled domain does not intersect the source box")
    # trilinear corners (index, weight) per axis, extrapolating linearly past
    # the outer centers; a one-cell axis is constant
    axes = []
    for p, c in zip((sx, sy, sz), cs):
        i = np.clip(np.searchsorted(c, p, "right") - 1, 0, max(len(c) - 2, 0))
        j = np.minimum(i + 1, len(c) - 1)
        y = (p - c[i]) / (c[j] - c[i]) if len(c) > 1 else np.zeros_like(p)
        axes.append(((i, 1 - y), (j, y)))
    corners = [(np.ix_(ix, iy, iz), (wx[:, None, None] * wy[:, None]) * wz)
               for (ix, wx), (iy, wy), (iz, wz) in product(*axes)]

    def interp_frame(i):
        val = 0.0
        for ind, w in corners:   # summed in RegularGridInterpolator's order
            val = val + f.frames[i].data[(slice(None),) + ind] * w
        return val

    src_t = t0 + lam ** 2 * (target_times - t0)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(f.times))))
    if src_t.min() < f.times[0] - tol or src_t.max() > f.times[-1] + tol:
        raise ValueError("rescaled time range exceeds the sampled times")
    src_t = np.clip(src_t, f.times[0], f.times[-1])

    frames = []
    for s in src_t:
        j = int(np.searchsorted(f.times, s, side="right")) - 1
        j = min(max(j, 0), len(f.times) - 2) if len(f.times) > 1 else 0
        if len(f.times) == 1 or abs(f.times[j] - s) <= tol:
            vals = interp_frame(j)
        else:
            t_lo, t_hi = f.times[j], f.times[j + 1]
            w = (s - t_lo) / (t_hi - t_lo)
            vals = (1 - w) * interp_frame(j) + w * interp_frame(j + 1)
        frames.append(VectorGrid(target_box, lam * vals))
    return SpaceTimeField(target_times, frames)
