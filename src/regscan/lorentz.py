"""Weak-Lebesgue (Lorentz) norms and layer-cake interpolation bounds.

Everything here works on the exact piecewise-constant distribution function
of a sampled field: the super-level set {|f| > h} of a cell-centered field
is a union of cells, so its measure is a cell count times the cell volume
and the usual integral identities hold to rounding error.
"""

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LevelSetProfile",
    "NormReport",
    "distribution",
    "weak_norm",
    "equivalent_norm",
    "lp_norm",
    "l4_interpolation_check",
    "local_l2_check",
    "InterpolationCheck",
    "LocalL2Check",
]


@dataclass
class LevelSetProfile:
    """Exact distribution data of |f|.

    levels: distinct sample magnitudes, descending.
    measures: measures[i] = m{ |f| >= levels[i] }  (the left limit of the
    distribution function at levels[i]).
    """

    levels: np.ndarray
    measures: np.ndarray

    def distribution_at(self, h):
        """m{ |f| > h } (right-continuous distribution function)."""
        if np.isnan(h):
            raise ValueError("distribution level h must not be NaN")
        # levels are descending; values strictly above h are those >= the
        # smallest level exceeding h
        idx = np.searchsorted(-self.levels, -h, side="left") - 1
        return float(self.measures[idx]) if idx >= 0 else 0.0

    def layer_cake(self, q):
        """q * integral of h^(q-1) * m{|f| > h} dh, evaluated exactly.

        m{|f| > h} is constant (= measures[i]) on (levels[i+1], levels[i]),
        so the integral telescopes into sum_i measures[i] *
        (levels[i]^q - levels[i+1]^q) with the final level taken as 0.
        """
        if q <= 0:
            raise ValueError("exponent q must be positive")
        lq = self.levels ** q
        lower = np.append(lq[1:], 0.0)
        return float(np.sum(self.measures * (lq - lower)))


def _sorted_abs(f):
    """|f| as one flat array of its own, sorted ascending in place."""
    vals = np.abs(f.data).ravel()
    vals.sort()
    return vals


def distribution(f):
    """LevelSetProfile of a ScalarGrid (all-zero fields give the single level 0)."""
    asc = _sorted_abs(f)
    levels = np.unique(asc)[::-1]
    # count of samples >= level, via positions in the ascending sort
    counts = len(asc) - np.searchsorted(asc, levels, side="left")
    return LevelSetProfile(levels, counts * f.box.cell_volume)


def weak_norm(f, q):
    """Weak L^q norm sup_h h * m{|f| > h}^(1/q).

    On sampled data the supremum is attained at a left limit of the
    distribution function: with magnitudes sorted descending v_1 >= v_2 >= ...
    it equals max_i v_i * (i * cellvol)^(1/q).
    """
    _check_q(q)
    return _weak_of_desc(_sorted_abs(f)[::-1], f.box.cell_volume, q)


def equivalent_norm(f, q, r):
    """sup over super-level sets E of m(E)^(1/q) * (mean_E |f|^r)^(1/r).

    Taking the top-i cells for every i realizes the supremum over all
    finite-measure sets (any set of measure i*cellvol has r-mean at most
    that of the i largest magnitudes), so prefix sums of the descending
    sort evaluate it exactly.
    """
    _check_qr(q, r)
    return _equivalent_of_desc(_sorted_abs(f)[::-1], f.box.cell_volume, q, r)


def _check_q(q):
    if not (np.isfinite(q) and q > 0):
        raise ValueError(f"exponent q must be finite and positive, got {q}")


def _check_qr(q, r):
    if not (0 < r < q < np.inf):
        raise ValueError(f"need 0 < r < q < inf, got r={r}, q={q}")


def _weak_of_desc(vals, cell_volume, q):
    """weak_norm from the descending magnitudes vals, left as they are."""
    if vals[0] == 0.0:
        return 0.0
    # in place, so the sort's copy and one rank array are all the memory
    ranks = np.arange(1.0, len(vals) + 1)
    ranks *= cell_volume
    ranks **= 1.0 / q
    ranks *= vals
    return float(np.max(ranks))


def _equivalent_of_desc(vals, cell_volume, q, r):
    """equivalent_norm from the descending magnitudes vals, overwritten."""
    if vals[0] == 0.0:
        return 0.0
    k = np.arange(1.0, len(vals) + 1)   # in place below, as in weak_norm
    vals **= r
    np.cumsum(vals, out=vals)   # the prefix sums of |f|^r
    vals /= k
    vals **= 1.0 / r
    k *= cell_volume
    k **= 1.0 / q
    k *= vals
    return float(np.max(k))


def lp_norm(f, p):
    """Plain L^p norm by cell sums."""
    if not (np.isfinite(p) and p > 0):
        raise ValueError(f"exponent p must be finite and positive, got {p}")
    a = np.abs(f.data)
    a **= p   # in place: one temporary, not two
    return float((np.sum(a) * f.box.cell_volume) ** (1.0 / p))


@dataclass
class NormReport:
    """Norm summary for one scalar field."""

    q: float
    r: float
    weak_norm: float
    equivalent_norm: float
    lp_norms: dict
    ratio: float | None = None
    ratio_bound: float = 0.0

    @classmethod
    def from_scalar(cls, f, q=3.0, r=2.0):
        _check_q(q)
        _check_qr(q, r)
        vals = _sorted_abs(f)[::-1]   # one sort serves both norms
        w = _weak_of_desc(vals, f.box.cell_volume, q)
        e = _equivalent_of_desc(vals, f.box.cell_volume, q, r)
        return cls(
            q=float(q),
            r=float(r),
            weak_norm=w,
            equivalent_norm=e,
            lp_norms={p: lp_norm(f, p) for p in (2.0, 3.0, 6.0)},
            ratio=(e / w) if w > 0 else None,
            ratio_bound=float((q / (q - r)) ** (1.0 / r)),
        )


@dataclass
class InterpolationCheck:
    """L^4 bound from splitting the layer cake at H = ||f||_6^2 / M.

    int |f|^4 = 4 int h^3 m{|f|>h} dh
             <= 4 int_0^H M^3 dh + 4 int_H^inf h^-3 ||f||_6^6 dh
              = 4 M^3 H + 2 ||f||_6^6 / H^2            (= 6 M^2 ||f||_6^2 at the cut)
    valid whenever the weak-L^3 norm of f is at most M.
    """

    lhs_l4_integral: float
    rhs_bound: float
    cut_H: float
    M: float
    weak_norm_measured: float
    l6_norm: float
    hypothesis_ok: bool
    holds: bool
    constant: float = 6.0


def _check_m(M, zero):
    if not (np.isfinite(M) and (M > 0 or (M == 0 and zero))):
        raise ValueError(f"M must be finite and positive, got {M}")


def _finite_bound(M, what, bound):
    """bound(), or a ValueError naming M where it overflows a float."""
    try:    # a numpy M rounds to inf (or H^2 to 0), a float M raises
        with np.errstate(over="ignore", divide="ignore"):
            value = bound()
    except (OverflowError, ZeroDivisionError):
        value = np.inf
    if not np.isfinite(value):
        raise ValueError(f"M = {M:g} overflows the {what}")
    return value


def l4_interpolation_check(f, M, w):
    """Check int |f|^4 <= 4 M^3 H + 2 ||f||_6^6 H^-2 at H = ||f||_6^2 / M,
    with the hypothesis checked on w, the measured weak_norm(f, 3); M = 0
    (the zero field's w) is taken when f is zero, and the bound is 0."""
    c = f.box.cell_volume
    a = np.abs(f.data)
    lhs = float(np.sum(a ** 4) * c)
    s6 = float(np.sum(a ** 6) * c)
    l6 = s6 ** (1.0 / 6.0)
    _check_m(M, s6 == 0.0)
    if s6 == 0.0:
        return InterpolationCheck(0.0, 0.0, 0.0, M, w, 0.0, True, True)
    H = l6 ** 2 / M
    rhs = _finite_bound(M, "L4 interpolation bound 4 M^3 H + 2 ||f||_6^6 H^-2",
                        lambda: 4.0 * M ** 3 * H + 2.0 * s6 / H ** 2)
    return InterpolationCheck(
        lhs_l4_integral=lhs, rhs_bound=rhs, cut_H=H, M=float(M), weak_norm_measured=w,
        l6_norm=l6, hypothesis_ok=w <= M * (1 + 1e-12), holds=lhs <= rhs * (1 + 1e-12))


@dataclass
class LocalL2Check:
    """Local L^2 bound from splitting the layer cake at H = M / r.

    int_B |f|^2 = 2 int h m(B cap {|f|>h}) dh
               <= 2 int_0^H h V_B dh + 2 int_H^inf h^-2 M^3 dh
                = V_B H^2 + 2 M^3 / H
    with V_B the cell-exact ball volume, so the chain is exact on the grid
    whenever weak_norm(f, 3) <= M. The continuum constant (4 pi / 3 + 2),
    i.e. V_B -> |B_r|, is reported alongside.
    """

    lhs_l2_integral: float
    rhs_bound: float
    cut_H: float
    M: float
    weak_norm_measured: float
    ball_volume_grid: float
    rhs_continuum: float
    constant_continuum: float
    hypothesis_ok: bool
    holds: bool


def local_l2_check(f, ball, M, w):
    """Check int_{B(x0,r)} |f|^2 <= V_B H^2 + 2 M^3 / H at H = M / r, with
    the hypothesis checked on w, the measured weak_norm(f, 3); M = 0 is
    taken when the lhs is 0, and the bound is its limit 0."""
    mask = ball.mask(f.box)
    c = f.box.cell_volume
    lhs = float(np.sum(f.data[mask] ** 2) * c)
    _check_m(M, lhs == 0.0)
    if not mask.any():
        warnings.warn("ball contains no cell centers of the sampled box")
    vb = float(np.count_nonzero(mask) * c)
    H = M / ball.r
    rhs = _finite_bound(M, "local L2 bound V_B H^2 + 2 M^3 / H",   # 2 M^3 / H = 2 M^2 r
                        lambda: vb * H ** 2 + (2.0 * M ** 3 / H if M > 0 else 0.0))
    cv = 4.0 / 3.0 * np.pi
    return LocalL2Check(
        lhs_l2_integral=lhs, rhs_bound=rhs, cut_H=H, M=float(M), weak_norm_measured=w,
        ball_volume_grid=vb, rhs_continuum=(cv + 2.0) * M ** 2 * ball.r,
        constant_continuum=cv + 2.0, hypothesis_ok=w <= M * (1 + 1e-12),
        holds=lhs <= rhs * (1 + 1e-12))
