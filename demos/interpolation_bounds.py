"""Layer-cake interpolation bounds with explicit constants.

Two inequalities are evaluated on concrete fields, with M set to the
measured weak-L3 norm so the hypothesis is sharp:

* the L4 bound: split the layer cake at H = ||f||_6^2 / M and control
  the low part by L6 interpolation and the tail by the weak-L3 decay,
  giving ||f||_4^4 <= 6 M^2 ||f||_6^2;
* the local L2 bound on a ball: |B|-dependent constant plus the same
  tail trade, int_B |f|^2 <= vol(B) (M/r)^2 + 2 M^2 r.

The demo prints the two sides and the achieved slack on several field
types; the bound is tightest on fields that actually look like the
borderline profile.
"""

import numpy as np

from regscan.grid import Ball, Box3, ScalarGrid
from regscan.lorentz import (
    distribution,
    l4_interpolation_check,
    local_l2_check,
    lp_norm,
    weak_norm,
)
from regscan.synth import SpikeSpec, default_box, random_solenoidal, spike_field


def capped_pole(n, delta=0.125):
    box = Box3((-1, -1, -1), (1, 1, 1), (n, n, n))
    return ScalarGrid.sample(box, lambda x, y, z: 1.0 / np.maximum(
        np.sqrt(x * x + y * y + z * z), delta))


def build_fields():
    rng = np.random.default_rng(5)
    spike = spike_field(
        SpikeSpec(centers=((0.5, 0.5, 0.5),), amplitudes=(0.25,),
                  axes=((0.0, 0.0, 1.0),), delta=0.1),
        Box3((0, 0, 0), (1, 1, 1), (32, 32, 32)))
    return [
        ("capped pole (borderline)", capped_pole(48)),
        ("single spike |u|", spike.magnitude()),
        ("random solenoidal |u|", random_solenoidal(default_box(32), seed=1).magnitude()),
        ("uniform noise", ScalarGrid(Box3((0, 0, 0), (1, 1, 1), (16, 16, 16)),
                                     rng.uniform(0, 2, (16, 16, 16)))),
    ]


def main():
    for name, f in build_fields():
        M = weak_norm(f, 3.0)
        l4 = l4_interpolation_check(f, M, M)
        ball = Ball(tuple(0.5 * (lo + hi) for lo, hi in zip(f.box.lo, f.box.hi)),
                    0.25 * min(f.box.extent))
        l2 = local_l2_check(f, ball, M, M)
        print(f"{name}  (measured M = {M:.4f})")
        print(f"  L4:       {l4.lhs_l4_integral:12.5e} <= {l4.rhs_bound:12.5e}   "
              f"slack x{l4.rhs_bound / max(l4.lhs_l4_integral, 1e-300):.1f}")
        print(f"  local L2: {l2.lhs_l2_integral:12.5e} <= {l2.rhs_bound:12.5e}   "
              f"slack x{l2.rhs_bound / max(l2.lhs_l2_integral, 1e-300):.1f}")

        prof = distribution(f)
        s6 = lp_norm(f, 6.0) ** 6
        worst = float(np.max(prof.levels ** 6 * prof.measures / s6))
        print(f"  Chebyshev h^6 m(h) <= ||f||_6^6 at all "
              f"{len(prof.levels)} levels; tightest ratio {worst:.3f}\n")


if __name__ == "__main__":
    main()
