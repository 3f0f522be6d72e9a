"""The local pressure projection: manufactured solutions and decomposition.

The projection maps a body force F on a cube G to the pressure gradient
of the zero-boundary Stokes problem -lap v + grad p = F, div v = 0.
Three properties are demonstrated:

* idempotence on gradients: F = grad p comes back as grad p (the
  velocity is zero), up to the discretization error of the staggered
  solve — manufactured pressures make this a measurable error;
* decomposition of a velocity field into harmonic, convective, and
  viscous pressure parts: a rigid rotation has the closed-form
  centrifugal gradient omega^2 (x - c) and an exactly harmonic p_h;
* the harmonic residual of p_h shrinks under grid refinement for
  solenoidal input, the numerical signature of the decomposition
  actually being harmonic.
"""

import numpy as np

from regscan.grid import Box3, VectorGrid
from regscan.stokes import estar, harmonic_residual, pressure_parts


def manufactured(n):
    box = Box3((0, 0, 0), (1, 1, 1), (n, n, n))
    pi = np.pi
    trig = VectorGrid.sample(box, lambda x, y, z: (
        pi * np.cos(pi * x) * np.sin(pi * y) * np.sin(pi * z),
        pi * np.sin(pi * x) * np.cos(pi * y) * np.sin(pi * z),
        pi * np.sin(pi * x) * np.sin(pi * y) * np.cos(pi * z)))
    poly = VectorGrid.sample(box, lambda x, y, z: (
        3 * x ** 2 * y - y * z, x ** 3 - x * z, 2 * z - x * y))
    return {"grad(sin sin sin)": trig, "grad(x^3 y + z^2 - xyz)": poly}


def curl_field(n):
    box = Box3((0, 0, 0), (1, 1, 1), (n, n, n))
    pi = np.pi
    return VectorGrid.sample(box, lambda x, y, z: (
        2 * pi * np.sin(pi * x) * np.cos(2 * pi * y) * np.sin(pi * z),
        pi * np.sin(2 * pi * x) * np.sin(pi * y) * np.cos(pi * z)
        - pi * np.cos(pi * x) * np.sin(2 * pi * y) * np.sin(pi * z),
        -pi * np.sin(2 * pi * x) * np.cos(pi * y) * np.sin(pi * z)))


def rel(a, b):
    return float(np.sqrt(((a - b) ** 2).sum()) / np.sqrt((b ** 2).sum()))


def main():
    print("idempotence on manufactured pressure gradients")
    for n in (32, 64):
        for name, F in manufactured(n).items():
            sol = estar(F)
            print(f"  {n}^3 {name:<24} |estar(F) - F|/|F| = "
                  f"{rel(sol.grad_p.data, F.data):.2e} "
                  f"({sol.iterations} iterations)")

    print("\npressure decomposition of a rigid rotation (omega = 1.7)")
    omega = 1.7
    box = Box3((0, 0, 0), (1, 1, 1), (24, 24, 24))
    u = VectorGrid.sample(box, lambda x, y, z: (
        -omega * (y - 0.5), omega * (x - 0.5), np.zeros_like(z)))
    parts = pressure_parts(u)
    x, y, z = box.center_mesh()
    centrifugal = np.stack([omega ** 2 * (x - 0.5),
                            omega ** 2 * (y - 0.5), np.zeros_like(z)])
    print(f"  grad p1 vs centrifugal closed form: rel err "
          f"{rel(parts.solutions['p1'].grad_p.data, centrifugal):.2e}")
    print(f"  |grad p2| (viscous part, zero for linear fields): "
          f"{np.abs(parts.solutions['p2'].grad_p.data).max():.2e}")
    print(f"  harmonic residual of p_h: "
          f"{harmonic_residual(parts.solutions['ph'], u):.2e}")

    print("\nharmonic residual under refinement (solenoidal curl field)")
    prev = None
    for n in (24, 32, 48, 64):
        v = curl_field(n)
        r = harmonic_residual(pressure_parts(v).solutions["ph"], v)
        note = f"  ({prev / r:.2f}x drop)" if prev else ""
        print(f"  {n}^3: {r:.4e}{note}")
        prev = r


if __name__ == "__main__":
    main()
