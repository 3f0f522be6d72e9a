"""Dump the numerical outputs of `stokes` and `dyadic.localize`, or
compare two dumps bit for bit.

A refactor that promises unchanged floating-point results is checked by
dumping at the parent commit and at the change, then comparing:

    PYTHONPATH=<parent>/src python scripts/golden_outputs.py dump parent.npz
    PYTHONPATH=src python scripts/golden_outputs.py dump change.npz
    PYTHONPATH=src python scripts/golden_outputs.py compare parent.npz change.npz

Arrays are compared with np.array_equal (NaN equal to NaN); scalars and
dicts are stored as JSON, whose float repr round-trips exactly. Each
`localize` run dumps its whole `to_dict()` payload, its chains, its
clusters as sorted offset lists and the per-level F and G offsets.
"""

import json
import sys
import warnings

import numpy as np

from regscan.dyadic import localize
from regscan.grid import Box3, Cube, ScalarGrid, VectorGrid
from regscan.localquant import AnalysisConfig
from regscan.lorentz import weak_norm
from regscan.stokes import (BumpTestFunction, convective_divergence, estar,
                            harmonic_residual, harmonic_rigidity_check,
                            local_energy_residual, pressure_parts,
                            restrict_to_cube, vector_laplacian)
from regscan.synth import SolverConfig, SpikeSpec, run_solver, spike_field

def _js(obj):
    return np.array(json.dumps(obj, sort_keys=True, default=float))


def _solution(out, name, sol):
    out[f"{name}.p"] = sol.p.data
    out[f"{name}.v"] = sol.v.stack()
    out[f"{name}.grad_p"] = sol.grad_p.stack()
    out[f"{name}.residuals"] = _js(sol.residuals)
    out[f"{name}.residual_history"] = np.asarray(sol.residual_history)


def stokes_outputs(out):
    run = run_solver(SolverConfig(n=32, nu=0.05, dt=0.01, t_end=0.3,
                                  save_every=3))
    field = run.field
    cube = Cube((0.6, 0.6, 0.6), 5.0)
    pressures = [pressure_parts(restrict_to_cube(fr, cube))
                 for fr in field.frames]
    u = restrict_to_cube(field.frames[5], cube)
    lp = pressures[5]
    for key, sol in lp.solutions.items():
        _solution(out, key, sol)
    _solution(out, "estar(ph)", estar(lp.solutions["ph"]))
    out["harmonic_residual"] = _js(harmonic_residual(lp.solutions["ph"], u))
    out["vector_laplacian"] = vector_laplacian(u).stack()
    out["convective_divergence"] = convective_divergence(u).stack()

    phi = BumpTestFunction((np.pi, np.pi, np.pi), 1.8, 0.21, 0.15)
    out["local_energy_residual"] = _js(local_energy_residual(
        field, cube, phi, nu=0.05, pressures=pressures))
    mesh = u.box.center_mesh()
    out["bump.grad"] = phi.grad(mesh, 0.2)
    out["bump.laplacian"] = phi.laplacian(mesh, 0.2)

    box = Box3((-1, -1, -1), (1, 1, 1), (48, 48, 48))
    g = ScalarGrid.sample(box, lambda x, y, z: 1.0 / np.maximum(
        np.sqrt((x - 0.1) ** 2 + y * y + z * z), 0.2) + 0.3 * x - 0.2 * y)
    out["harmonic_rigidity_check"] = _js(harmonic_rigidity_check(
        g, np.linspace(0.3, 0.9, 7), M=weak_norm(g, 3.0)))


def _localize_outputs(out, tag, frame, eps, k_max, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # deep levels span < 4 cells
        cs = localize(frame, AnalysisConfig(eps=eps), k_max,
                      on_underresolved="warn", **kw)
    out[f"{tag}.payload"] = _js(cs.to_dict())
    out[f"{tag}.chains"] = _js([[(c.level, [int(v) for v in c.j])
                                 for c in chain] for chain in cs.chains])
    # a cluster is a list of DyadicCube or an (m, 3) offset array
    out[f"{tag}.clusters"] = _js([sorted([int(v) for v in getattr(c, "j", c)]
                                         for c in cl) for cl in cs.clusters])
    for fam in cs.families:
        out[f"{tag}.L{fam.level}.F"] = fam.F_indices
        out[f"{tag}.L{fam.level}.G"] = fam.G_indices


def chain_outputs(out):
    # criterion-05 geometry: two 1/r spikes at 128^3, one per box corner,
    # rotating alike about either axis, or counter-rotating
    n = 128
    box = Box3((0, 0, 0), (1.1, 1.1, 1.1), (n, n, n))
    for axes in (((0.0, 0.0, 1.0),) * 2, ((1.0, 0.0, 0.0),) * 2,
                 ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0))):
        spec = SpikeSpec(centers=((0.05, 0.05, 0.05), (1.05, 1.05, 1.05)),
                         amplitudes=(0.125, 0.125), axes=axes,
                         delta=2.05 * 1.1 / n)
        frame = spike_field(spec, box)
        _localize_outputs(out, f"localize{axes}", frame, 0.1, 6)
    # the counter-rotating pair again, with a shape factor and a user-given M
    _localize_outputs(out, "localize(shape1.3,M0.9)", frame, 0.1, 4,
                      M=0.9, eps_shape_factor=1.3)

    # one spike at 48^3: measured M, a shape factor, a user-given M
    box = Box3((0, 0, 0), (1, 1, 1), (48, 48, 48))
    spec = SpikeSpec(centers=[(0.5, 0.5, 0.5)], amplitudes=[0.125],
                     axes=[(0, 0, 1)], delta=0.05)
    frame = spike_field(spec, box)
    _localize_outputs(out, "spike", frame, 0.1, 3)
    _localize_outputs(out, "spike(shape1.3)", frame, 0.1, 3,
                      eps_shape_factor=1.3)
    _localize_outputs(out, "spike(M2)", frame, 0.1, 3, M=2.0)
    _localize_outputs(out, "zero", VectorGrid.from_array(
        box, np.zeros((3, 48, 48, 48))), 0.1, 2, M=1.0)

    # dense regime: every level-0 cube of the 2*pi box is selected
    run = run_solver(SolverConfig(n=48, nu=0.02, dt=0.01, t_end=0.3,
                                  save_every=30, initial="random", seed=1,
                                  amplitude=0.5))
    frame = run.field.frames[-1]
    _localize_outputs(out, "dense(eps0.1)", frame, 0.1, 0)
    _localize_outputs(out, "dense(eps0.2)", frame, 0.2, 1)
    _localize_outputs(out, "dense(eps0.2,shape1.1)", frame, 0.2, 0,
                      eps_shape_factor=1.1)


def compare(a_path, b_path):
    a, b = np.load(a_path), np.load(b_path)
    bad = sorted(set(a.files) ^ set(b.files))
    for key in sorted(set(a.files) & set(b.files)):
        x, y = a[key], b[key]
        nan_ok = x.dtype.kind == "f" and y.dtype.kind == "f"
        if not np.array_equal(x, y, equal_nan=nan_ok):
            bad.append(key)
    for key in bad:
        print(f"DIFFERS  {key}")
    print(f"{len(a.files)} outputs compared, {len(bad)} differ")
    return 1 if bad else 0


def main(argv):
    if len(argv) == 2 and argv[0] == "dump":
        out = {}
        stokes_outputs(out)
        chain_outputs(out)
        np.savez(argv[1], **out)
        print(f"{len(out)} outputs written to {argv[1]}")
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
