"""Dump the numerical outputs of `stokes` and `dyadic.build_chains`, or
compare two dumps bit for bit.

A refactor that promises unchanged floating-point results is checked by
dumping at the parent commit and at the change, then comparing:

    PYTHONPATH=<parent>/src python scripts/golden_outputs.py dump parent.npz
    PYTHONPATH=src python scripts/golden_outputs.py dump change.npz
    PYTHONPATH=src python scripts/golden_outputs.py compare parent.npz change.npz

Arrays are compared with np.array_equal (NaN equal to NaN); scalars and
dicts are stored as JSON, whose float repr round-trips exactly. The
`localize` payload keys `weak_norm_measured` and `hypothesis_ok` are
left out, so dumps from before they existed still compare.
"""

import json
import sys
import warnings

import numpy as np

from regscan.dyadic import localize
from regscan.grid import Box3, Cube, ScalarGrid
from regscan.localquant import AnalysisConfig
from regscan.lorentz import weak_norm
from regscan.stokes import (BumpTestFunction, convective_divergence, estar,
                            harmonic_residual, harmonic_rigidity_check,
                            local_energy_residual, pressure_parts,
                            restrict_to_cube, vector_laplacian)
from regscan.synth import SolverConfig, SpikeSpec, run_solver, spike_field

NEW_PAYLOAD_KEYS = ("weak_norm_measured", "hypothesis_ok")


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


def chain_outputs(out):
    # criterion-05 geometry: two 1/r spikes at 128^3, one per box corner
    n = 128
    box = Box3((0, 0, 0), (1.1, 1.1, 1.1), (n, n, n))
    for axis in ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)):
        spec = SpikeSpec(centers=((0.05, 0.05, 0.05), (1.05, 1.05, 1.05)),
                         amplitudes=(0.125, 0.125), axes=(axis, axis),
                         delta=2.05 * 1.1 / n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # levels 5-6 span < 4 cells
            cs = localize(spike_field(spec, box), AnalysisConfig(eps=0.1), 6,
                          on_underresolved="warn")
        tag = f"localize{axis}"
        payload = {k: v for k, v in cs.to_dict().items()
                   if k not in NEW_PAYLOAD_KEYS}
        out[f"{tag}.payload"] = _js(payload)
        out[f"{tag}.chains"] = _js([[(c.level, [int(v) for v in c.j])
                                     for c in chain] for chain in cs.chains])


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
