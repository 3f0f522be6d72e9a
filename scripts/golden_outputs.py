"""Dump the numerical outputs of `stokes`, `dyadic.localize`, the dyadic
meet-relation clustering and key expansion, the CLI
pipeline path (`run_solver`, field I/O, the cylinder quantities), the
weak-norm layer (`lorentz` and the region masks) and the CLI reports, or
compare two dumps bit for bit.

A refactor that promises unchanged floating-point results is checked by
dumping at the parent commit and at the change, then comparing:

    PYTHONPATH=<parent>/src python scripts/golden_outputs.py dump parent.npz
    PYTHONPATH=src python scripts/golden_outputs.py dump change.npz
    PYTHONPATH=src python scripts/golden_outputs.py compare parent.npz change.npz

Arrays are compared with np.array_equal (NaN equal to NaN); scalars and
dicts are stored as JSON, whose float repr round-trips exactly. The 23
outputs of the Stokes projection (the pressure triple, `estar` reapplied
to p_h, `estar` of a random forcing on 17 x 20 x 23 cells,
`harmonic_residual`, and `local_energy_residual` on the run and on its
first 9 frames, so up to an earlier time s) are compared to
rtol=1e-10, atol=1e-12 after JSON parsing, with equal shapes, so equal
Schur CG iteration counts; the largest difference of each is printed. Each
`localize` run dumps its `to_dict()` payload, its chains as lists of
per-level lattice offsets, its cluster sizes and its clusters as sorted
offset lists, and the per-level F and G offsets; each run passes the one
eps it selects at. The clusters section dumps the
`_cluster_labels` partition of seeded random offset sets, a broken filament
and 8000 isolated offsets, with labels renumbered by first appearance, so a
change of label numbering alone compares equal. The spread section dumps
the `_spread` keys of a dense level-0 selection of a seeded random field
for the dilation, child and parent bounds, with and without a cover, on
sorted and on shuffled keys with repeats. The pipeline
section dumps solver frames and histories (a random start at n=48, a
Taylor-Green run whose last step is off the save schedule, and a random
start at odd n=27, whose retained block of modes has no Nyquist plane),
the SHA-256 of the
written field file, the read-back frames with their memory layout, the
non-finite read and write errors, every cylinder quantity on windows that
start between frames, on a frame, and end before the last frame, and on
balls the box cuts (across a face, at a corner, centred outside the box
with an inner ball that holds no cell, twice, and with an inner ball one
cell thick at a face), and both
forms of `rescale`. The Lorentz section dumps, for a 48^3 spike, a seeded
random field, a field with many ties and zeros, and the zero field: the
`NormReport` at (q, r) = (3, 2), (4, 2) and (2.5, 1), the `distribution`
levels and measures, `l4_interpolation_check` and `local_l2_check` at the
measured weak-L^3 norm M and at M/2 (1 and 1/2 for the zero field), and
`region_measure` on balls and cubes off the cell lattice, whose `mask`s
it dumps too (the checks are given the measured norm).
The CLI section runs `simulate` on a random start at n=27 whose last step
is off the save schedule, dumping the written file's SHA-256 and the
payload without the output path, then writes a seeded 24^3 random run to
the same temporary directory and runs `norms --M auto`, `norms --M 0.5`, `scan`,
`localize`, `stokes-check --bump`, `stokes-check --frame 2` (no bump, so
one decoded frame) and `count-bound` on it in process, with relative paths,
dumping each report's whole payload and `config_hash`, and dumps the exit code
and JSON error of `norms --frame 0` on a copy whose last frame holds a NaN,
which every frame's finiteness check must still catch. These are compared
exactly, the `stokes-check` payloads too, since a report is promised byte
for byte.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings

import numpy as np

from regscan import cli, dyadic
from regscan.dyadic import localize
from regscan.fieldio import FieldFormatError, read_field, write_field
from regscan.grid import (Ball, Box3, Cube, Cylinder, ScalarGrid,
                          SpaceTimeField, VectorGrid, region_measure)
from regscan.localquant import (AnalysisConfig, caccioppoli_sides, energy_sup,
                                q3, quant_report, rescale)
from regscan.lorentz import (NormReport, distribution, l4_interpolation_check,
                             local_l2_check, weak_norm)
from regscan.stokes import (BumpTestFunction, convective_divergence, estar,
                            harmonic_residual, harmonic_rigidity_check,
                            local_energy_residual, pressure_parts,
                            restrict_to_cube, vector_laplacian)
from regscan.synth import (SolverConfig, SpikeSpec, default_box,
                           random_solenoidal, run_solver, spike_field)


def _js(obj):
    return np.array(json.dumps(obj, sort_keys=True, default=float))


def _solution(out, name, sol):
    out[f"{name}.p"] = sol.p.data
    out[f"{name}.grad_p"] = sol.grad_p.data
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
    # odd and unequal cell counts on a cubic box, with a random forcing
    n = (17, 20, 23)
    forcing = np.random.default_rng(23).normal(size=(3,) + n)
    _solution(out, "estar(17,20,23)", estar(VectorGrid(
        Box3((0, 0, 0), (1, 1, 1), n), forcing)))
    out["harmonic_residual"] = _js(harmonic_residual(lp.solutions["ph"], u))
    out["vector_laplacian"] = vector_laplacian(u).data
    out["convective_divergence"] = convective_divergence(u).data

    phi = BumpTestFunction((np.pi, np.pi, np.pi), 1.8, 0.21, 0.15)
    out["local_energy_residual"] = _js(local_energy_residual(
        field, cube, phi, nu=0.05, pressures=pressures))
    out["local_energy_residual(9 frames)"] = _js(local_energy_residual(
        SpaceTimeField(field.times[:9], field.frames[:9]), cube, phi, nu=0.05,
        pressures=pressures[:9]))
    _, out["bump.grad"], out["bump.laplacian"], _ = phi._at(u.box.center_mesh())(0.2)

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
    out[f"{tag}.chains"] = _js(cs.chains.tolist())
    out[f"{tag}.cluster_sizes"] = _js([len(cl) for cl in cs.clusters])
    out[f"{tag}.clusters"] = _js([sorted([int(v) for v in c] for c in cl)
                                  for cl in cs.clusters])
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
    # the counter-rotating pair again, at another eps and a user-given M
    _localize_outputs(out, "localize(eps0.13,M0.9)", frame, 0.13, 4, M=0.9)

    # one spike at 48^3: measured M, another eps, a user-given M
    box = Box3((0, 0, 0), (1, 1, 1), (48, 48, 48))
    spec = SpikeSpec(centers=[(0.5, 0.5, 0.5)], amplitudes=[0.125],
                     axes=[(0, 0, 1)], delta=0.05)
    frame = spike_field(spec, box)
    _localize_outputs(out, "spike", frame, 0.1, 3)
    _localize_outputs(out, "spike(eps0.13)", frame, 0.13, 3)
    _localize_outputs(out, "spike(M2)", frame, 0.1, 3, M=2.0)
    _localize_outputs(out, "zero", VectorGrid(
        box, np.zeros((3, 48, 48, 48))), 0.1, 2, M=1.0)

    # dense regime: every level-0 cube of the 2*pi box is selected
    run = run_solver(SolverConfig(n=48, nu=0.02, dt=0.01, t_end=0.3,
                                  save_every=30, initial="random", seed=1,
                                  amplitude=0.5))
    frame = run.field.frames[-1]
    _localize_outputs(out, "dense(eps0.1)", frame, 0.1, 0)
    _localize_outputs(out, "dense(eps0.2)", frame, 0.2, 1)
    _localize_outputs(out, "dense(eps0.22)", frame, 0.22, 0)


def _partition(labels):
    """Labels renumbered 0, 1, ... in order of first appearance."""
    _, first, inverse = np.unique(labels, return_index=True,
                                  return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def cluster_outputs(out):
    rng = np.random.default_rng(5)
    sets = {}
    for dm in (1, 2, 4, 9):
        for i in range(20):
            n = int(rng.integers(1, 80))
            j = rng.integers(-6 * dm, 6 * dm, size=(n, 3))
            sets[f"random(dm{dm})[{i}]"] = (np.unique(j, axis=0), dm)
    # a thickened helix-like filament cut into three pieces by gaps of 100
    t = np.arange(900)
    path = np.stack([t, np.round(20 * np.sin(t / 40)),
                     np.round(20 * np.cos(t / 55))], axis=1).astype(np.int64)
    path = path[(t // 100) % 3 != 2]
    sets["filament(dm9)"] = (np.unique(np.concatenate(
        [path, path + (0, 1, 0), path + (0, 0, 1)]), axis=0), 9)

    # 8000 offsets at least 15 apart at dm=9: one cluster each
    grid = 20 * np.stack(np.meshgrid(*[np.arange(20)] * 3, indexing="ij"),
                         axis=-1).reshape(-1, 3)
    sets["isolated8000"] = (grid + rng.integers(0, 6, size=grid.shape), 9)
    for tag, (j, dm) in sets.items():
        out[f"clusters.{tag}"] = _partition(dyadic._cluster_labels(
            dyadic._pack(j), dm))


def spread_outputs(out):
    frame = random_solenoidal(default_box(48), seed=3, rms=0.5)
    rng = np.random.default_rng(11)
    # the dilation, child and parent bounds at eps 0.2 (dm 4, span 5)
    keys = dyadic.select_f0(frame.magnitude(), 0.2).F_keys
    shuffled = rng.permutation(np.concatenate([keys[::7], keys[::11]]))
    dm, span = 4, 5
    bounds = {"dilation": (lambda j: (j - dm, j + dm), 0),
              "children": (lambda j: (2 * j, 2 * j + span), 1),
              "parents": (lambda j: ((j - span + 1) // 2, j // 2), -1)}
    for tag, (b, level) in bounds.items():
        for name, k in (("sorted", keys), ("shuffled", shuffled)):
            out[f"spread.{tag}.{name}"] = dyadic._spread(k, b)
            if level >= 0:
                cover = dyadic._cover_ranges(level, 0.2, frame.box)
                out[f"spread.{tag}.{name}(cover)"] = dyadic._spread(k, b, cover)


def _run_outputs(out, tag, cfg):
    run = run_solver(cfg)
    out[f"{tag}.times"] = run.field.times
    out[f"{tag}.frames"] = np.stack([fr.data for fr in run.field.frames])
    out[f"{tag}.step_times"] = run.step_times
    out[f"{tag}.energy"] = run.energy
    out[f"{tag}.dissipation"] = run.dissipation
    out[f"{tag}.cfl"] = run.cfl
    return run.field


def _error(fn):
    try:
        fn()
    except FieldFormatError as exc:
        return [str(exc), exc.offset]
    return None


def _fieldio_outputs(out, field, tmp):
    path = os.path.join(tmp, "run.rsf")
    write_field(path, field)
    with open(path, "rb") as fh:
        raw = fh.read()
    out["write_field.sha256"] = _js(hashlib.sha256(raw).hexdigest())
    back = read_field(path)
    out["read_field.times"] = back.times
    out["read_field.frames"] = np.stack([fr.data for fr in back.frames])
    out["read_field.layout"] = _js(sorted({
        (c.dtype.str, c.flags.c_contiguous, c.flags.writeable)
        for fr in back.frames for c in fr.data}))
    # one non-finite value in frame 2, component 1, voxel (5, 7, 11)
    n = field.box.n
    cells = n[0] * n[1] * n[2]
    flat = (2 * 3 + 1) * cells + 5 + n[0] * (7 + n[1] * 11)
    bad = np.frombuffer(raw, dtype="<f8", offset=len(raw) - 8 * 3 * cells
                        * len(field.times)).copy()
    bad[flat] = np.nan
    bad_path = os.path.join(tmp, "bad.rsf")
    with open(bad_path, "wb") as fh:
        fh.write(raw[:len(raw) - bad.nbytes] + bad.tobytes())
    out["read_field.nonfinite"] = _js(_error(lambda: read_field(bad_path)))
    arr = field.frames[1].data.copy()   # the frame itself stays finite
    arr[2, 3, 4, 5] = np.inf
    one = VectorGrid(field.box, arr)
    out["write_field.nonfinite"] = _js(_error(
        lambda: write_field(os.path.join(tmp, "inf.rsf"), one)))
    out["write_field.nonfinite.written"] = _js(
        os.path.exists(os.path.join(tmp, "inf.rsf")))


def _cylinder_outputs(out, tag, f, cyl, eps=0.1):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # t0 need not be a sample time
        out[f"{tag}.quant_report"] = _js(dataclasses.asdict(quant_report(
            f, cyl, AnalysisConfig(eps=eps))))
    out[f"{tag}.q3"] = _js(q3(f, cyl))
    out[f"{tag}.caccioppoli"] = _js(dataclasses.asdict(caccioppoli_sides(f, cyl)))
    out[f"{tag}.energy_sup"] = _js(energy_sup(f, cyl))


def _rescale_outputs(out, tag, f):
    x0 = (3.0, 3.2, 2.9)
    pull = rescale(f, 1.7, (x0, f.times[-2]))
    out[f"{tag}.pullback.times"] = pull.times
    out[f"{tag}.pullback.frames"] = np.stack([fr.data for fr in pull.frames])
    box = Box3((2.1, 2.5, 2.0), (3.9, 4.0, 3.7), (20, 17, 23))
    times = np.linspace(f.times[1] + 0.003, f.times[-1], 5)
    res = rescale(f, 0.8, (x0, f.times[3]), target_box=box,
                  target_times=times)
    out[f"{tag}.resampled.frames"] = np.stack([fr.data for fr in res.frames])


def pipeline_outputs(out):
    # the pipeline workload's simulate: random start, one frame per step
    field = _run_outputs(out, "run_solver(random)", SolverConfig(
        n=48, nu=0.02, dt=0.01, t_end=0.3, save_every=1, initial="random",
        seed=7, amplitude=0.5))
    # Taylor-Green with a last step off the save schedule
    _run_outputs(out, "run_solver(tg)", SolverConfig(
        n=32, nu=0.05, dt=0.01, t_end=0.22, save_every=4))
    # odd n: the retained 2/3 block of modes has no Nyquist plane
    _run_outputs(out, "run_solver(random,n27)", SolverConfig(
        n=27, nu=0.02, dt=0.01, t_end=0.05, save_every=2, initial="random",
        seed=5, amplitude=0.7))
    with tempfile.TemporaryDirectory() as tmp:
        _fieldio_outputs(out, field, tmp)

    # the pipeline's scan cylinders (windows start between frames)
    for i, x0 in enumerate(((2.3, 4.1, 3.0), (1.2, 1.9, 5.0), (3.1, 3.1, 3.1))):
        _cylinder_outputs(out, f"scan{i}", field, Cylinder(x0, 0.3, 0.54))
    # balls the box cuts: index windows that stop at a face of the box
    h, r = field.box.spacing[0], 0.54
    for tag, x0 in (("face", (0.1, 3.0, 3.0)),
                    ("corner", (0.05, 6.2, 0.1)),
                    ("outside", (-0.3, 3.0, 3.0)),      # inner ball holds no cell
                    ("inner_empty", (-r / 2 + 0.3 * h, 3.0, 3.0)),
                    ("sliver", (-r / 2 + 0.6 * h, 3.0, 3.0))):  # inner: one x layer
        _cylinder_outputs(out, f"edge.{tag}", field, Cylinder(x0, 0.3, r))
    # the same frames at binary times i/16, so windows can start on a frame
    binary = SpaceTimeField(np.arange(len(field.times)) / 16.0, field.frames)
    x0 = (3.0, 3.4, 2.8)
    for tag, t0, r in (("on_frame", 30 / 16, 1.0),
                       ("between", 30 / 16, 0.54),
                       ("ends_early", 20 / 16, 0.8),
                       ("ends_early_on_frame", 26 / 16, 1.0)):
        _cylinder_outputs(out, tag, binary, Cylinder(x0, t0, r))
    _rescale_outputs(out, "rescale", SpaceTimeField(
        field.times[20:27], field.frames[20:27]))


def lorentz_outputs(out):
    box = Box3((0, 0, 0), (1, 1, 1), (48, 48, 48))
    spec = SpikeSpec(centers=[(0.5, 0.5, 0.5)], amplitudes=[0.125],
                     axes=[(0, 0, 1)], delta=0.05)
    rng = np.random.default_rng(29)
    fields = {"spike": spike_field(spec, box).magnitude(),
              "random": ScalarGrid(box, rng.standard_normal(box.n)),
              "ties": ScalarGrid(box, 0.25 * rng.integers(-3, 4, size=box.n)),
              "zero": ScalarGrid(box, np.zeros(box.n))}
    # corners and radii off the 1/48 lattice; one cube leaves the box
    regions = {"ball": Ball((0.43, 0.51, 0.58), 0.27),
               "ball_corner": Ball((0.97, 0.02, 0.5), 0.31),
               "cube": Cube((0.123, 0.2, 0.31), 0.417),
               "cube_out": Cube((0.7, -0.1, 0.55), 0.6)}
    for name, region in regions.items():
        out[f"lorentz.mask({name})"] = region.mask(box)
    for tag, f in fields.items():
        for q, r in ((3.0, 2.0), (4.0, 2.0), (2.5, 1.0)):
            out[f"lorentz.{tag}.norms(q{q},r{r})"] = _js(
                dataclasses.asdict(NormReport.from_scalar(f, q, r)))
        prof = distribution(f)
        out[f"lorentz.{tag}.levels"] = prof.levels
        out[f"lorentz.{tag}.measures"] = prof.measures
        w = weak_norm(f, 3.0)
        M = w or 1.0
        for m_tag, m in (("M", M), ("M/2", 0.5 * M)):
            out[f"lorentz.{tag}.l4_interpolation({m_tag})"] = _js(
                dataclasses.asdict(l4_interpolation_check(f, m, w)))
            out[f"lorentz.{tag}.local_l2({m_tag})"] = _js(
                dataclasses.asdict(local_l2_check(f, regions["ball"], m, w)))
        for name, region in regions.items():
            out[f"lorentz.{tag}.region_measure({name})"] = _js(
                [region_measure(f, region, h) for h in (0.0, 0.1 * M, M)])


CLI_COMMANDS = {
    "norms(M=auto)": ["norms", "run.rsf", "--M", "auto", "--frame", "3"],
    "norms(M=0.5)": ["norms", "run.rsf", "--M", "0.5", "--time", "1.2"],
    "scan": ["scan", "run.rsf", "--x0", "3.1,2.9,3.3", "--t0", "2.7",
             "--r", "1.2", "--eps", "0.2"],
    "localize": ["localize", "run.rsf", "--eps", "0.2", "--kmax", "1",
                 "--frame", "5", "--on-underresolved", "warn"],
    "stokes-check": ["stokes-check", "run.rsf", "--cube", "0.8,0.8,0.8,4.5",
                     "--bump", "3.0,3.1,2.9,1.5,1.5,0.9", "--nu", "0.05"],
    "stokes-check(frame=2)": ["stokes-check", "run.rsf", "--cube", "0.8,0.8,0.8,4.5",
                              "--frame", "2"],
    "count-bound": ["count-bound", "--M", "2.0", "--eps", "0.1"],
}


# a random start at odd n whose last step is off the save schedule
SIMULATE_CONFIG = {"n": 27, "nu": 0.02, "dt": 0.01, "t_end": 0.22, "save_every": 4,
                   "initial": "random", "seed": 5, "amplitude": 0.7}


def _simulate_outputs(out):
    """`simulate` in process: the written file's SHA-256 and the payload
    without the output path (its SHA-256 is the file's)."""
    with open("sim.json", "w") as fh:
        json.dump(SIMULATE_CONFIG, fh)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["simulate", "--config", "sim.json", "--out", "sim.rsf",
                       "--report", "report.json"])
    if rc != 0:
        raise RuntimeError(f"regscan simulate exited {rc}")
    with open("sim.rsf", "rb") as fh:
        out["cli.simulate.sha256"] = _js(hashlib.sha256(fh.read()).hexdigest())
    with open("report.json") as fh:
        doc = json.load(fh)
    out["cli.simulate.payload"] = _js({k: v for k, v in doc["payload"].items()
                                      if k != "field"})
    out["cli.simulate.config_hash"] = _js(doc["manifest"]["config_hash"])


def cli_outputs(out):
    # paths are relative to one temporary directory, so config hashes
    # do not depend on where it is
    run = run_solver(SolverConfig(n=24, nu=0.05, dt=0.02, t_end=3.0,
                                  save_every=15, initial="random", seed=13,
                                  amplitude=1.5))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            _simulate_outputs(out)
            write_field("run.rsf", run.field)
            for tag, argv in CLI_COMMANDS.items():
                with contextlib.redirect_stdout(io.StringIO()), \
                        warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # under-resolved levels
                    rc = cli.main(argv + ["--out", "report.json"])
                if rc != 0:
                    raise RuntimeError(f"regscan {' '.join(argv)} exited {rc}")
                with open("report.json") as fh:
                    doc = json.load(fh)
                out[f"cli.{tag}.payload"] = _js(doc["payload"])
                out[f"cli.{tag}.config_hash"] = _js(doc["manifest"]["config_hash"])
            # a NaN as the last value of the last frame fails a read of frame 0
            with open("run.rsf", "rb") as fh:
                raw = fh.read()
            with open("nan.rsf", "wb") as fh:
                fh.write(raw[:-8] + np.array([np.nan], "<f8").tobytes())
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(["norms", "nan.rsf", "--frame", "0"])
            out["cli.norms(nan in last frame).error"] = _js(
                [rc, json.loads(err.getvalue())])
        finally:
            os.chdir(cwd)


# the projection's outputs; their basis transforms are BLAS products, so
# rounding may move within the tolerance but CG iteration counts may not
SOLVER_OUTPUTS = {f"{name}.{part}"
                  for name in ("ph", "p1", "p2", "estar(ph)", "estar(17,20,23)")
                  for part in ("p", "grad_p", "residuals",
                               "residual_history")}
SOLVER_OUTPUTS |= {"harmonic_residual", "local_energy_residual",
                   "local_energy_residual(9 frames)"}
RTOL, ATOL = 1e-10, 1e-12


def _leaves(obj, path=""):
    """A JSON value as {dotted key path: number}."""
    if isinstance(obj, dict):
        return {k: v for key, sub in obj.items()
                for k, v in _leaves(sub, f"{path}.{key}").items()}
    return {path: obj}


def _numeric(x):
    """Key paths and float array of an output; JSON scalars parsed first."""
    if x.dtype.kind != "U":
        return None, np.asarray(x, dtype=float)
    leaves = _leaves(json.loads(str(x)))
    keys = sorted(leaves)
    return keys, np.array([leaves[k] for k in keys], dtype=float)


def _close(x, y):
    """Equal shapes (so equal iteration counts) and np.allclose, with a note
    of the largest absolute difference."""
    (kx, x), (ky, y) = _numeric(x), _numeric(y)
    if kx != ky or x.shape != y.shape:
        return False, f"shapes {x.shape} and {y.shape} (or JSON keys) differ"
    diff = float(np.abs(x - y).max()) if x.size else 0.0
    scale = float(np.abs(x).max()) if x.size else 0.0
    ok = bool(np.allclose(y, x, rtol=RTOL, atol=ATOL))
    return ok, f"max |diff| {diff:.3g} at scale {scale:.3g}"


def compare(a_path, b_path):
    a, b = np.load(a_path), np.load(b_path)
    bad = sorted(set(a.files) ^ set(b.files))
    for key in sorted(set(a.files) & set(b.files)):
        x, y = a[key], b[key]
        if key in SOLVER_OUTPUTS:
            ok, note = _close(x, y)
            print(f"{'within' if ok else 'OUTSIDE'}  {key}  {note}")
            if not ok:
                bad.append(key)
            continue
        nan_ok = x.dtype.kind == "f" and y.dtype.kind == "f"
        if not np.array_equal(x, y, equal_nan=nan_ok):
            bad.append(key)
    for key in bad:
        print(f"DIFFERS  {key}")
    tolerant = len(SOLVER_OUTPUTS & set(a.files))
    print(f"{len(a.files)} outputs compared ({tolerant} solver outputs to "
          f"rtol={RTOL:g}, atol={ATOL:g}; the rest exactly), {len(bad)} differ")
    return 1 if bad else 0


def main(argv):
    if len(argv) == 2 and argv[0] == "dump":
        out = {}
        stokes_outputs(out)
        chain_outputs(out)
        cluster_outputs(out)
        spread_outputs(out)
        pipeline_outputs(out)
        lorentz_outputs(out)
        cli_outputs(out)
        np.savez(argv[1], **out)
        print(f"{len(out)} outputs written to {argv[1]}")
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
