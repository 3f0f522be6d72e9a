"""Command-line front end: reproducible pipelines over field files.

Every command emits a Report: a JSON document with the command kind, the
numeric payload, and a RunManifest recording the exact configuration
hash, the SHA-256 of each input file as hashed while the command ran,
tool version, and wall time. Identical manifests imply byte-identical
reports (keys are sorted, floats use repr), so runs are auditable.

Commands: norms, scan, localize, stokes-check, simulate, count-bound,
report.
"""

import argparse
import ctypes
import dataclasses
import hashlib
import json
import sys
import time
import warnings

import numpy as np

from . import __version__, grid
from .dyadic import CountBoundError, count_bound, localize
from .fieldio import FieldFormatError, read_field, read_header, writing_field
from .grid import Ball, Cube, Cylinder, VectorGrid, nearest_frame
from .localquant import AnalysisConfig, check_cylinder, quant_report
from .lorentz import NormReport, l4_interpolation_check, local_l2_check
from .stokes import (
    BumpTestFunction,
    StokesError,
    check_bump,
    cube_slices,
    harmonic_residual,
    local_energy_residual,
    pressure_parts,
    projection_residual,
)
from .synth import SolverConfig, SolverError, default_box, run_solver, save_schedule

SCHEMA_VERSION = 1

try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):    # no glibc: nothing to release
    _malloc_trim = None


def _release_heap():
    """Hand the heap's free pages back to the OS (glibc only).

    glibc raises its mmap threshold to the size of the largest block freed
    so far, so later grid-sized arrays come from the heap, and the holes
    they leave there stay resident. A command run after another in one
    process would then peak higher by an amount that depends on where the
    earlier command's arrays happened to land.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


def _jsonable(obj):
    """Coerce records (keyed by field name), numpy values and containers to JSON."""
    if dataclasses.is_dataclass(obj):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


def _sha256(path):
    digest, buf = hashlib.sha256(), memoryview(bytearray(1 << 20))
    with open(path, "rb") as fh:
        while size := fh.readinto(buf):
            digest.update(buf[:size])
    return digest.hexdigest()


def _manifest(kind, args_dict, digests, outputs, wall):
    config = json.dumps(_jsonable(args_dict), sort_keys=True)
    return {
        "command": kind,
        "config_hash": hashlib.sha256(config.encode()).hexdigest(),
        "config": json.loads(config),
        "inputs": {p: job.result() for p, job in digests.items()},
        "version": __version__,
        "wall_time_s": wall,
        "outputs": list(outputs),
    }


def _floats(text, what, count):
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what} holds a non-numeric value: {text!r}")
    if len(parts) != count:
        raise argparse.ArgumentTypeError(f"{what} needs {count} comma-separated values")
    return parts


def _pick_frame(args):
    """The box and frame times in the field's header, the index of the frame --frame
    or --time picks (else the last), and a payload of that frame and its time."""
    box, times = read_header(args.field)
    if args.time is not None:
        i = nearest_frame(times, args.time)
    else:
        i = len(times) - 1 if args.frame is None else args.frame
        if not 0 <= i < len(times):
            raise ValueError(f"frame {i} out of range")
    return box, times, i, {"frame": i, "time": float(times[i])}


# -- command payloads -----------------------------------------------------------


def cmd_norms(args):
    *_, i, payload = _pick_frame(args)
    mag = read_field(args.field, frames=[i]).frames[0].magnitude()
    report = NormReport.from_scalar(mag)
    payload.update(dataclasses.asdict(report))
    if args.M is not None:
        M = report.weak_norm if args.M == "auto" else float(args.M)
        payload["l4_interpolation"] = l4_interpolation_check(mag, M, report.weak_norm)
        ball = Ball(
            tuple(0.5 * (lo + hi) for lo, hi in zip(mag.box.lo, mag.box.hi)),
            0.25 * min(mag.box.extent),
        )
        payload["local_l2"] = local_l2_check(mag, ball, M, report.weak_norm)
    return "norms", payload


def cmd_scan(args):
    cfg = AnalysisConfig(eps=args.eps, zeta=args.zeta)
    cyl = Cylinder(center=args.x0, t0=args.t0, r=args.r)
    frames, window = check_cylinder(*read_header(args.field), cyl)   # before any read
    field = read_field(args.field, frames, window)   # only what the quantities read
    return "scan", quant_report(field, cyl, cfg)


def cmd_localize(args):
    *_, i, payload = _pick_frame(args)
    cfg = AnalysisConfig(eps=args.eps)
    M = None if args.M == "auto" else float(args.M)
    cs = localize(
        read_field(args.field, frames=[i]).frames[0],
        cfg,
        args.kmax,
        M=M,
        on_underresolved=args.on_underresolved,
    )
    payload.update(cs.to_dict())
    return "localize", payload


def cmd_stokes_check(args):
    if not (np.isfinite(args.nu) and args.nu > 0):
        raise ValueError(f"--nu must be finite and positive, got {args.nu}")
    phi = (None if args.bump is None
           else BumpTestFunction(tuple(args.bump[:3]), *args.bump[3:]))
    box, times, i, payload = _pick_frame(args)
    cube = Cube(corner=tuple(args.cube[:3]), side=args.cube[3])
    try:
        slices, sub_box = cube_slices(box, cube)     # before any frame is decoded
    except ValueError as exc:
        raise ValueError(f"--cube: {exc}") from None
    if phi is not None:
        check_bump(box, times, cube, phi)
    # the projection reads frame i, the energy balance every frame
    keep = [i] if phi is None else list(range(len(times)))
    field = read_field(args.field, keep, slices)   # only the cube of each
    u = VectorGrid(sub_box, field.frames[keep.index(i)])
    parts = pressure_parts(u)
    sol_h = parts.solutions["ph"]
    unorm = float(np.sqrt((u.data ** 2).sum()))
    payload.update({
        "cube": {"corner": list(cube.corner), "side": cube.side},
        "cube_analysed": {"corner": list(sub_box.lo), "side": sub_box.extent[0],
                          "cells": list(sub_box.n)},
        "iterations": {k: s.iterations for k, s in parts.solutions.items()},
        "residuals": {k: s.residuals for k, s in parts.solutions.items()},
        "harmonic_residual": harmonic_residual(sol_h, u),
        "projection_residual": projection_residual(sol_h),
        "gradp_over_f": (
            float(np.sqrt((sol_h.grad_p.data ** 2).sum())) / unorm
            if unorm > 0 else 0.0
        ),
    })
    if phi is not None:
        payload["energy"] = local_energy_residual(field, cube, phi, nu=args.nu,
                                                  pressures={keep.index(i): parts})
    return "stokes", payload


def cmd_simulate(args):
    with open(args.config) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"invalid config: expected a JSON object, got {raw!r:.40}")
    known = {f.name for f in dataclasses.fields(SolverConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    try:
        cfg = SolverConfig(**raw)
    except TypeError as exc:
        raise ValueError(f"invalid config: {exc}") from exc
    times = save_schedule(cfg)[1]
    digest = hashlib.sha256()   # of the bytes written, updated in file order on the worker
    with writing_field(args.out, default_box(cfg.n), times,
                       lambda buf: grid._submit(digest.update, buf)) as put:
        run = run_solver(cfg, save=put)   # each saved frame goes to the file
    payload = {
        "config": cfg,
        "frames": len(times),
        "energy_initial": float(run.energy[0]),
        "energy_final": float(run.energy[-1]),
        "energy_balance_residual": run.energy_balance_residual(),
        "max_cfl": float(run.cfl.max()),
        "field": args.out,
        "field_sha256": grid._submit(digest.hexdigest).result(),   # after every update
    }
    return "simulate", payload


def cmd_count_bound(args):
    bound = count_bound(args.M, args.eps)
    payload = {"M": args.M, "eps": args.eps, "bound": bound}
    if bound == int(bound):
        payload["bound_int"] = int(bound)
    return "count-bound", payload


def cmd_report(args):
    ok = True
    for path in args.reports:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: a report must be a JSON object")
        if doc.get("schema_version") != SCHEMA_VERSION:
            print(f"{path}: unsupported schema {doc.get('schema_version')}")
            ok = False
            continue
        man, payload = doc.get("manifest", {}), doc.get("payload", {})
        if not (isinstance(man, dict) and isinstance(payload, dict)):
            raise ValueError(f"{path}: manifest and payload must be JSON objects")
        print(f"{path}: kind={doc.get('kind')} version={man.get('version')} "
              f"config={str(man.get('config_hash', ''))[:12]}")
        for key, val in sorted(payload.items()):
            if isinstance(val, (int, float, str, bool)):
                print(f"  {key} = {val}")
    if not ok:
        raise ValueError("one or more reports failed validation")
    return None


# -- argument parsing -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises on a malformed command line, for main to report as JSON."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _build_parser():
    parser = _Parser(
        prog="regscan",
        description="local regularity analysis of discretized velocity fields",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="print the full JSON report")
        p.add_argument("--out", dest="report_out",
                       help="write the JSON report to this path")

    def frame(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--frame", type=int)
        group.add_argument("--time", type=float)

    p = sub.add_parser("norms", help="weak-L3, equivalent and Lp norms of |u|")
    p.add_argument("field")
    frame(p)
    p.add_argument("--M", help="'auto' or a number: also run the "
                   "interpolation checks against this weak-norm bound")
    common(p)
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("scan", help="scaling-invariant quantities on a cylinder")
    p.add_argument("field")
    p.add_argument("--x0", type=lambda s: _floats(s, "--x0", 3), required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--zeta", type=float, default=1.0)
    common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("localize", help="nested-cube singularity localization")
    p.add_argument("field")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--kmax", type=int, default=4)
    p.add_argument("--M", default="auto")
    p.add_argument("--on-underresolved", choices=("error", "warn"),
                   default="error", dest="on_underresolved")
    frame(p)
    common(p)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("stokes-check", help="pressure projection diagnostics")
    p.add_argument("field")
    p.add_argument("--cube", type=lambda s: _floats(s, "--cube", 4),
                   required=True, metavar="X,Y,Z,SIDE")
    frame(p)
    p.add_argument("--bump", type=lambda s: _floats(s, "--bump", 6),
                   metavar="CX,CY,CZ,R,T_CENTER,T_RADIUS",
                   help="test function for the local energy balance")
    p.add_argument("--nu", type=float, default=1.0,
                   help="viscosity the field evolved under (energy balance)")
    common(p)
    p.set_defaults(func=cmd_stokes_check)

    p = sub.add_parser("simulate", help="run the periodic solver")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output field file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--report", dest="report_out",
                   help="write the JSON report to this path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("count-bound", help="candidate-count bound")
    p.add_argument("--M", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    common(p)
    p.set_defaults(func=cmd_count_bound)

    p = sub.add_parser("report", help="validate and summarize saved reports")
    p.add_argument("reports", nargs="+")
    p.set_defaults(func=cmd_report)

    return parser


_SUMMARY_KEYS = {
    "norms": ("weak_norm", "equivalent_norm", "ratio", "ratio_bound"),
    "scan": ("q3", "q3_small", "energy_sup"),
    "localize": ("n_clusters", "regular", "M", "bound"),
    "stokes": ("harmonic_residual", "projection_residual"),
    "simulate": ("frames", "energy_balance_residual", "max_cfl"),
    "count-bound": ("bound",),
}


def _fail(exc, caught):   # one stderr line, with the run's warnings inside
    err = {"error": str(exc), "type": type(exc).__name__}
    if caught:
        err["warnings"] = [str(w.message) for w in caught]
    print(json.dumps(err), file=sys.stderr)
    return 1


def _document(args, started, result, digests):
    """A command's JSON document and its text, written to --out if given."""
    kind, payload = result
    wall = time.perf_counter() - started
    outputs = [p for p in (args.report_out, getattr(args, "out", None)) if p]
    arg_items = {
        k: v for k, v in vars(args).items()
        if k not in ("func", "json", "out", "report_out") and v is not None
    }
    doc = {
        "kind": kind,
        "schema_version": SCHEMA_VERSION,
        "payload": _jsonable(payload),
        "manifest": _manifest(kind, arg_items, digests, outputs, wall),
    }
    try:    # strict JSON: a bound beyond a float is an error, not "Infinity"
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise ValueError(f"the {kind} report holds a number beyond a float") from None
    if args.report_out:
        with open(args.report_out, "w") as fh:
            fh.write(text + "\n")
    return doc, text


def main(argv=None):
    with warnings.catch_warnings(record=True) as caught:
        try:
            args = _build_parser().parse_args(argv)
            started = time.perf_counter()
            digests = {p: grid._submit(_sha256, p) for p in
                       (getattr(args, k, None) for k in ("field", "config")) if p}
            result = args.func(args)
            report = None if result is None else _document(args, started, result, digests)
        except (argparse.ArgumentError, FieldFormatError, SolverError, StokesError,
                CountBoundError, ValueError, OverflowError, OSError) as exc:
            return _fail(exc, caught)
        finally:   # a job queued behind every digest of the command ends after them
            grid._submit(lambda: None).result()
            _release_heap()
    for w in caught:   # a successful command shows its warnings as raised
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    if report is None:                      # report command prints directly
        return 0
    doc, text = report
    if args.json:
        print(text)
    else:
        print(f"regscan {doc['kind']}")
        for key in _SUMMARY_KEYS.get(doc["kind"], ()):
            if key in doc["payload"]:
                print(f"  {key} = {doc['payload'][key]}")
        if args.report_out:
            print(f"  report written to {args.report_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
