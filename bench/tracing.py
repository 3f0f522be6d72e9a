"""Spans for the traced benchmark run, taken from outside the program.

`install()` replaces the public functions of each regscan module (every
plain function in its ``__all__``, plus ``VectorGrid.magnitude`` and
``NormReport.from_scalar``) with wrappers that record one span per call:
name, start, end and the id of the enclosing span. ``scipy.fft.dst`` and
``idst`` are wrapped only as ``regscan.stokes`` sees them. A name bound in
several modules (``read_field`` in both ``fieldio`` and ``cli``) is
replaced everywhere, so calls are seen whichever module makes them.

Spans stay in memory until the pass ends; `write_jsonl` saves them and
`layer_metrics` reduces them to the per-layer metrics of BENCHMARK.json.
"""

import functools
import importlib
import json
import os
import time

import numpy as np

MODULES = ("grid", "lorentz", "localquant", "dyadic", "stokes", "synth",
           "fieldio", "cli")
LEVELS = range(7)
# public functions the CLI calls that their module's __all__ leaves out
UNLISTED = [("localquant", "quant_report")]


class Tracer:
    """In-memory span list with a stack of open spans (single thread)."""

    def __init__(self):
        self.spans = []
        self._open = []

    def begin(self, name):
        span = {"id": len(self.spans),
                "parent": self._open[-1]["id"] if self._open else None,
                "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span):
        span["end"] = time.perf_counter()
        self._open.pop()

    def write_jsonl(self, path, pass_id):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"pass": pass_id, **s}, sort_keys=True) + "\n")


def _wrap(tracer, name, fn, post=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if post is not None:
            post(span, args, kwargs, result)
        return result
    return wrapper


class _Proxy:
    """Attribute view of a module with a few names overridden."""

    def __init__(self, target, overrides):
        self._target = target
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._target, name)


def _read_post(span, args, kwargs, result):
    span["bytes"] = os.path.getsize(args[0])
    span["frames"] = len(result.frames)


def _write_post(span, args, kwargs, result):
    span["bytes"] = os.path.getsize(args[0])


def _dst_post(span, args, kwargs, result):
    span["bytes"] = int(np.asarray(args[0]).nbytes + result.nbytes)


def _estar_post(span, args, kwargs, result):
    span["iterations"] = int(result.iterations)


def _solver_post(span, args, kwargs, result):
    span["steps"] = len(result.step_times) - 1


def _select_post(span, args, kwargs, result):
    span["level"] = int(result.level)


def install(tracer):
    """Wrap the program's public functions for the rest of the process."""
    import scipy
    import scipy.fft

    import regscan
    from regscan.grid import VectorGrid
    from regscan.lorentz import NormReport

    mods = {m: importlib.import_module(f"regscan.{m}") for m in MODULES}
    namespaces = [regscan, *mods.values()]
    posts = {
        "fieldio.read_field": _read_post,
        "fieldio.write_field": _write_post,
        "stokes.estar": _estar_post,
        "synth.run_solver": _solver_post,
        "dyadic.select_f0": _select_post,
        "dyadic.select_fk": _select_post,
    }
    public = [(short, fname) for short, mod in mods.items()
              for fname in getattr(mod, "__all__", ())]
    public += UNLISTED
    for short, fname in public:
        fn = getattr(mods[short], fname)
        if isinstance(fn, type) or not callable(fn):
            continue
        name = f"{short}.{fname}"
        wrapper = _wrap(tracer, name, fn, posts.get(name))
        for ns in namespaces:
            for key, val in list(vars(ns).items()):
                if val is fn:
                    setattr(ns, key, wrapper)

    VectorGrid.magnitude = _wrap(tracer, "grid.magnitude", VectorGrid.magnitude)
    NormReport.from_scalar = classmethod(_wrap(
        tracer, "lorentz.norm_report", NormReport.__dict__["from_scalar"].__func__))
    mods["stokes"].scipy = _Proxy(scipy, {"fft": _Proxy(scipy.fft, {
        "dst": _wrap(tracer, "stokes.dst", scipy.fft.dst, _dst_post),
        "idst": _wrap(tracer, "stokes.dst", scipy.fft.idst, _dst_post),
    })})


# -- reduction of a span list to per-layer metrics ------------------------------


class SpanIndex:
    """Spans of one pass indexed by id, parent and name."""

    def __init__(self, spans):
        self.by_id = {s["id"]: s for s in spans}
        self.kids = {s["id"]: [] for s in spans}
        self.by_name = {}
        for s in spans:
            if s["parent"] is not None:
                self.kids[s["parent"]].append(s)
            self.by_name.setdefault(s["name"], []).append(s)

    def named(self, name):
        return self.by_name.get(name, [])

    def count(self, name):
        return len(self.named(name))

    def outermost(self, name):
        """Spans of one name that have no ancestor of the same name."""
        out = []
        for s in self.named(name):
            p = s["parent"]
            while p is not None and self.by_id[p]["name"] != name:
                p = self.by_id[p]["parent"]
            if p is None:
                out.append(s)
        return out

    def total(self, *names):
        return sum(s["end"] - s["start"] for n in names for s in self.outermost(n))

    def self_time(self, span):
        """Duration minus the part of the interval its child spans cover."""
        covered = 0.0
        edge = span["start"]
        for c in sorted(self.kids[span["id"]], key=lambda c: c["start"]):
            lo, hi = max(c["start"], edge), min(c["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                edge = hi
        return (span["end"] - span["start"]) - covered


def _ratio(num, den):
    return num / den if den else 0.0


# Metrics whose values must repeat exactly from one traced pass to the next.
EXACT_SUFFIXES = ("_calls", "_bytes", "bytes_computed", "cg_iterations",
                  ".selected", ".extended", ".survivors", ".clusters",
                  ".steps", "_ratio")


def is_exact(name):
    return name.endswith(EXACT_SUFFIXES) and name != "trace.overhead"


def layer_metrics(spans, extra):
    """Per-layer metrics of one traced pass.

    `extra` carries what the workload knows about its own operations:
    frames_used (frames the commands need, against frames decoded),
    useful_frames and solved_frames (stokes), hashed_bytes, the dyadic
    level counts, clusters and fertile_ratio.
    """
    ix = SpanIndex(spans)
    m = {}

    m["cli.self_s"] = sum(ix.self_time(s) for s in spans
                          if s["parent"] is None and s["name"].startswith("cli."))
    m["cli.hashed_bytes"] = extra["hashed_bytes"]

    reads = ix.named("fieldio.read_field")
    m["fieldio.read_s"] = ix.total("fieldio.read_field")
    m["fieldio.read_calls"] = len(reads)
    m["fieldio.read_bytes"] = sum(s["bytes"] for s in reads)
    m["fieldio.useful_frame_ratio"] = _ratio(extra["frames_used"],
                                             sum(s["frames"] for s in reads))
    m["fieldio.write_s"] = ix.total("fieldio.write_field")
    m["fieldio.write_bytes"] = sum(s["bytes"] for s in ix.named("fieldio.write_field"))

    m["synth.run_solver_s"] = ix.total("synth.run_solver")
    m["synth.steps"] = sum(s["steps"] for s in ix.named("synth.run_solver"))
    m["synth.step_s"] = _ratio(m["synth.run_solver_s"], m["synth.steps"])

    for short in ("magnitude", "gradient"):
        m[f"grid.{short}_calls"] = ix.count(f"grid.{short}")
        m[f"grid.{short}_s"] = ix.total(f"grid.{short}")

    m["lorentz.weak_norm_calls"] = ix.count("lorentz.weak_norm")
    m["lorentz.weak_norm_s"] = ix.total("lorentz.weak_norm")
    m["lorentz.norm_report_s"] = ix.total("lorentz.norm_report")
    m["lorentz.interpolation_s"] = ix.total("lorentz.l4_interpolation_check",
                                            "lorentz.local_l2_check")

    for short, name in (("quant_report", "quant_report"), ("q3", "q3"),
                        ("e16", "criterion_e16"), ("caccioppoli", "caccioppoli_sides"),
                        ("energy_sup", "energy_sup")):
        m[f"localquant.{short}_s"] = ix.total(f"localquant.{name}")

    selects = ix.named("dyadic.select_f0") + ix.named("dyadic.select_fk")
    m["dyadic.select_f0_s"] = ix.total("dyadic.select_f0")
    m["dyadic.select_fk_s"] = ix.total("dyadic.select_fk")
    m["dyadic.build_chains_s"] = ix.total("dyadic.build_chains")
    m["dyadic.clusters"] = extra["clusters"]
    m["dyadic.fertile_ratio"] = extra["fertile_ratio"]
    for k in LEVELS:
        m[f"dyadic.L{k}.select_s"] = sum(s["end"] - s["start"] for s in selects
                                         if s["level"] == k)
        for key in ("selected", "extended", "survivors"):
            m[f"dyadic.L{k}.{key}"] = extra["levels"].get(k, {}).get(key, 0)

    pp = [s["end"] - s["start"] for s in ix.outermost("stokes.pressure_parts")]
    m["stokes.pressure_parts_s"] = float(sum(pp))
    m["stokes.pressure_parts_s.p90"] = float(np.percentile(pp, 90)) if pp else 0.0
    m["stokes.pressure_parts_calls"] = len(pp)
    m["stokes.estar_s"] = ix.total("stokes.estar")
    m["stokes.estar_calls"] = ix.count("stokes.estar")
    m["stokes.cg_iterations"] = sum(s["iterations"] for s in ix.named("stokes.estar"))
    m["stokes.dst_calls"] = ix.count("stokes.dst")
    m["stokes.dst_s"] = ix.total("stokes.dst")
    m["stokes.dst_bytes_computed"] = sum(s["bytes"] for s in ix.named("stokes.dst"))
    m["stokes.energy_assembly_s"] = sum(
        ix.self_time(s) for s in ix.named("stokes.local_energy_residual"))
    m["stokes.useful_frame_ratio"] = _ratio(extra["useful_frames"],
                                            extra["solved_frames"])
    return m
