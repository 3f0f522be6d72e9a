"""regscan benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 28 --trace 0

Runs from the root of a source checkout and uses ``src/`` directly; no
install step. The run sets up the workload's inputs three times (each in
a fresh process; setup_s is the median of those process wall times, so
it includes interpreter start and the import of regscan), then runs one
pass per fresh process until --seconds have passed, at least two passes.
Every operation's output is checked (workloads.py) and compared with
the same operation in the run's first pass.

--trace 0 reports the end-to-end metrics: medians over the untraced
passes. --trace 1 alternates untraced and traced passes and reports the
per-layer metrics (medians over traced passes; counts must repeat
exactly) plus trace.overhead. The last line of stdout is one JSON object
with keys correct, attempted, failed and metrics. --smoke shrinks every
input so the harness's own tests run in seconds.

Work files go to .bench_work/ under the checkout; inputs are deleted at
the end, span files (traces/*.jsonl) and the run context are kept.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracing      # noqa: E402

WORKLOADS = ("pipeline", "energy-balance", "localize-spikes")
SETUP_REPS = 3
MIN_PASSES = 2
BUDGET_S = 170.0            # a run must end within 180 s
COMMANDS = ("simulate", "norms", "scan", "localize", "stokes-check", "energy_balance")
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Every float in a payload must agree with the first pass's payload within
# this relative tolerance (absolute below 1e-12); ints, bools and strings
# must agree exactly.
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12
THREAD_VARS = ("REGSCAN_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")
# BLAS threads default to one per core and spin between calls: on two cores
# they doubled the CPU time of pressure_parts without shortening it, and
# made timings swing with the neighbours' load. Worker processes get one
# BLAS thread unless the caller sets these. REGSCAN_THREADS is left alone.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    for var in BLAS_VARS:
        env.setdefault(var, "1")
    return env


def per_layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


class Run:
    def __init__(self, args):
        self.args = args
        self.size = "smoke" if args.smoke else "full"
        self.started = time.monotonic()
        self.work = os.path.join(ROOT, ".bench_work",
                                 f"{args.workload}-seed{args.seed}-{os.getpid()}")
        self.traces = os.path.join(ROOT, ".bench_work", "traces")
        os.makedirs(self.work)
        os.makedirs(self.traces, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.setup_end = 0.0
        self.repeat_ok = True

    def remaining(self):
        return BUDGET_S - (time.monotonic() - self.started)

    def child(self, role, workdir, tag, trace_path=None):
        """Start one worker process, wait for it; returns (wall seconds, result)."""
        result_path = os.path.join(self.work, f"{tag}.result.json")
        cmd = [sys.executable, os.path.join(BENCH, "worker.py"), role,
               self.args.workload, str(self.args.seed), self.size, workdir,
               result_path] + ([trace_path] if trace_path else [])
        started = time.perf_counter()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, env=child_env(),
                                  timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            self.problems.append(f"{tag}: timed out")
            return time.perf_counter() - started, None
        wall = time.perf_counter() - started
        if proc.returncode != 0 or not os.path.exists(result_path):
            self.problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-2000:]}")
            return wall, None
        with open(result_path) as fh:
            return wall, json.load(fh)

    def setup(self):
        walls, inputs = [], []
        for i in range(SETUP_REPS):
            d = os.path.join(self.work, f"setup{i}")
            os.makedirs(d)
            self.attempted += 1
            wall, res = self.child("setup", d, f"setup{i}")
            if res is None:
                self.failed += 1
                continue
            walls.append(wall)
            inputs.append(res["inputs"])
            if inputs[0] != res["inputs"]:
                self.failed += 1
                self.problems.append(f"setup{i}: inputs differ from setup0 for one seed")
        if not walls:
            return None, walls, {}
        return d, walls, inputs[-1]

    def passes(self, rundir):
        """Untraced passes, or alternating untraced/traced ones with --trace 1."""
        done = []
        traced = self.args.trace == 1
        while True:
            n_t = sum(1 for p in done if p["traced"])
            n_u = len(done) - n_t
            enough = (time.monotonic() - self.started >= self.setup_end + self.args.seconds
                      and n_u >= (1 if traced else MIN_PASSES)
                      and n_t >= (MIN_PASSES if traced else 0))
            last = done[-1]["wall"] if done else 0.0
            if enough or (done and self.remaining() < 1.5 * last):
                return done
            want_trace = traced and len(done) % 2 == 1
            k = len(done)
            trace_path = (os.path.join(self.traces, f"{self.args.workload}-pass{k}.jsonl")
                          if want_trace else None)
            wall, res = self.child("pass", rundir, f"pass{k}", trace_path)
            done.append({"traced": want_trace, "wall": wall, "result": res})

    def score(self, done):
        """Count operations and failures; compare payloads with the first pass."""
        reference = None
        for p in done:
            res = p["result"]
            if res is None:
                self.attempted += 1
                self.failed += 1
                continue
            if reference is None:
                reference = res["ops"]
            if len(res["ops"]) != len(reference):
                self.problems.append("a pass ran a different number of operations")
            for i, op in enumerate(res["ops"]):
                self.attempted += 1
                ok = op["ok"]
                if ok and i < len(reference) and not same_payload(
                        op["payload"], reference[i]["payload"]):
                    ok = False
                    self.problems.append(f"{op['cmd']} #{i}: payload differs from pass 0")
                if not ok:
                    self.failed += 1
                    failing = [k for k, v in op["checks"].items() if not v]
                    last = (op["error"] or "").strip().splitlines()[-1:]
                    self.problems.append(f"{op['cmd']} #{i} failed {failing} {last}")


def same_payload(a, b):
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_payload(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same_payload(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, bool) or isinstance(b, bool):
            return a == b
        return math.isclose(a, b, rel_tol=REFERENCE_RTOL,
                            abs_tol=REFERENCE_ATOL)
    return a == b


def command_seconds(result):
    sums = {}
    for op in result["ops"]:
        sums[op["cmd"]] = sums.get(op["cmd"], 0.0) + op["seconds"]
    return sums


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def context(run, inputs, done):
    ok = [p["result"] for p in done if p["result"] is not None]
    return {
        "workload": run.args.workload,
        "seed": run.args.seed,
        "size": run.size,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "threads_env": {v: child_env().get(v) for v in THREAD_VARS},
        "inputs": inputs,
        "payload_sha256": [op["payload_sha256"] for op in ok[0]["ops"]] if ok else [],
        "src.lines": src_lines(),
    }


def _version(mod):
    try:
        return __import__(mod).__version__
    except ImportError:
        return None


def pass_wall(p):
    return sum(op["seconds"] for op in p["result"]["ops"])


def end_to_end(run, untraced, setup_walls):
    """Print the end-to-end table; return the result's metrics."""
    values = {"wall_s": [pass_wall(p) for p in untraced],
              "setup_s": setup_walls,
              "peak_rss_mb": [p["result"]["rss_mb"] for p in untraced]}
    print(f"{'metric':<18}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}")
    _row("setup_s", "s", values["setup_s"])
    _row("wall_s", "s", values["wall_s"])
    for cmd in COMMANDS:
        secs = [command_seconds(p["result"]).get(cmd) for p in untraced]
        _row(cmd.replace("-", "_") + "_s", "s", [v for v in secs if v is not None])
    _row("peak_rss_mb", "MB", values["peak_rss_mb"])
    print(f"{'error_rate':<18}{'ratio':<7}{run.failed / max(run.attempted, 1):>12.4g}"
          f"{'':>24}{run.attempted:>4}  ({run.failed} failed)")
    return {name: {"value": statistics.median(values[name]), "unit": unit}
            for name, unit in E2E_UNITS.items() if values[name]}


def per_layer(run, traced, untraced, ctx):
    """Per-layer medians over traced passes; counts must repeat exactly."""
    units = per_layer_units()
    metrics = {}
    layers = [p["result"]["layers"] for p in traced]
    for name in units:
        if name in ("trace.overhead", "src.lines") or name.startswith("cmd."):
            continue
        vals = [lay[name] for lay in layers]
        if tracing.is_exact(name) and len(set(vals)) > 1:
            run.repeat_ok = False
            run.problems.append(f"{name} did not repeat across traced passes: {vals}")
        if vals:
            metrics[name] = {"value": statistics.median(vals), "unit": units[name]}
    for cmd in COMMANDS:
        vals = [command_seconds(p["result"]).get(cmd, 0.0) for p in traced]
        if vals:
            metrics["cmd." + cmd.replace("-", "_") + "_s"] = {
                "value": statistics.median(vals), "unit": "s"}
    if traced and untraced:
        metrics["trace.overhead"] = {
            "value": statistics.median(map(pass_wall, traced))
            / statistics.median(map(pass_wall, untraced)) - 1.0,
            "unit": "ratio"}
    metrics["src.lines"] = {"value": ctx["src.lines"], "unit": "lines"}
    print(f"{'metric':<34}{'unit':<7}{'median':>14}{'n':>4}")
    for name, m in metrics.items():
        print(f"{name:<34}{m['unit']:<7}{m['value']:>14.6g}{len(traced):>4}")
    print(f"traced passes {len(traced)}, untraced passes {len(untraced)}; "
          "spans in .bench_work/traces/")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the harness's own tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "regscan", "__init__.py")):
        print(f"regscan sources not found under {ROOT}/src", file=sys.stderr)
        return 2

    run = Run(args)
    try:
        rundir, setup_walls, inputs = run.setup()
        run.setup_end = time.monotonic() - run.started
        done = run.passes(rundir) if rundir else []
        run.score(done)
        ctx = context(run, inputs, done)
        with open(os.path.join(ROOT, ".bench_work",
                               f"context-{args.workload}.json"), "w") as fh:
            json.dump(ctx, fh, sort_keys=True, indent=1)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    ok_passes = [p for p in done if p["result"] is not None]
    untraced = [p for p in ok_passes if not p["traced"]]
    traced = [p for p in ok_passes if p["traced"]]

    print(f"workload {args.workload}  seed {args.seed}  size {run.size}  "
          f"nproc {ctx['nproc']}  python {ctx['python']}  numpy {ctx['numpy']}  "
          f"scipy {ctx['scipy']}  src.lines {ctx['src.lines']}")
    print(f"threads env {ctx['threads_env']}")
    for name, info in ctx["inputs"].items():
        print(f"input {name}: {info['bytes']} B sha256 {info['sha256'][:16]}")
    if args.trace == 0:
        metrics = end_to_end(run, untraced, setup_walls)
        expected = E2E_UNITS
    else:
        metrics = per_layer(run, traced, untraced, ctx)
        expected = per_layer_units()
    print("pass walls (s): " + " ".join(
        f"{'T' if p['traced'] else 'U'}{pass_wall(p):.3f}" for p in ok_passes))
    for line in run.problems:
        print(f"problem: {line}")
    correct = (run.failed == 0 and run.repeat_ok and run.attempted > 0
               and set(metrics) == set(expected))
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0


def _row(name, unit, values):
    if not values:
        print(f"{name:<18}{unit:<7}{'n/a (not run in this workload)':>36}{0:>4}")
        return
    q1, q3 = quartiles(values)
    print(f"{name:<18}{unit:<7}{statistics.median(values):>12.6g}"
          f"{q1:>12.6g}{q3:>12.6g}{len(values):>4}")


if __name__ == "__main__":
    sys.exit(main())
