"""One benchmark process: either set up a workload's inputs or run one pass.

    python3 bench/worker.py setup <workload> <seed> <size> <dir> <result.json>
    python3 bench/worker.py pass <workload> <seed> <size> <dir> <result.json> [trace.jsonl]

run.py starts a fresh process for every setup and every pass, so each
pass pays its own imports outside the timed operations and reports its
own peak RSS. With a trace path the pass records spans (see tracing.py)
and adds the per-layer metrics to its result.
"""

import contextlib
import hashlib
import json
import os
import resource
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import tracing      # noqa: E402
import workloads    # noqa: E402


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class Recorder:
    """Times the operations of one pass and records their checks."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops = []
        self.extra = {"hashed_bytes": 0, "frames_used": 0, "solved_frames": 0,
                      "useful_frames": 0, "levels": {}, "clusters": 0,
                      "fertile": 0, "admitted": 0}

    @contextlib.contextmanager
    def op(self, cmd, cli=False):
        rec = {"cmd": cmd, "ok": True, "error": None, "checks": {},
               "payload": None, "payload_sha256": None}
        span = None
        if self.tracer is not None:
            span = self.tracer.begin(f"cli.{cmd}" if cli else f"op.{cmd}")
        started = time.perf_counter()
        try:
            yield rec
        except Exception:     # a failing operation is counted, not fatal
            rec["error"] = traceback.format_exc(limit=3)
        finally:
            rec["seconds"] = time.perf_counter() - started
            if span is not None:
                self.tracer.end(span)
            self.ops.append(rec)

    def check(self, rec, name, ok):
        rec["checks"][name] = bool(ok)
        rec["ok"] = rec["ok"] and bool(ok)

    def fail(self, rec, name, message):
        rec["checks"][name] = False
        rec["ok"] = False
        rec["error"] = rec["error"] or message

    def payload(self, rec, payload):
        rec["payload"] = json.loads(canonical(payload))
        rec["payload_sha256"] = hashlib.sha256(canonical(payload).encode()).hexdigest()


def do_setup(workload, seed, size):
    import regscan.cli  # noqa: F401  (set-up includes loading the whole program)
    plan = workloads.SETUPS[workload](seed, size)
    with open("plan.json", "w") as fh:
        json.dump(plan, fh, sort_keys=True)
    return {"inputs": {name: {"bytes": os.path.getsize(name),
                              "sha256": sha256_file(name)}
                       for name in sorted(os.listdir(".")) if os.path.isfile(name)}}


def do_pass(workload, trace_path):
    with open("plan.json") as fh:
        plan = json.load(fh)
    tracer = tracing.Tracer() if trace_path else None
    if tracer is not None:
        tracing.install(tracer)
    rec = Recorder(tracer)
    workloads.RUNS[workload](plan, rec)
    result = {"ops": rec.ops,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        extra = dict(rec.extra)
        extra["fertile_ratio"] = (extra["fertile"] / extra["admitted"]
                                  if extra["admitted"] else 0.0)
        result["layers"] = tracing.layer_metrics(tracer.spans, extra)
        tracer.write_jsonl(trace_path, os.path.basename(trace_path))
    return result


def main(argv):
    role, workload, seed, size, workdir, result_path = argv[:6]
    result_path = os.path.abspath(result_path)
    trace_path = os.path.abspath(argv[6]) if len(argv) > 6 else None
    os.chdir(workdir)
    if role == "setup":
        result = do_setup(workload, int(seed), size)
    else:
        result = do_pass(workload, trace_path)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
