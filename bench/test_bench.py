"""Tests of the benchmark harness itself, on its tiny --smoke inputs.

    python3 -m pytest -q bench/test_bench.py

Every workload runs once untraced and once traced; each run must check
out (correct, nothing failed) and report exactly the metrics that
BENCHMARK.json lists for its mode.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run        # noqa: E402
import tracing    # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "end_to_end" if trace == "0" else "per_layer"
    names = {m["name"] for m in SPEC[kind]}
    assert set(result["metrics"]) == names
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    for name, m in result["metrics"].items():
        assert m["unit"] == units[name]
        assert isinstance(m["value"], (int, float))
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "pipeline", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        {"id": 0, "parent": None, "name": "a", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "name": "b", "start": 1.0, "end": 3.0},
        {"id": 2, "parent": 0, "name": "c", "start": 2.0, "end": 4.0},
        {"id": 3, "parent": 2, "name": "d", "start": 2.5, "end": 3.5},
    ]
    ix = tracing.SpanIndex(spans)
    assert ix.self_time(spans[0]) == pytest.approx(7.0)
    assert ix.self_time(spans[2]) == pytest.approx(1.0)
    assert ix.total("a", "b") == pytest.approx(12.0)


def test_payload_comparison_tolerance():
    assert run.same_payload({"x": [1.0, 2, True]}, {"x": [1.0 + 1e-12, 2, True]})
    assert not run.same_payload({"x": 1.0}, {"x": 1.001})
    assert not run.same_payload({"x": 1}, {"y": 1})
    assert not run.same_payload([True], [False])
