"""The runtime needs numpy alone: scipy is a test dependency only.

Each check runs in a fresh interpreter, so modules the test suite has
already imported (scipy among them) cannot hide an import from the
program. The second check blocks scipy outright and runs the CLI
pipeline (simulate from a random start, norms, scan, localize and
stokes-check) plus a resampling rescale, which between them reach every
former scipy call.
"""

import json
import os
import subprocess
import sys

import regscan

SRC = os.path.dirname(os.path.dirname(regscan.__file__))

BLOCKED_PIPELINE = r"""
import json, sys
from pathlib import Path
sys.modules["scipy"] = None   # any scipy import now raises ImportError

import numpy as np
from regscan.cli import main
from regscan.fieldio import read_field
from regscan.grid import Box3
from regscan.localquant import rescale

tmp = Path(sys.argv[1])
(tmp / "run.json").write_text(json.dumps(
    {"n": 32, "dt": 0.1, "t_end": 2.6, "initial": "random", "amplitude": 0.2,
     "save_every": 2}))
field = str(tmp / "run.rsf")
runs = [
    ["simulate", "--config", str(tmp / "run.json"), "--out", field],
    ["norms", field, "--M", "auto"],
    ["scan", field, "--x0", "3.0,3.1,2.9", "--t0", "2.6", "--r", "1.6"],
    ["localize", field, "--eps", "0.1", "--kmax", "1",
     "--on-underresolved", "warn"],
    ["stokes-check", field, "--cube", "1.0,1.0,1.0,3.5"],
]
codes = [main(argv + ["--json"]) for argv in runs]
f = read_field(field)
g = rescale(f, 0.8, (np.full(3, 3.0), 1.0),
            target_box=Box3((2.5,) * 3, (3.5,) * 3, (5, 6, 7)),
            target_times=np.array([0.9, 1.1]))
print(json.dumps({"codes": codes, "rescaled": bool(np.all(np.isfinite(g.frames[1].data))),
                  "scipy": sorted(m for m in sys.modules
                                  if m.startswith("scipy") and sys.modules[m])}))
"""


def run_python(code, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=300)


def test_importing_the_cli_loads_no_scipy():
    proc = run_python("import sys, regscan.cli; "
                      "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_pipeline_runs_with_scipy_blocked(tmp_path):
    proc = run_python(BLOCKED_PIPELINE, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0] * 5, "rescaled": True, "scipy": []}
