"""The command-line pipeline end to end, in a temp directory.

simulate writes a binary field file plus a JSON report; the analysis
commands (norms, scan, localize, stokes-check) read the field back and
emit reports of their own; report validates and summarizes everything
that was produced. Every document carries a manifest with the exact
configuration, a hash of it, and SHA-256 digests of the input files as
hashed while the command ran; simulate's field_sha256 is the digest of
the bytes it wrote.

The same entry points are installed as the `regscan` console script;
main(argv) is called in process here so the demo runs unchanged without
an install step.
"""

import json
import tempfile
from pathlib import Path

from regscan.cli import main


def run(argv):
    print(f"$ regscan {' '.join(argv)}")
    rc = main(argv)
    print(f"  -> exit {rc}\n")
    assert rc == 0


def main_demo():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = tmp / "run.json"
        cfg.write_text(json.dumps(
            {"n": 32, "nu": 0.05, "dt": 0.01, "t_end": 1.0, "save_every": 10}))
        field = tmp / "run.rsf"

        run(["simulate", "--config", str(cfg), "--out", str(field),
             "--report", str(tmp / "simulate.json")])
        run(["norms", str(field), "--M", "auto",
             "--out", str(tmp / "norms.json")])
        run(["scan", str(field), "--x0", "3.14,3.14,3.14",
             "--t0", "1.0", "--r", "1.0", "--out", str(tmp / "scan.json")])
        run(["localize", str(field), "--eps", "0.1", "--kmax", "1",
             "--on-underresolved", "warn",
             "--out", str(tmp / "localize.json")])
        run(["stokes-check", str(field), "--cube", "0.6,0.6,0.6,5.0",
             "--out", str(tmp / "stokes.json")])
        run(["report"] + sorted(str(p) for p in tmp.glob("*.json")
                                if p.name != "run.json"))

        doc = json.loads((tmp / "norms.json").read_text())
        print("manifest of norms.json:")
        print(json.dumps(doc["manifest"], indent=2, sort_keys=True))


if __name__ == "__main__":
    main_demo()
