"""Measure one benchmark snapshot of this checkout and write it as JSON.

    python3 tools/bench_snapshot.py BENCH_<n>.json

The snapshot holds, all measured on the same source tree:

- for each workload of BENCHMARK.json, the last line of standard output of
  `perfbench/run.py` with `--trace 0` and with `--trace 1`, plus the host
  factor and the number of passes that run printed, as `tools/pairs.py`
  reads them (read `peak_rss_mb` against the passes: every pass adds its
  operation times to the run's tally);
- the non-blank line count of src/surfcluster/*.py, as `tools/loc.py`
  counts it;
- the wall time and summary line of the tier-1 suite;
- the sha256 of the source files, so the tree it measured can be checked.

Every benchmark run uses seed 1 and 25 s, as the README's benchmark commands
do.  Commands run one at a time from the root of the checkout.  A benchmark run
that exits non-zero or reads `correct: false` stops the snapshot with exit
code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

# tools/loc.py and tools/pairs.py: this script's directory is on sys.path
import loc
import pairs

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "surfcluster").glob("*.py"))
SEED = 1
SECONDS = 25


def _run(cmd) -> str:
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def _tier1() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall, 2), "exit_code": proc.returncode,
            "summary": lines[-1] if lines else ""}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="tools/bench_snapshot.py")
    ap.add_argument("out")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    digest = hashlib.sha256()
    for path in SOURCES:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    head = _run(["git", "rev-parse", "HEAD"]).strip()
    dirty = bool(_run(["git", "status", "--porcelain", "--", "src"]).strip())

    workloads = {}
    for w in bench["workloads"]:
        for trace in (0, 1):
            result = pairs.run_once(ROOT, w["name"], SEED, SECONDS, trace)
            if "error" in result:
                print(f"{w['name']} --trace {trace}: {result['error']}",
                      file=sys.stderr)
                return 1
            workloads.setdefault(w["name"], {})[f"trace{trace}"] = result

    snapshot = {
        "measured_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "source": {"git_head": head, "src_changed_since_head": dirty,
                   "src_sha256": digest.hexdigest()},
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "command": {"seed": SEED, "seconds": SECONDS},
        "src_nonblank_loc": sum(loc.counts_in_tree().values()),
        "tier1": _tier1(),
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(snapshot, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
