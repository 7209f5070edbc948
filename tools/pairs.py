"""Run the benchmark on a git revision and on the working tree in
alternating pairs, and compare their end-to-end metrics.

    python3 tools/pairs.py REV --workload W [--pairs 10] [--seconds 25] \
        [--seed 1001] [--setup-launches 0]
    python3 tools/pairs.py REV --counts [--workload W] [--seed 1001]

REV's committed files are unpacked with `git archive` into a temporary
directory outside the repository, which is removed again in every case.
Pair i runs `perfbench/run.py --trace 0 --seed SEED+i` on both sides, REV
first in even pairs and the working tree first in odd ones.  For each
end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles, the ratio of the medians (tree / REV), the pairs the tree won
in the metric's `better` direction (a tie counts for neither side) and a
verdict (see `verdict`), then each run's pass count and host factor.
With --setup-launches N it then launches `perfbench/run.py --setup-only`
N times per side, alternating, and prints each side's median time from
launch to "ready" (what a `setup_s` probe measures).

With --counts it runs, per workload (W, or every workload of
BENCHMARK.json), one `perfbench/run.py --seconds 0 --trace 1` pass per
side with the same seed, and prints each per-layer `count` or `ratio`
metric whose value differs between the sides; the tracer's own `trace.`
metrics time it and are left out.  It exits 1 if any differs.

Exits 1, after the run's output, as soon as a run exits non-zero or reads
`correct: false`.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One benchmark run at the given trace level: its final JSON object
    plus its pass count and host factor, and "error" with the reason if it
    exited non-zero or read `correct: false`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = {}
    passes = re.search(r"\bpasses (\d+)", proc.stdout)
    record["passes"] = int(passes.group(1)) if passes else None
    factor = re.search(r"\bhost factor ([\d.]+)", proc.stdout)
    record["host_factor"] = float(factor.group(1)) if factor else None
    if proc.returncode or record.get("correct") is not True:
        record["error"] = (f"exit {proc.returncode}\n"
                           + "\n".join(lines[-5:] + [proc.stderr[-2000:]]))
    return record


def launch_setup(tree: Path, workload: str, seed: int) -> float:
    """Seconds from launching `run.py --setup-only` until it prints
    "ready"; raises RuntimeError if it fails."""
    t0 = perf_counter()
    with subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--setup-only"],
            cwd=tree, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
    if proc.returncode or line.strip() != "ready":
        raise RuntimeError(f"{tree}: set-up launch exited {proc.returncode}")
    return elapsed


def _quartiles(values):
    return statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else values * 3


def _spread(values):
    q1, median, q3 = _quartiles(values)
    return f"{median:.6g} ({q1:.6g}-{q3:.6g})", median


def verdict(metric, base, tree) -> str:
    """`worse` when the tree's median is past REV's, in the metric's worse
    direction, by more than its bound times REV's median; `unresolved`
    when REV's quartiles lie further apart than that, unless every tree
    run beats every REV run; `within` otherwise."""
    (q1, median, q3), bound = _quartiles(base), metric["bound"]
    sign = 1 if metric["better"] == "higher" else -1
    if sign * (statistics.median(tree) - median) < -bound * abs(median):
        return "worse"
    if q3 - q1 > bound * abs(median) and \
            min(sign * t for t in tree) <= max(sign * b for b in base):
        return "unresolved"
    return "within"


def summarize(end_to_end, pairs, rev: str = "REV", launches=()):
    """The report lines for (REV record, tree record) pairs and (REV
    seconds, tree seconds) set-up launches."""
    out = [f"{'metric':<12} {'unit':<4} {rev + ' median (q1-q3)':>30} "
           f"{'tree median (q1-q3)':>30} {'ratio':>7} {'won':>6} verdict"]
    for m in end_to_end:
        name = m["name"]
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        tree = [t["metrics"][name]["value"] for _, t in pairs]
        sign = 1 if m["better"] == "higher" else -1
        won = sum(sign * (t - b) > 0 for b, t in zip(base, tree))
        (a, ma), (b, mb) = _spread(base), _spread(tree)
        ratio = f"{mb / ma:.3f}" if ma else "-"
        out.append(f"{name:<12} {m['unit']:<4} {a:>30} {b:>30} {ratio:>7} "
                   f"{won:>3}/{len(pairs)} {verdict(m, base, tree)}")
    for i, side in enumerate((rev, "tree")):
        out.append(f"passes {side}: "
                   + " ".join(str(p[i]["passes"]) for p in pairs)
                   + "; host factors: "
                   + " ".join(str(p[i]["host_factor"]) for p in pairs))
    if launches:
        a, b = (statistics.median(side) for side in zip(*launches))
        out.append(f"setup launches ({len(launches)} per side): {rev} "
                   f"median {a:.4g} s, tree median {b:.4g} s, "
                   f"ratio {b / a:.3f}")
    return out


def count_diffs(rev_tree: Path, tree: Path, workload: str, seed: int,
                per_layer, rev: str = "REV"):
    """The lines for the per-layer count and ratio metrics (save the
    tracer's own) that differ between one traced `--seconds 0` run on each
    side; raises RuntimeError if a run fails."""
    runs = []
    for side in (rev_tree, tree):
        record = run_once(side, workload, seed, 0, 1)
        if "error" in record:
            raise RuntimeError(f"{side} seed {seed}: {record['error']}")
        runs.append(record["metrics"])
    out = []
    for m in per_layer:
        name = m["name"]
        if m["unit"] in ("count", "ratio") and not name.startswith("trace."):
            a, b = (run.get(name, {}).get("value") for run in runs)
            if a != b:
                out.append(f"{workload} {name}: {rev} {a}, tree {b}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev")
    ap.add_argument("--workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--seed", type=int, default=1001)
    ap.add_argument("--setup-launches", type=int, default=0)
    ap.add_argument("--counts", action="store_true")
    args = ap.parse_args(argv)
    if not (args.workload or args.counts):
        ap.error("--workload is required without --counts")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # a terminated run still unwinds: the running benchmark is killed and
    # the temporary directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with tempfile.TemporaryDirectory() as tmp:
        other = Path(tmp) / "rev"
        other.mkdir()
        archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT,
                                 capture_output=True)
        if archive.returncode:
            ap.error(f"cannot check out {args.rev}: "
                     f"{archive.stderr.decode(errors='replace').strip()}")
        subprocess.run(["tar", "-x", "-C", str(other)], input=archive.stdout,
                       check=True)
        if args.counts:
            names = [args.workload] if args.workload else \
                [w["name"] for w in spec["workloads"]]
            try:
                diffs = [line for name in names for line in count_diffs(
                    other, ROOT, name, args.seed, spec["per_layer"],
                    args.rev[:12])]
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
            print("\n".join(diffs) or "no traced count or ratio differs")
            return 1 if diffs else 0
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            sides = [other, ROOT] if i % 2 == 0 else [ROOT, other]
            runs = {}
            for tree in sides:
                record = run_once(tree, args.workload, seed, args.seconds, 0)
                side = args.rev if tree == other else "tree"
                if "error" in record:
                    print(f"{side} seed {seed}: {record['error']}",
                          file=sys.stderr)
                    return 1
                runs[tree] = record
            pairs.append((runs[other], runs[ROOT]))
            print(f"pair {i + 1}/{args.pairs} seed {seed} done",
                  file=sys.stderr, flush=True)
        launches = []
        for i in range(args.setup_launches):
            sides = [other, ROOT] if i % 2 == 0 else [ROOT, other]
            try:
                times = {tree: launch_setup(tree, args.workload, args.seed)
                         for tree in sides}
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
            launches.append((times[other], times[ROOT]))
    print("\n".join(summarize(spec["end_to_end"], pairs, args.rev[:12],
                              launches)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
