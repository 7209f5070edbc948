"""surfcluster benchmark.

    python3 perfbench/run.py --workload sweep|long_arcs|mutation \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
./src, never from an installed copy.  The seed shuffles item order and
draws the random flip walks; everything else is fixed (see workloads.py).

A pass runs every item of the workload once.  Passes repeat until --seconds
have gone by (at least MIN_PASSES).  Every output is checked against
expected.json; a wrong output counts as a failed item and makes the exit
code 1.  Human-readable lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.

Host speed.  On a shared host, load from other tenants slows pure-Python
code by up to 2x in spells of seconds to minutes (CPU time tracks wall time,
so it is not scheduling).  Between items, at most every CALIBRATE_EVERY_S,
the run times a fixed pure-Python reference loop that does not touch
surfcluster.  The run's host factor is the loop's median time divided by
REFERENCE_LOOP_S, its median time on the machine BASELINE.md was measured
on.  Times below are divided by that factor: they are seconds at the
reference host speed.  The raw measured values are printed as well.

End-to-end metrics (--trace 0):
  setup_s      median of SETUP_PROBES fresh processes, each timed from launch
               through imports, input generation and fixture parse (raw)
  wall_s       one pass: the sum over items of each item's median time over
               the run's passes
  ops_per_s    operations per pass / wall_s (an operation is an expansion
               on sweep and long_arcs, a mutation step on mutation)
  op_p50_ms, op_p99_ms   latency percentiles over the operations of a pass,
               each operation's time being its median over the passes
  peak_rss_mb  peak resident set size of the measuring process

--trace 1 adds one traced pass after the untraced ones and reports the
per-layer metrics of tracing.py instead (raw seconds).  In that pass each
item runs untraced and traced, back to back, and trace.overhead_frac is the
ratio of the two sums minus 1.  Spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MIN_PASSES = 3
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
CALIBRATE_EVERY_S = 0.1
REFERENCE_LOOP_S = 0.005


def _parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "long_arcs", "mutation"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)  # used by the set-up probes
    return ap.parse_args(argv)


def _build(args):
    import workloads
    return workloads.WORKLOADS[args.workload](random.Random(args.seed),
                                              workloads.load_expected())


def _probe_setup(args):
    """Seconds from launching a fresh interpreter until it has built the
    workload (imports, input generation, fixture parse)."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-only"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def _reference_loop():
    """Seconds for a fixed dict-and-tuple workload shaped like polynomial
    arithmetic.  The collector is off so the program's heap cannot slow it."""
    gc.disable()
    t0 = perf_counter()
    acc = {}
    for i in range(6000):
        key = ((i * 7919) % 211, (i * 104729) % 13)
        acc[key] = acc.get(key, 0) + i
    sorted(acc.items())
    elapsed = perf_counter() - t0
    gc.enable()
    return elapsed


class Tally:
    """Per-item and per-operation times over passes, and failed checks."""

    def __init__(self, workload):
        self.workload = workload
        self.item_times = {item.id: [] for item in workload.items}
        self.op_times = {item.id: [] for item in workload.items}
        self.pass_times = []
        self.reference_times = []
        self._last_reference = 0.0
        self.attempted = 0
        self.failures = []
        self.ops_per_pass = 0
        self.matchings_per_pass = 0

    def check(self, item, outcome):
        self.attempted += 1
        problem = self.workload.check(item.id, outcome)
        if problem is not None:
            self.failures.append(f"{item.id}: {problem}")

    def run_pass(self, rng):
        """Run every item once in a shuffled order, timing the reference
        loop between items."""
        wl = self.workload
        order = list(wl.items)
        rng.shuffle(order)
        total = ops = matchings = 0
        for item in order:
            seconds, op_times, outcome = item.run()
            self.check(item, outcome)
            total += seconds
            ops += wl.ops(outcome)
            matchings += wl.matchings(outcome)
            self.item_times[item.id].append(seconds)
            self.op_times[item.id].append(op_times)
            if perf_counter() - self._last_reference >= CALIBRATE_EVERY_S:
                self.reference_times.append(_reference_loop())
                self._last_reference = perf_counter()
        self.pass_times.append(total)
        self.ops_per_pass, self.matchings_per_pass = ops, matchings

    def host_factor(self):
        return statistics.median(self.reference_times) / REFERENCE_LOOP_S

    def wall_s(self):
        """Raw seconds of one pass: each item's median over the passes."""
        return sum(statistics.median(ts) for ts in self.item_times.values())

    def op_ms(self):
        """Each operation's median raw time over the passes, in ms."""
        return [statistics.median(samples) * 1000
                for runs in self.op_times.values() for samples in zip(*runs)]


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "surfcluster" / "__init__.py").is_file():
        print(f"perfbench: no surfcluster sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        _build(args)
        print("ready", flush=True)
        return 0

    setup_s = statistics.median(_probe_setup(args)
                                for _ in range(SETUP_PROBES))
    workload = _build(args)
    rng = random.Random(args.seed)
    tally = Tally(workload)
    start = perf_counter()
    while len(tally.pass_times) < MIN_PASSES \
            or perf_counter() - start < args.seconds:
        tally.run_pass(rng)
    factor = tally.host_factor()
    raw_wall, raw_op_ms = tally.wall_s(), tally.op_ms()
    wall_s = raw_wall / factor
    op_ms = [t / factor for t in raw_op_ms]
    ops = tally.ops_per_pass
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "ops_per_s": (ops / wall_s, "1/s"),
        "op_p50_ms": (_quantile(op_ms, 50), "ms"),
        "op_p99_ms": (_quantile(op_ms, 99), "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"workload {workload.name}  seed {args.seed}  "
          f"passes {len(tally.pass_times)}  items/pass {len(workload.items)}  "
          f"{workload.op}s/pass {ops}  (latency samples: {len(op_ms)} "
          f"{workload.op}s, each the median of its passes)")
    print("  raw pass times " + " ".join(f"{t:.4f}" for t in tally.pass_times))
    print(f"  host factor {factor:.4f} (reference loop median "
          f"{factor * REFERENCE_LOOP_S * 1000:.3f} ms over "
          f"{len(tally.reference_times)} samples); raw wall_s {raw_wall:.4f}, "
          f"raw op_p50_ms {_quantile(raw_op_ms, 50):.4f}, "
          f"raw op_p99_ms {_quantile(raw_op_ms, 99):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<18} {value:14.6g} {unit}")
    if workload.op == "expansion":
        print(f"  {'expansions_per_s':<18} {ops / wall_s:14.6g} 1/s")
        print(f"  {'matchings_per_s':<18} "
              f"{tally.matchings_per_pass / wall_s:14.6g} 1/s")
    else:
        print(f"  {'mutations_per_s':<18} {ops / wall_s:14.6g} 1/s")

    if args.trace:
        metrics = _traced_pass(args, tally, rng)

    failed = len(tally.failures)
    print(f"  {'fail_frac':<18} {failed / tally.attempted:14.6g} "
          f"({failed} of {tally.attempted})")
    for line in tally.failures[:20]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def _traced_pass(args, tally, rng):
    """One more pass in which every item runs untraced and traced back to
    back, so that the overhead is measured at the same host speed; which of
    the two goes first alternates, so warm caches favour neither."""
    import tracing
    tracer = tracing.Tracer()
    order = list(tally.workload.items)
    rng.shuffle(order)
    plain_s = traced_s = 0.0
    for i, item in enumerate(order):
        if i % 2:
            plain_s += item.run()[0]
        tracer.item = item.id
        tracer.install()
        try:
            seconds, _, outcome = item.run()
        finally:
            tracer.uninstall()
        traced_s += seconds
        tally.check(item, outcome)
        if not i % 2:
            plain_s += item.run()[0]
    values = tracer.layer_metrics()
    values["trace.overhead_frac"] = traced_s / plain_s - 1
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(spans_file)
    print(f"traced pass {traced_s:.4f} s (untraced {plain_s:.4f} s), "
          f"{len(tracer.spans)} spans "
          f"written to {spans_file.relative_to(HERE.parent)}")
    for name, unit in tracing.PER_LAYER.items():
        print(f"  {name:<30} {values[name]:14.6g} {unit}")
    return {name: (values[name], unit)
            for name, unit in tracing.PER_LAYER.items()}


if __name__ == "__main__":
    sys.exit(main())
