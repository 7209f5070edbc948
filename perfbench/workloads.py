"""The benchmark's workloads: which items they run, how one item runs, and
how its output is checked.

Every item reaches the program as schema-1 JSON read back through
`surfcluster.cli`, then goes through the public functions of `expand` or
`mutation`.  Functions are looked up on their modules at call time, so the
tracer's wrappers see every call.

Why each workload exists (the layers it loads, and what it predicts):

- sweep: every locally valid crossing path with at most SWEEP_MAX_D
  crossings on seven small fixtures, in every tagging its ends allow.  Many
  tiny snake and loop graphs: per-arc fixed cost and loop-graph work
  (symmetric filter, compatible pairs) dominate, big polynomials never
  appear.  It guards small arcs against changes aimed at long ones.
- long_arcs: the arc crossing every diagonal of a zigzag-triangulated
  polygon, d = LONG_ARC_D crossings, F(d+2) matchings each.  Per-matching
  work (heights, weights, phi, accumulation, one big monomial division)
  dominates; graph construction is negligible.  A faster expansion kernel
  must show here.
- mutation: seed-mutation traffic only, no snake or matching work: the
  zigzag flip chains that produce the same long arcs (big polynomial times
  small, divided by a monomial), the Kronecker chain on the annulus with one
  marked point per boundary (multi-term long division), and many short
  random flip walks.  A faster polynomial kernel must show here while sweep
  and long_arcs predict no change.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from time import perf_counter

import inputs

# seven, not the acceptance suite's eight, so that a pass takes seconds and
# a run holds several passes
SWEEP_MAX_D = 7
LONG_ARC_D = range(13, 18)
CHAIN_C = range(16, 19)
KRONECKER_STEPS = 20
WALK_SEEDS = {
    "annulus22": inputs.annulus22,
    "punctured_hexagon": lambda: inputs.once_punctured_polygon(6),
}
# many short walks: one long walk's cost varies by orders of magnitude with
# the seed, and short ones keep the slowest 1% of steps (op_p99_ms) inside
# the fixed chains
WALKS_PER_SEED = 200
WALK_LENGTH = 4

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

# --------------------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _summary(poly, text):
    coeffs = list(poly.coefficients())
    return {"digest": digest(text), "positive": all(c > 0 for c in coeffs),
            "f1": sum(coeffs)}


class Item:
    """One unit of work.  run() returns (seconds, op seconds, outcome);
    only the program's calls are inside the timed regions."""

    def __init__(self, item_id, run):
        self.id = item_id
        self.run = run


def _expansion_item(item_id, T, data, rejected):
    from surfcluster import cli, expand

    def dispatch(path, ref, orientation):
        notches = int(ref.notch_start) + int(ref.notch_end)
        if notches == 0:
            return expand.expand_ordinary(T, path)
        if T.vertex_name(*path.start) == T.vertex_name(*path.end):
            return expand.expand_notched_loop(T, path, notches=notches,
                                              orientation=orientation)
        if notches == 1:
            return expand.expand_single_notch(
                T, path if ref.notch_end else path.reversed())
        return expand.expand_double_notch(T, path)

    def run():
        t0 = perf_counter()
        try:
            path, ref, orientation = cli.parse_arc(data, T)
            e = dispatch(path, ref, orientation)
            text = e.poly.canonical_text()
        except rejected as exc:
            return perf_counter() - t0, [], {"reject": type(exc).__name__}
        except Exception as exc:  # reported as a failed item
            return perf_counter() - t0, [], {"error": repr(exc)}
        dt = perf_counter() - t0
        out = _summary(e.poly, text)
        out["matchings"] = e.matchings_used
        return dt, [dt], out
    return Item(item_id, run)


def _mutation_item(item_id, data, sequence):
    from surfcluster import cli, mutation

    def run():
        ops, digests, positive = [], [], True
        t0 = perf_counter()
        try:
            seed = cli.parse_seed(data)
            total = perf_counter() - t0
            for k in sequence:
                t0 = perf_counter()
                seed = mutation.mutate_seed(seed, k - 1)
                x = seed.cluster[k - 1]
                text = x.canonical_text()
                dt = perf_counter() - t0
                ops.append(dt)
                total += dt
                digests.append(digest(text))
                positive = positive and all(c > 0 for c in x.coefficients())
        except Exception as exc:  # reported as a failed item
            return perf_counter() - t0, ops, {"error": repr(exc)}
        return total, ops, {"digests": digests, "positive": positive}
    return Item(item_id, run)


# --------------------------------------------------------------------------


class Workload:
    """Items plus the check of their outcomes against expected.json."""

    name = ""
    op = ""

    def __init__(self, rng: random.Random, expected: dict):
        self.expected = expected
        self.items = self.make_items(rng)

    def make_items(self, rng):
        raise NotImplementedError

    def check(self, item_id, outcome):
        """None when the outcome is right, else a one-line problem."""
        raise NotImplementedError

    def ops(self, outcome):
        """Operations an outcome stands for (counted in ops_per_s)."""
        raise NotImplementedError

    def matchings(self, outcome):
        return outcome.get("matchings", 0)


class _Expansions(Workload):
    op = "expansion"

    def ops(self, outcome):
        return 1 if "digest" in outcome else 0

    def check_expansion(self, outcome, want):
        if "error" in outcome:
            return outcome["error"]
        if "reject" in want or "reject" in outcome:
            if outcome.get("reject") != want.get("reject"):
                return f"expected {want}, got {outcome}"
            return None
        if not outcome["positive"]:
            return "negative coefficient"
        if outcome["f1"] != outcome["matchings"]:
            return f"F(1) = {outcome['f1']} != {outcome['matchings']} matchings"
        if (outcome["digest"], outcome["matchings"]) != \
                (want["digest"], want["matchings"]):
            return f"expected {want}, got digest {outcome['digest']} " \
                   f"with {outcome['matchings']} matchings"
        return None


class Sweep(_Expansions):
    name = "sweep"
    max_d = SWEEP_MAX_D

    def make_items(self, rng):
        from surfcluster import cli
        from surfcluster.snake import NotchedTrianglePresent
        from surfcluster.surface import PathInvalid
        # walks not in minimal position at a notched end are rejected by
        # design; the set of rejected items is part of the expected output
        rejected = (PathInvalid, NotchedTrianglePresent)
        items = []
        for fixture, make in inputs.SWEEP_FIXTURES:
            T = cli.parse_surface(inputs.dump(make()))
            for arc in inputs.sweep_arcs(T, self.max_d):
                data = inputs.dump(arc)
                items.append(_expansion_item(
                    f"{fixture}/{digest(data.decode())}", T, data, rejected))
        return items

    def check(self, item_id, outcome):
        want = self.expected["sweep"].get(item_id)
        if want is None:
            return "no expected outcome recorded"
        return self.check_expansion(outcome, want)


class LongArcs(_Expansions):
    name = "long_arcs"

    def make_items(self, rng):
        from surfcluster import cli
        items = []
        for d in LONG_ARC_D:
            c = d + 3
            T = cli.parse_surface(inputs.dump(inputs.zigzag_polygon(c)))
            items.append(_expansion_item(
                f"c{c}", T, inputs.dump(inputs.zigzag_long_arc(c)), ()))
        return items

    def check(self, item_id, outcome):
        want = self.expected["long_arcs"][item_id]
        problem = self.check_expansion(outcome, want)
        d = int(item_id[1:]) - 3
        if problem is None and outcome["matchings"] != fibonacci(d + 2):
            problem = f"{outcome['matchings']} matchings, not F({d + 2})"
        return problem


class Mutation(Workload):
    name = "mutation"
    op = "mutation step"

    def make_items(self, rng):
        from surfcluster import cli
        from surfcluster.surface import signed_adjacency
        items = []
        for c in CHAIN_C:
            T = cli.parse_surface(inputs.dump(inputs.zigzag_polygon(c)))
            seed = inputs.seed_json(signed_adjacency(T), T.tagged_names())
            items.append(_mutation_item(f"chain/c{c}", inputs.dump(seed),
                                        inputs.zigzag_chain(c)))
        items.append(_mutation_item("kronecker", inputs.dump(inputs.KRONECKER),
                                    inputs.kronecker_chain(KRONECKER_STEPS)))
        for name, make in WALK_SEEDS.items():
            T = cli.parse_surface(inputs.dump(make()))
            seed = inputs.dump(inputs.seed_json(signed_adjacency(T),
                                                T.tagged_names()))
            walks = inputs.flip_walks(rng, len(T.arcs), WALKS_PER_SEED,
                                      WALK_LENGTH)
            for i, walk in enumerate(walks):
                items.append(_mutation_item(f"walk/{name}/{i}", seed, walk))
        return items

    def ops(self, outcome):
        return len(outcome.get("digests", ()))

    def check(self, item_id, outcome):
        if "error" in outcome:
            return outcome["error"]
        if not outcome["positive"]:
            return "negative coefficient"
        got = outcome["digests"]
        kind, _, rest = item_id.partition("/")
        if kind == "walk":
            allowed = set(self.expected["walk_balls"][rest.split("/")[0]])
            bad = [g for g in got if g not in allowed]
            return f"variables outside the recorded ball: {bad}" if bad \
                else None
        if kind == "kronecker":
            want = self.expected["kronecker"][:len(got)]
        else:
            want = self.expected["chains"][rest]
            # the oracle's last variable is the long arc's expansion
            if got and got[-1] != self.expected["long_arcs"][rest]["digest"]:
                return "chain result differs from the long-arc expansion"
        return None if got == want else "step digests differ"


WORKLOADS = {w.name: w for w in (Sweep, LongArcs, Mutation)}


def load_expected():
    with open(EXPECTED_FILE) as fh:
        return json.load(fh)
