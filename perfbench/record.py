"""Record the expected outputs the benchmark checks against.

    python3 perfbench/record.py

Writes perfbench/expected.json: the canonical-text digest (and matching
count) of every sweep item with up to eight crossings, or the exception
class it is rejected with, the
long-arc digests for d = 13..19, the per-step digests of the zigzag flip
chains and of the Kronecker chain, and for each walk seed the digests of
every cluster variable within WALK_LENGTH flips of it.  Re-record only when
a change is meant to alter outputs.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import workloads as wl  # noqa: E402

RECORD_D = range(13, 20)
RECORD_CHAIN_C = range(16, 21)
RECORD_KRONECKER = 30


def _outcomes(items):
    out = {}
    for item in items:
        _, _, outcome = item.run()
        if "error" in outcome:
            raise SystemExit(f"{item.id}: {outcome['error']}")
        out[item.id] = outcome
    return out


def _expansion_record(outcome):
    if "reject" in outcome:
        return {"reject": outcome["reject"]}
    return {"digest": outcome["digest"], "matchings": outcome["matchings"]}


def _ball(seed0, depth):
    """Digests of every cluster variable within `depth` flips of seed0."""
    from surfcluster.mutation import mutate_seed
    seen = {(seed0.ext_matrix, seed0.cluster)}
    found = {wl.digest(x.canonical_text()) for x in seed0.cluster}
    frontier = [seed0]
    for _ in range(depth):
        nxt = []
        for s in frontier:
            for k in range(s.n):
                s2 = mutate_seed(s, k)
                key = (s2.ext_matrix, s2.cluster)
                if key not in seen:
                    seen.add(key)
                    found.add(wl.digest(s2.cluster[k].canonical_text()))
                    nxt.append(s2)
        frontier = nxt
    return sorted(found)


def main():
    from surfcluster import cli
    from surfcluster.surface import signed_adjacency

    expected = {}
    class FullSweep(wl.Sweep):
        max_d = inputs.CRITERION4_MAX_D

    sweep = FullSweep(random.Random(0), {})
    expected["sweep"] = {k: _expansion_record(v)
                         for k, v in _outcomes(sweep.items).items()}

    items = []
    for d in RECORD_D:
        c = d + 3
        T = cli.parse_surface(inputs.dump(inputs.zigzag_polygon(c)))
        items.append(wl._expansion_item(
            f"c{c}", T, inputs.dump(inputs.zigzag_long_arc(c)), ()))
    expected["long_arcs"] = {k: _expansion_record(v)
                             for k, v in _outcomes(items).items()}

    chains = {}
    for c in RECORD_CHAIN_C:
        T = cli.parse_surface(inputs.dump(inputs.zigzag_polygon(c)))
        seed = inputs.seed_json(signed_adjacency(T), T.tagged_names())
        item = wl._mutation_item(f"c{c}", inputs.dump(seed),
                                 inputs.zigzag_chain(c))
        digests = _outcomes([item])[item.id]["digests"]
        if digests[-1] != expected["long_arcs"][f"c{c}"]["digest"]:
            raise SystemExit(f"c{c}: flip chain and expansion disagree")
        chains[f"c{c}"] = digests
    expected["chains"] = chains

    item = wl._mutation_item("kronecker", inputs.dump(inputs.KRONECKER),
                             inputs.kronecker_chain(RECORD_KRONECKER))
    expected["kronecker"] = _outcomes([item])["kronecker"]["digests"]

    balls = {}
    for name, make in wl.WALK_SEEDS.items():
        T = cli.parse_surface(inputs.dump(make()))
        seed = cli.parse_seed(inputs.dump(
            inputs.seed_json(signed_adjacency(T), T.tagged_names())))
        balls[name] = _ball(seed, wl.WALK_LENGTH)
    expected["walk_balls"] = balls

    with open(wl.EXPECTED_FILE, "w") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
