"""The generic coverage-state matching DP, kept as a test oracle.

A state is the set of covered vertices that later tiles still touch.  At
tile k every set of the edges first met at k is tried by brute force; it is
kept when it covers no vertex twice and leaves no vertex uncovered whose
last tile is k.  It knows nothing of glue slots or tile shapes, so it
checks the two-state rule table of `surfcluster.matchings` from outside.

`enumerate_matchings` takes the arguments of the function of that name in
`surfcluster.matchings`, and `boundary_matchings` and `transfer_sum` those
of the functions of those names in `graph_route`; each should return the
same values, lists as sets: this DP lists matchings in the order it
reaches them, those functions sorted by their sorted edge ids.
"""

from itertools import combinations
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from surfcluster.matchings import Matching
from surfcluster.snake import SnakeGraph


def _dp(g: SnakeGraph, start, extend: Callable,
        allowed: Optional[set] = None):
    """The DP folded over per-state values: `extend(acc, value, chosen)`
    adds a state's value, extended by the tuple of chosen edge ids, to the
    accumulator of the next state (None when it has none yet).  Only edges
    in `allowed` are tried, when it is given."""
    d = g.d
    # last tile in which each vertex occurs
    v_last: Dict[int, int] = {}
    tile_vs: List[List[int]] = []
    for k in range(d):
        vs = [g.vertex_of[k, c] for c in range(4)]
        tile_vs.append(vs)
        for v in vs:
            v_last[v] = k
    # tile at which each edge is decided: its first tile
    cand: List[List[int]] = [[] for _ in range(d)]
    for e in g.edges:
        if allowed is not None and e.eid not in allowed:
            continue
        cand[min(t for t, _ in e.tiles)].append(e.eid)
    ends = {e.eid: g.edge_vertices(e) for e in g.edges}

    states: Dict[FrozenSet[int], object] = {frozenset(): start}
    for k in range(d):
        new_states: Dict[FrozenSet[int], object] = {}
        closing = {v for v in tile_vs[k] if v_last[v] == k}
        es = sorted(cand[k])
        for cov, value in states.items():
            for r in range(len(es) + 1):
                for chosen in combinations(es, r):
                    touched: Dict[int, int] = {}
                    ok = True
                    for eid in chosen:
                        for v in ends[eid]:
                            touched[v] = touched.get(v, 0) + 1
                            if touched[v] > 1 or v in cov:
                                ok = False
                                break
                        if not ok:
                            break
                    if not ok:
                        continue
                    if any(v not in cov and touched.get(v, 0) != 1
                           for v in closing):
                        continue
                    ncov = {v for v in cov if v_last[v] > k}
                    ncov.update(v for v in touched if v_last[v] > k)
                    key = frozenset(ncov)
                    new_states[key] = extend(new_states.get(key), value,
                                             chosen)
        states = new_states
    return states.get(frozenset())


def _extend_partials(acc, partials, chosen):
    acc = [] if acc is None else acc
    acc.extend(p + chosen for p in partials)
    return acc


def enumerate_matchings(g: SnakeGraph,
                        allowed: Optional[set] = None) -> List[Matching]:
    return [frozenset(p)
            for p in _dp(g, [()], _extend_partials, allowed) or []]


def boundary_matchings(g: SnakeGraph) -> List[Matching]:
    return enumerate_matchings(g, {e.eid for e in g.edges if e.boundary})


def transfer_sum(g: SnakeGraph, start: int,
                 keys: Sequence[int]) -> Dict[int, int]:
    def extend(acc, terms, chosen: Tuple[int, ...]):
        k = sum(keys[e] for e in chosen)
        acc = {} if acc is None else acc
        for t, c in terms.items():
            acc[t + k] = acc.get(t + k, 0) + c
        return acc

    return _dp(g, {start: 1}, extend) or {}
