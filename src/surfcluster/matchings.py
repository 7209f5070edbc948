"""Perfect matchings of snake graphs: enumeration, extremal matchings,
heights, weights, and the symmetric/compatible selections for loop graphs.

A matching is a frozenset of edge ids.  One dynamic program runs along the
tile order; its state is the coverage of the vertices shared with later
tiles.  Enumeration folds it into lists of partial matchings, and returns
the matchings sorted by their edge-id tuples so every run produces the same
order.

Heights count the tiles enclosed by P ⊖ P-, each read off the tile's one
outer-face edge (see `height_exponents`); the end restriction of a loop-graph
matching is read the same way on its first d tiles, with no copy of the end.

Because each tile's height is decided by one edge, the height is linear in
P: h(P) = h0 + sum of delta_e over the edges e of P (see `edge_keys`).  The
weight is a product over the edges and the specialization phi is linear, so
x(P)·y(P) is a fixed monomial times one monomial per edge of P.
`transfer_sum` therefore folds the same dynamic program into one packed
polynomial per state, and the matching sum of an ordinary arc costs
tiles × states × terms instead of one pass per matching.  Notched arcs are
transfer sums too (see `expand`), so enumeration stays only for the
extremal matchings, the `matchings` command, and the oracles the tests
check against: the per-matching sum of an ordinary arc, and the paper's
loop-graph sums over symmetric matchings and compatible pairs.
"""

from __future__ import annotations

from itertools import combinations
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Tuple, TypeVar)

from .poly import LaurentPoly, pack, xvar, yvar
from .snake import LoopGraph, SnakeGraph
from .surface import SurfaceError, Triangulation

__all__ = [
    "Matching",
    "NotAMatching",
    "enumerate_matchings",
    "boundary_matchings",
    "minimal_maximal",
    "height_exponents",
    "phi_specialize",
    "x_of_label",
    "matching_weight",
    "edge_keys",
    "transfer_sum",
    "gamma_symmetric_filter",
    "perfect_end_restriction",
    "compatible_pairs",
]

Matching = FrozenSet[int]


class NotAMatching(SurfaceError):
    pass


V = TypeVar("V")


def _dp(g: SnakeGraph, start: V,
        extend: Callable[[Optional[V], V, Tuple[int, ...]], V],
        allowed: Optional[set] = None) -> Optional[V]:
    """The matching DP, run tile by tile and folded over per-state values.

    A state is the set of covered vertices that later tiles still touch.  At
    tile k every set of the edges first met at k (restricted to `allowed`)
    is tried; it is kept when it covers no vertex twice and leaves no vertex
    uncovered whose last tile is k.  The empty state starts with `start`;
    `extend(acc, value, chosen)` adds a state's value, extended by the
    tuple of chosen edge ids, to the accumulator of the next state (None
    when it has none yet) and returns the new accumulator.  Returns the
    value of the empty state after the last tile, None when g has no
    perfect matching.
    """
    d = g.d
    # last tile in which each vertex occurs
    v_last: Dict[int, int] = {}
    tile_vs: List[List[int]] = []
    for k in range(d):
        vs = [g.vertex_of[(k, c)] for c in ("SW", "SE", "NE", "NW")]
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

    states: Dict[FrozenSet[int], V] = {frozenset(): start}
    for k in range(d):
        new_states: Dict[FrozenSet[int], V] = {}
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
                    for v in closing:
                        if v not in cov and touched.get(v, 0) != 1:
                            ok = False
                            break
                    if not ok:
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


def _enumerate(g: SnakeGraph, allowed: Optional[set] = None) -> List[Matching]:
    done = _dp(g, [()], _extend_partials, allowed) or []
    return sorted(frozenset(p) for p in done)


def enumerate_matchings(g: SnakeGraph) -> List[Matching]:
    """All perfect matchings, ordered by their sorted edge-id tuples."""
    return _enumerate(g)


def boundary_matchings(g: SnakeGraph) -> List[Matching]:
    allowed = {e.eid for e in g.edges if e.boundary}
    return _enumerate(g, allowed)


def minimal_maximal(g: SnakeGraph) -> Tuple[Matching, Matching]:
    """The two boundary-only matchings, (minimal, maximal)."""
    bms = boundary_matchings(g)
    if len(bms) != 2:
        raise NotAMatching(f"expected two boundary matchings, found {len(bms)}")
    avoid = {g.tiles[0].slot_edge[s] for s in g.minus_avoid_slots}
    minus = [m for m in bms if not (m & avoid)]
    if len(minus) != 1:
        raise NotAMatching("the minimal matching is not determined")
    pm = minus[0]
    pp = bms[0] if bms[1] == pm else bms[1]
    return pm, pp


def _check_matching(g: SnakeGraph, P: Matching) -> None:
    seen: Dict[int, int] = {}
    for eid in P:
        for v in g.edge_vertices(g.edges[eid]):
            seen[v] = seen.get(v, 0) + 1
    if len(seen) != g.nvertices or any(c != 1 for c in seen.values()):
        raise NotAMatching("edge set does not cover every vertex exactly once")


def _tile_heights(g: SnakeGraph, P: Matching, minus: Matching,
                  n: int) -> Dict[str, int]:
    """Heights of the first n tiles, grouped by diagonal label: a tile is
    enclosed exactly when its outer edge lies in one of P and minus."""
    m: Dict[str, int] = {}
    for tile, eid in zip(g.tiles[:n], g.outer_edges):
        if (eid in P) != (eid in minus):
            m[tile.diagonal] = m.get(tile.diagonal, 0) + 1
    return m


def height_exponents(g: SnakeGraph, P: Matching,
                     minus: Optional[Matching] = None) -> Dict[str, int]:
    """Tiles enclosed by the cycles of P-minus symmetric difference,
    grouped by diagonal label.

    The symmetric difference is a disjoint union of cycles, and every tile
    has an edge on the outer face.  A step from the tile out through that
    edge crosses the cycles once if the edge is in the symmetric difference
    and not at all otherwise, so by Jordan parity that one edge decides
    whether the tile is enclosed.
    """
    _check_matching(g, P)
    if minus is None:
        minus, _ = minimal_maximal(g)
    return _tile_heights(g, P, minus, g.d)


def phi_exps(m: Dict[str, int], T: Triangulation) -> Dict:
    """Exponent map of the specialized height monomial: radii become
    y_r / y_notched, loops become y_notched, everything else stays y_arc."""
    exps: Dict = {}

    def bump(name: str, e: int) -> None:
        v = yvar(name)
        ne = exps.get(v, 0) + e
        if ne:
            exps[v] = ne
        else:
            exps.pop(v, None)

    for label, e in m.items():
        if e == 0:
            continue
        sf = T.loop_triangle(label)
        if sf is not None:
            bump(T.notched_twin(sf.radius), e)
            continue
        sf = T.radius_triangle(label)
        if sf is not None:
            bump(label, e)
            bump(T.notched_twin(label), -e)
            continue
        bump(label, e)
    return exps


def phi_specialize(m: Dict[str, int], T: Triangulation) -> LaurentPoly:
    return LaurentPoly.monomial(1, phi_exps(m, T))


def x_exps_of_label(T: Triangulation, label: str) -> Dict:
    """Exponent map of an edge label's weight: boundary segments weigh 1,
    self-folded loops weigh radius times notched twin."""
    if T.is_boundary(label):
        return {}
    sf = T.loop_triangle(label)
    if sf is not None:
        return {xvar(sf.radius): 1, xvar(T.notched_twin(sf.radius)): 1}
    return {xvar(label): 1}


def x_of_label(T: Triangulation, label: str) -> LaurentPoly:
    return LaurentPoly.monomial(1, x_exps_of_label(T, label))


def weight_exps(g: SnakeGraph, edges: Iterable[int], T: Triangulation) -> Dict:
    out: Dict = {}
    for eid in edges:
        for v, e in x_exps_of_label(T, g.edges[eid].label).items():
            out[v] = out.get(v, 0) + e
    return out


def matching_weight(g: SnakeGraph, P: Matching, T: Triangulation) -> LaurentPoly:
    return LaurentPoly.monomial(1, weight_exps(g, P, T))


# ---------------------------------------------------------------------------
# the matching sum as a transfer matrix


def edge_keys(g: SnakeGraph, T: Triangulation,
              minus: Matching) -> Tuple[int, List[int]]:
    """(start, keys) with x(P)·y(P) = start + sum(keys[e] for e in P) as
    packed keys, for every perfect matching P of g.

    A tile whose outer edge o lies in `minus` is enclosed unless o is in P:
    it adds its diagonal to the start and takes it off o.  Any other tile is
    enclosed when o is in P: it adds its diagonal to o.  The weight is a
    product over the edges and phi is linear, so each edge carries its
    label's weight times phi of its height.
    """
    start: Dict[str, int] = {}
    heights: Dict[int, Dict[str, int]] = {}
    for tile, eid in zip(g.tiles, g.outer_edges):
        if eid in minus:
            start[tile.diagonal] = start.get(tile.diagonal, 0) + 1
            heights[eid] = {tile.diagonal: -1}
        else:
            heights[eid] = {tile.diagonal: 1}
    keys = [pack(x_exps_of_label(T, e.label)) +
            pack(phi_exps(heights.get(e.eid, {}), T)) for e in g.edges]
    return pack(phi_exps(start, T)), keys


def transfer_sum(g: SnakeGraph, start: int,
                 keys: Sequence[int]) -> Dict[int, int]:
    """Sum over the perfect matchings P of g of the monomial with packed key
    start + sum(keys[e] for e in P), as {packed key: coefficient}.

    The same DP as `enumerate_matchings`, but each state carries the
    polynomial of its partial matchings instead of their list, so the cost
    grows with tiles × states × terms rather than with the matching count.
    With every key 0 the result is {0: number of perfect matchings}.
    """
    def extend(acc, terms, chosen):
        k = sum(keys[e] for e in chosen)
        if acc is None:
            return {t + k: c for t, c in terms.items()}
        get = acc.get
        for t, c in terms.items():
            acc[t + k] = get(t + k, 0) + c
        return acc

    return _dp(g, {start: 1}, extend) or {}


# ---------------------------------------------------------------------------
# loop graphs: symmetric matchings and compatible pairs

Role = Tuple[int, str, int]


def _role_sets(lg: LoopGraph, P: Matching, which: int) -> Dict[Role, int]:
    roles = lg.end_roles[which]
    return {roles[e]: e for e in P if e in roles}


def _v_roles(lg: LoopGraph) -> set:
    return {(lg.d - 1, "upper", 0), (lg.d - 1, "upper", 1)}


def gamma_symmetric_filter(lg: LoopGraph, matchings: Iterable[Matching]) -> List[Matching]:
    """Matchings whose restrictions to the two trimmed ends agree under the
    structural end isomorphism."""
    vr = _v_roles(lg)
    out = []
    for P in matchings:
        r1 = set(_role_sets(lg, P, 1)) - vr
        r2 = set(_role_sets(lg, P, 2)) - vr
        if r1 == r2:
            out.append(P)
    return out


def _end_vertices(lg: LoopGraph, which: int) -> set:
    g = lg.graph
    rng = range(lg.d) if which == 1 else range(lg.d + lg.e_p, g.d)
    return {g.vertex_of[(t, c)] for t in rng for c in ("SW", "SE", "NE", "NW")}


def perfect_end_restriction(lg: LoopGraph, P: Matching) -> Tuple[int, Dict[Role, int]]:
    """The end on which P restricts to a perfect matching, with the roles of
    the restricted edges.  Raises when neither end works."""
    g = lg.graph
    for which in (1, 2):
        roles = lg.end_roles[which]
        restr = [e for e in P if e in roles]
        cover: Dict[int, int] = {}
        for e in restr:
            for v in g.edge_vertices(g.edges[e]):
                cover[v] = cover.get(v, 0) + 1
        vs = _end_vertices(lg, which)
        if all(cover.get(v, 0) == 1 for v in vs) and \
                all(v in vs for v in cover):
            return which, {roles[e]: e for e in restr}
    raise NotAMatching("matching restricts to a perfect matching on neither end")


def compatible_pairs(lp: LoopGraph, lq: LoopGraph,
                     sym_p: Optional[List[Matching]] = None,
                     sym_q: Optional[List[Matching]] = None, *,
                     roles_p: Optional[Dict[Matching, Dict[Role, int]]] = None,
                     roles_q: Optional[Dict[Matching, Dict[Role, int]]] = None,
                     ) -> List[Tuple[Matching, Matching]]:
    """Pairs of symmetric matchings whose perfect end restrictions agree.

    lp is the loop graph of the arc oriented toward its first puncture and lq
    the one of the reversed arc, so lq's canonical tile order is flipped
    before comparing.  The restriction roles of each symmetric matching, as
    `perfect_end_restriction` gives them, may be passed in `roles_p` and
    `roles_q`; missing ones are computed.
    """
    if lp.d != lq.d:
        raise SurfaceError("loop graphs come from different arcs")
    d = lp.d
    if sym_p is None:
        sym_p = gamma_symmetric_filter(lp, enumerate_matchings(lp.graph))
    if sym_q is None:
        sym_q = gamma_symmetric_filter(lq, enumerate_matchings(lq.graph))

    def flip(role: Role) -> Role:
        if role[0] == "glue":
            return ("glue", d - 2 - role[1])
        t, tri, r = role
        return (d - 1 - t, "upper" if tri == "lower" else "lower", r)

    def restricted(lg, given, P):
        if given is not None and P in given:
            return given[P]
        return perfect_end_restriction(lg, P)[1]

    def key_p(P):
        return frozenset(restricted(lp, roles_p, P))

    def key_q(P):
        return frozenset(flip(r) for r in restricted(lq, roles_q, P))

    by_key: Dict[FrozenSet[Role], List[Matching]] = {}
    for Q in sym_q:
        by_key.setdefault(key_q(Q), []).append(Q)
    out = []
    for P in sym_p:
        for Q in by_key.get(key_p(P), []):
            out.append((P, Q))
    return out
