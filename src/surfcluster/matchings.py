"""Perfect matchings of snake graphs: the matching DP (the strip kernel),
extremal matchings, heights, weights, and the symmetric/compatible
selections for loop graphs.

A matching is a frozenset of edge ids.  One dynamic program runs along the
tile order.  Tile k meets the later tiles only at the two ends of its exit
glue edge (the drawing steps up or right, so the tiles after k+1 touch k at
most in a corner of that edge).  The tiles up to k have 4 + 2k vertices,
an even number, and the edges chosen so far cover every one of them but
those two ends, each once; by parity they cover both ends or neither.  So
the DP has two states, covered and uncovered, and each tile is a fixed
transfer between them (the 2×2 matrices of Musiker–Williams,
arXiv:1108.3382).

A tile's glue slots, counted from a (slot i joins corners i and i + 1), are
an entry None, 0 or 1 and an exit None, 2 or 3: nine shapes (`Tile.shape`).
`_RULES` lists, per shape, every (covered in, covered out, chosen slots) of
one abstract tile, derived by brute force once at import (`_shape_rules`).
At a turn the corner shared by the entry and exit slots may stay uncovered,
as in the rule "uncovered to uncovered by slot 0" of the shape (1, 2).

The extremal matchings P- and P+ need no DP: every vertex lies on the
outer face, so the boundary edges form one cycle through all the vertices,
and the two matchings that use boundary edges only are its two sets of
alternate edges.  No walk around the cycle is needed: colour each corner
(x, y) by the parity of x + y.  Walked counterclockwise, the cycle runs
along each edge counterclockwise around its tile, and one set of
alternate edges starts at corners of one colour.  Slot i (S, E, N, W =
0..3) of the tile at (x, y) starts at parity x + y + i, and tile k sits
at x + y = k, the drawing stepping up or right.  P- avoids the sides that
follow tile 0's diagonal counterclockwise, which are slots a and a + 2, as
tile 0 has rel = +1.  So it holds the boundary edge in slot j from a of
tile k exactly when j + k is odd: `_outer` reads this off each tile's
outer edge, with no graph, and `minimal_maximal` off a graph's boundary
edges.

Heights count the tiles enclosed by P ⊖ P-, each read off the tile's one
outer-face edge and P-'s hold on it, both from `outer_slots` (see
`height_exponents`); the end restriction of a loop-graph matching is read
the same way on its first d tiles, with no copy of the end.

Each tile's height is decided by one edge, so the height is linear in P;
the weight is a product over the edges and phi is linear, so x(P)·y(P) is
a fixed monomial times one monomial per edge of P.  So the matching sum of
an ordinary arc needs neither graph, strip nor placed tiles: a tile's
transfer, fixed by steps k and k + 1 of the path alone (`_transfer`), is
a start shift (phi of the diagonal if P- holds the outer edge), one
(covered in, covered out, packed key) per rule of its shape and whether
the snake turns there.  `strip_transfers` looks it up by those two steps
in a table kept on T per key width, and `strip_sum` folds the rules with
one polynomial per state, at a cost of tiles × states × terms.  Each
label's weight and each arc's phi is one packed key in T's ring, 16-bit
unless a sum's bound reaches 2**15, kept on T per width too (`_keys`), so
a product of weights is the sum of its label keys (`x_of_labels`); a
monomial built here is in T's ring.

Enumeration runs the same DP on a graph: `enumerate_matchings` gives
`_tile_rules` each slot's edge-id bit, by slot from a (`Tile.edges`), and
phi 0, so every term of the sum is one matching; it returns the matchings
sorted by their sorted edge ids.  It is exponential and serves only the `matchings`
command and the test oracles.  `matching_count` checks every strip sum's
count a second way, by a continuant read off the turns.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, repeat
from operator import add
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .poly import LaurentPoly, Ring, bits_for, ring_of, xvar, yvar
from .snake import (LoopGraph, SnakeGraph, Tile, _local_tile, path_steps,
                    strip_triangle)
from .surface import CrossingPath, SurfaceError, Triangulation

__all__ = [
    "Matching",
    "NotAMatching",
    "enumerate_matchings",
    "minimal_maximal",
    "height_exponents",
    "phi_specialize",
    "x_of_labels",
    "outer_slots",
    "strip_transfers",
    "strip_sum",
    "matching_count",
    "gamma_symmetric_filter",
    "perfect_end_restriction",
    "compatible_pairs",
]

Matching = FrozenSet[int]


class NotAMatching(SurfaceError):
    pass


def _shape_rules(entry: Optional[int], exit_: Optional[int]
                 ) -> List[Tuple[bool, bool, Tuple[int, ...]]]:
    """(covered in, covered out, chosen slots) for every way a tile with
    these glue slots extends a partial matching, in slots counted from a:
    slot i joins corners i and i + 1 (mod 4).

    The state is whether the corners of the glue slot are covered.  A set
    of the tile's slots other than its entry is kept when it covers no
    corner twice (the entry corners count as covered in the covered
    state), covers every corner outside the exit slot, and covers both
    exit corners or neither.  Without an entry the tile starts covered;
    without an exit it ends covered.
    """
    ent = () if entry is None else (entry, entry + 1)
    ext = set() if exit_ is None else {exit_, (exit_ + 1) % 4}
    free = [s for s in range(4) if s != entry]
    rules = []
    for covered in ((True,) if entry is None else (True, False)):
        for r in range(len(free) + 1):
            for slots in combinations(free, r):
                hit = [c for s in slots for c in (s, (s + 1) % 4)]
                hit += ent if covered else ()
                done = set(hit)
                if len(done) == len(hit) and len(done | ext) == 4 and \
                        done & ext in (set(), ext):
                    rules.append((covered, done >= ext, slots))
    return rules


_RULES = {(a, b): _shape_rules(a, b)
          for a in (None, 0, 1) for b in (None, 2, 3)}


def _outer(entry: Optional[int], k: int) -> Tuple[int, bool]:
    """Tile k's outer slot, the first from a that is no glue slot, and
    whether P- holds its edge (see the module docstring)."""
    slot = 1 if entry == 0 else 0
    return slot, (slot + k) % 2 == 1


def _tile_rules(keys: Sequence[int], phi: int, entry: Optional[int],
                exit_: Optional[int]
                ) -> Tuple[int, List[Tuple[bool, bool, int]]]:
    """(start shift, rules) of a tile read as tile 0, from its keys per slot
    from a and phi of its diagonal: per rule of its shape, (covered in,
    covered out, key), the key summing the chosen slots' keys, the outer
    slot's carrying phi, or -phi when P- holds the outer edge and the
    shift takes phi."""
    outer, minus = _outer(entry, 0)
    shift = phi if minus else 0
    keys = list(keys)
    keys[outer] += phi - 2 * shift
    return shift, [(c, o, sum(keys[i] for i in slots))
                   for c, o, slots in _RULES[entry, exit_]]


def enumerate_matchings(g: SnakeGraph) -> List[Matching]:
    """All perfect matchings, sorted by their sorted edge ids: the strip
    DP with each edge keyed by its own bit, so each term is one matching."""
    masks = strip_sum(0, [_tile_rules([1 << e for e in t.edges], 0,
                                      *t.shape)[1] for t in g.tiles])
    return sorted((frozenset(e for e in range(m.bit_length()) if m >> e & 1)
                   for m in masks), key=sorted)


def minimal_maximal(g: SnakeGraph) -> Tuple[Matching, Matching]:
    """The two boundary-only matchings, (minimal, maximal): the boundary
    edges split by the parity of `_outer`, P- holding slot i from a of tile
    k when i + k is odd."""
    sides: Tuple[set, set] = (set(), set())
    for e in g.edges:
        if e.boundary:
            k, slot = e.tiles[0]
            sides[(slot + k) % 2].add(e.eid)
    return frozenset(sides[1]), frozenset(sides[0])


def _check_matching(g: SnakeGraph, P: Matching) -> None:
    seen: Dict[int, int] = {}
    for eid in P:
        for v in g.edge_vertices(g.edges[eid]):
            seen[v] = seen.get(v, 0) + 1
    if len(seen) != g.nvertices or any(c != 1 for c in seen.values()):
        raise NotAMatching("edge set does not cover every vertex exactly once")


def _tile_heights(g: SnakeGraph, P: Matching, n: int) -> Dict[str, int]:
    """Heights of the first n tiles, grouped by diagonal label: a tile is
    enclosed exactly when its outer edge lies in one of P and P-."""
    m: Dict[str, int] = {}
    for tile, (slot, minus) in zip(g.tiles[:n], outer_slots(g.tiles)):
        if (tile.edges[slot] in P) != minus:
            m[tile.diagonal] = m.get(tile.diagonal, 0) + 1
    return m


def height_exponents(g: SnakeGraph, P: Matching) -> Dict[str, int]:
    """Tiles enclosed by the cycles of the symmetric difference of P and
    P-, grouped by diagonal label.

    The symmetric difference is a disjoint union of cycles, and every tile
    has an edge on the outer face.  A step from the tile out through that
    edge crosses the cycles once if the edge is in the symmetric difference
    and not at all otherwise, so by Jordan parity that one edge decides
    whether the tile is enclosed.
    """
    _check_matching(g, P)
    return _tile_heights(g, P, g.d)


def phi_exps(m: Dict[str, int], T: Triangulation) -> Dict:
    """Exponent map of the specialized height monomial: radii become
    y_r / y_notched, loops become y_notched, everything else stays y_arc."""
    exps: Counter = Counter()
    for label, e in m.items():
        sf = T.loop_triangle(label)
        if sf is not None:
            exps[yvar(T.notched_twin(sf.radius))] += e
            continue
        exps[yvar(label)] += e
        if T.radius_triangle(label) is not None:
            exps[yvar(T.notched_twin(label))] -= e
    return {v: e for v, e in exps.items() if e}


def phi_specialize(m: Dict[str, int], T: Triangulation) -> LaurentPoly:
    return _keys(T)[0].monomial(phi_exps(m, T))


def _keys(T: Triangulation, bound: int = 0
          ) -> Tuple[Ring, Dict[str, int], Dict[str, int]]:
    """T's key table (ring, weights, phis) for key sums whose |digit|
    `bound` bounds, built on the first call and kept on T per digit width:
    each label's weight and each arc's phi of height 1 as one packed key,
    in T's ring of that width, that of the x and y variables of all T's
    tagged names.  Boundary segments weigh 1, self-folded loops weigh
    radius times notched twin; keys add as their monomials multiply, and
    phi is linear, so height -1 packs to its negative."""
    bits = bits_for(bound)
    if bits not in T.key_table:
        ring = ring_of((make(name) for name in T.tagged_names()
                        for make in (xvar, yvar)), bits)
        weights = {}
        for label in T.arcs + T.boundary:
            sf = T.loop_triangle(label)
            if T.is_boundary(label):
                exps = {}
            elif sf is not None:
                exps = {xvar(sf.radius): 1, xvar(T.notched_twin(sf.radius)): 1}
            else:
                exps = {xvar(label): 1}
            weights[label] = ring.pack(exps)
        phis = {arc: ring.pack(phi_exps({arc: 1}, T)) for arc in T.arcs}
        T.key_table[bits] = (ring, weights, phis)
    return T.key_table[bits]


def x_of_labels(T: Triangulation, labels: Sequence[str]) -> LaurentPoly:
    """The product of the labels' weights, in T's ring: the sum of their
    keys.  A weight's exponents are 0 or 1, so len(labels) bounds the
    product's and picks the ring's width."""
    ring, weights, _ = _keys(T, len(labels))
    return LaurentPoly.from_packed(
        {sum(map(weights.__getitem__, labels)): 1}, len(labels), ring)


def weight_exps(g: SnakeGraph, edges: Iterable[int], T: Triangulation) -> Dict:
    """Exponent map of the product of the edges' label weights."""
    labels = [g.edges[e].label for e in edges]
    return x_of_labels(T, labels).monomial_parts()[1]


# ---------------------------------------------------------------------------
# the matching sum of an ordinary arc, from its strip


def outer_slots(tiles: Sequence[Tile]) -> List[Tuple[int, bool]]:
    """Per tile, `_outer`: the slot from a of its outer edge (no other tile
    has that edge) and whether P- holds that edge."""
    return [_outer(tile.shape[0], k) for k, tile in enumerate(tiles)]


def _transfer(T: Triangulation, weights: Dict, phis: Dict, low, up):
    """One tile's (start shift, rules, turn) from its two steps (see
    `strip_transfers`), read with rel = +1 as tile 0: a tile with rel = -1
    is its mirror image, with the same edges and an outer slot whose parity
    flips with that of k (`_outer`)."""
    diagonal, sides, entry, exit_ = _local_tile(
        strip_triangle(T, *low), strip_triangle(T, *up), 1)
    shift, rules = _tile_rules([weights[label] for label in sides],
                               phis[diagonal], entry, exit_)
    return shift, rules, None not in (entry, exit_) and exit_ - entry != 2


def strip_transfers(T: Triangulation, path: CrossingPath) -> Tuple:
    """(start, rules, turns) of a crossing path for `strip_sum` and
    `matching_count`, each tile's share looked up by its two steps in T's
    transfer table of the path's key width (see the module docstring)."""
    steps = path_steps(T, path)
    ring, *keys = _keys(T, len(steps))
    table = T.transfer_table.setdefault(ring.bits, {})
    shifts, rules, turns = zip(*[
        table.get(key) or table.setdefault(key, _transfer(T, *keys, *key))
        for key in zip(steps, steps[1:])])
    return sum(shifts), rules, turns


def _merged(a_off: int, a: Dict[int, int], b_off: int,
            b: Dict[int, int]) -> Tuple[int, Dict[int, int]]:
    """The sum of two shifted polynomials (see `strip_sum`) in a copy of the
    larger dict, which keeps its shift."""
    if len(a) < len(b):
        a_off, a, b_off, b = b_off, b, a_off, a
    acc = a.copy()
    get = acc.get
    for t, c in zip(map(add, b, repeat(b_off - a_off)), b.values()):
        acc[t] = get(t, 0) + c
    return a_off, acc


def strip_sum(start: int, rules: Sequence[Sequence[Tuple[bool, bool, int]]]
              ) -> Dict[int, int]:
    """The matching DP over per-tile rules (`_tile_rules`), as {packed key:
    coefficient}.  A state is (shift, terms), the polynomial of its
    partial matchings with every key of terms moved by shift: a rule adds
    its key to the shift, so only two rules into one state build a dict."""
    states = {True: (start, {0: 1})}
    for tile in rules:
        new: Dict[bool, Tuple[int, Dict[int, int]]] = {}
        for covered, out, k in tile:
            src = states.get(covered)
            if src is not None:
                got = new.get(out)
                new[out] = (src[0] + k, src[1]) if got is None else \
                    _merged(*got, src[0] + k, src[1])
        states = new
    off, terms = states.get(True, (0, {}))
    return dict(zip(map(add, terms, repeat(off)), terms.values()))


def matching_count(turns: Sequence[bool]) -> int:
    """The number of perfect matchings of a snake graph, given per tile
    whether the snake turns there, independent of the DP: the continuant of
    the run lengths of its sign sequence (Çanakçı–Schiffler,
    arXiv:1608.06568), one sign per glue edge plus e_0 and e_d.  Tile k sits
    between signs k and k+1, which differ where the snake goes straight
    through it and agree where it turns, the end tiles counting straight."""
    prev, cur, run = 0, 1, 1
    for turn in turns:
        if not turn:                  # a new run of the sign sequence
            prev, cur, run = cur, run * cur + prev, 0
        run += 1
    return run * cur + prev


# ---------------------------------------------------------------------------
# loop graphs: symmetric matchings and compatible pairs

Role = Tuple[int, str, int]


def gamma_symmetric_filter(lg: LoopGraph, matchings: Iterable[Matching]) -> List[Matching]:
    """Matchings whose restrictions to the two trimmed ends agree under the
    structural end isomorphism, the two roles of tile d - 1's upper side
    exempt."""
    exempt = {(lg.d - 1, "upper", 0), (lg.d - 1, "upper", 1)}
    r1, r2 = lg.end_roles[1], lg.end_roles[2]
    return [P for P in matchings
            if {r1[e] for e in P if e in r1} - exempt ==
            {r2[e] for e in P if e in r2} - exempt]


def perfect_end_restriction(lg: LoopGraph, P: Matching) -> Tuple[int, Dict[Role, int]]:
    """The end on which P restricts to a perfect matching, with the roles of
    the restricted edges.  Raises when neither end works."""
    g = lg.graph
    for which, tiles in ((1, range(lg.d)), (2, range(lg.d + lg.e_p, g.d))):
        roles = lg.end_roles[which]
        restr = [e for e in P if e in roles]
        cover = Counter(v for e in restr for v in g.edge_vertices(g.edges[e]))
        vs = {g.vertex_of[t, c] for t in tiles for c in range(4)}
        if cover.keys() == vs and all(n == 1 for n in cover.values()):
            return which, {roles[e]: e for e in restr}
    raise NotAMatching("matching restricts to a perfect matching on neither end")


def compatible_pairs(lp: LoopGraph, lq: LoopGraph,
                     roles_p: Dict[Matching, Dict[Role, int]],
                     roles_q: Dict[Matching, Dict[Role, int]]
                     ) -> List[Tuple[Matching, Matching]]:
    """Pairs of symmetric matchings whose perfect end restrictions agree.

    lp is the loop graph of the arc oriented toward its first puncture and lq
    the one of the reversed arc, so lq's canonical tile order is flipped
    before comparing.  `roles_p` and `roles_q` map each symmetric matching
    of lp and of lq to the roles of its perfect end restriction, as
    `perfect_end_restriction` gives them; pairs follow their order.
    """
    if lp.d != lq.d:
        raise SurfaceError("loop graphs come from different arcs")
    d = lp.d

    def flip(role: Role) -> Role:
        if role[0] == "glue":
            return ("glue", d - 2 - role[1])
        t, tri, r = role
        return (d - 1 - t, "upper" if tri == "lower" else "lower", r)

    by_key: Dict[FrozenSet[Role], List[Matching]] = {}
    for Q, roles in roles_q.items():
        by_key.setdefault(frozenset(map(flip, roles)), []).append(Q)
    return [(P, Q) for P, roles in roles_p.items()
            for Q in by_key.get(frozenset(roles), [])]
