"""The matching sum of an ordinary arc on its snake graph, kept as a test
oracle for the strip kernel of `surfcluster.matchings`.

It reads everything off the `SnakeGraph`: P- from a walk around the
boundary cycle (`boundary_walk`), each tile's outer edge as its first
boundary edge in edge-id order (`outer_edges`), and one packed key per
edge id (`edge_keys`); `transfer_sum` runs the matching DP over those edge
keys through `matchings.strip_sum`.  The strip kernel builds no graph, so
the two routes share the rule table, the DP and the label and phi keys
but not the edge numbering, the outer edges or P-.  `boundary_matchings`
keeps the enumerated matchings that use boundary edges only, a third way
to P- and P+.  `minus_avoid` states which edges of the first tile P-
avoids.

`strip_rules` is the route between the two: it reads the rules of each
tile that `snake.build_tiles` places, keyed by compass slot, which the
transfer table of `matchings.strip_transfers` must reproduce up to the
order of each tile's rules.  It and `transfer_sum` read each tile's shape
off the glue (`glue_slots`), not off `Tile.shape`, which comes from
`snake._local_tile` as the transfer table does, so the two stay
independent routes.  `turns` reads the turn flags of
`matchings.matching_count` off a snake's glue.
"""

from typing import Dict, List, Optional, Sequence, Set, Tuple

from conftest import compass
from surfcluster.matchings import (_RULES, Matching, NotAMatching, _keys,
                                   enumerate_matchings, outer_slots,
                                   strip_sum)
from surfcluster.snake import SnakeGraph, Tile
from surfcluster.surface import Triangulation


def glue_slots(glue: Sequence[str]
               ) -> List[Tuple[Optional[str], Optional[str]]]:
    """Each tile's compass (entry, exit) glue slots as the glue implies
    them: S after U, W after R, N before U, E before R, None at the ends."""
    return list(zip([None] + ["S" if d == "U" else "W" for d in glue],
                    ["N" if d == "U" else "E" for d in glue] + [None]))


def glue_rules(tiles: Sequence[Tile], glue: Sequence[str],
               slot_keys: Sequence[Dict[str, int]]
               ) -> List[List[Tuple[bool, bool, int]]]:
    """Per tile, (covered in, covered out, key) for each rule of the shape
    the glue gives it, the key summing the tile's compass slot keys over
    the slots the rule chooses."""
    out = []
    for tile, keys, sides in zip(tiles, slot_keys, glue_slots(glue)):
        order = compass(tile)
        shape = tuple(None if s is None else order.index(s) for s in sides)
        out.append([(c, o, sum(keys[order[i]] for i in slots))
                    for c, o, slots in _RULES[shape]])
    return out


def strip_rules(T: Triangulation, tiles: Sequence[Tile], glue: Sequence[str],
                bound: int = 0
                ) -> Tuple[int, List[List[Tuple[bool, bool, int]]]]:
    """(start, rules): per tile, (covered in, covered out, key) for each
    rule of its shape, so that x(P)·y(P) is start plus the keys of the
    rules a perfect matching P takes.  A key sums the label keys of the
    chosen slots; phi of the diagonal is added on the outer slot, or, when
    P- holds the outer edge, to the start and taken off the outer slot.
    The keys are of the width that len(tiles) + 1, or `bound` if larger,
    picks."""
    _, weights, phis = _keys(T, max(len(tiles) + 1, bound))
    start, slot_keys = 0, []
    for tile, (outer, minus) in zip(tiles, outer_slots(tiles)):
        keys = {s: weights[label] for s, label in zip(compass(tile),
                                                       tile.labels)}
        phi = phis[tile.diagonal]
        if minus:
            start += phi
            phi = -phi
        keys[compass(tile)[outer]] += phi
        slot_keys.append(keys)
    return start, glue_rules(tiles, glue, slot_keys)


def turns(glue: Sequence[str]) -> List[bool]:
    """Per tile, whether the snake with this glue turns there: the glue
    changes direction through it.  The end tiles count as straight."""
    return [0 < k < len(glue) and glue[k - 1] != glue[k]
            for k in range(len(glue) + 1)]


def outer_edges(g: SnakeGraph) -> List[int]:
    """Per tile, one edge on the outer face: its first boundary edge."""
    return [min(e for e in t.edges if g.edges[e].boundary) for t in g.tiles]


def edge_keys(g: SnakeGraph, T: Triangulation,
              minus: Matching) -> Tuple[int, List[int], int]:
    """(start, keys, bound) with x(P)·y(P) = start + sum(keys[e] for e in
    P) as packed keys, for every perfect matching P of g, and `bound` a
    bound on |exponent| over those monomials.

    A tile whose outer edge o lies in `minus` is enclosed unless o is in P:
    it adds its diagonal to the start and takes it off o.  Any other tile is
    enclosed when o is in P: it adds its diagonal to o.  Each of the d + 1
    edges of P adds at most 1 to an x exponent, and each of the d tiles
    moves a y exponent by at most 1, so d + 1 is the bound.
    """
    _, weights, phis = _keys(T)
    keys = [weights[e.label] for e in g.edges]
    start = 0
    for tile, eid in zip(g.tiles, outer_edges(g)):
        key = phis[tile.diagonal]
        if eid in minus:
            start += key
            keys[eid] -= key
        else:
            keys[eid] += key
    return start, keys, g.d + 1


def transfer_sum(g: SnakeGraph, start: int,
                 keys: Sequence[int]) -> Dict[int, int]:
    """Sum over the perfect matchings P of g of the monomial with packed key
    start + sum(keys[e] for e in P), as {packed key: coefficient}.  With
    every key 0 the result is {0: number of perfect matchings}."""
    slot_keys = [{s: keys[e] for s, e in zip(compass(t), t.edges)}
                 for t in g.tiles]
    return strip_sum(start, glue_rules(g.tiles, g.glue, slot_keys))


def boundary_matchings(g: SnakeGraph) -> List[Matching]:
    """The perfect matchings that use boundary edges only."""
    boundary = {e.eid for e in g.edges if e.boundary}
    return [P for P in enumerate_matchings(g) if P <= boundary]


def minus_avoid(g: SnakeGraph) -> Set[int]:
    """The two edges of the first tile that P- avoids: the sides that
    follow its diagonal counterclockwise, which are slots 0 and 2 from a, the
    first tile having rel = +1."""
    return {g.tiles[0].edges[i] for i in (0, 2)}


def boundary_walk(g: SnakeGraph) -> Tuple[Matching, Matching]:
    """(P-, P+) read off one walk around the boundary cycle: its two sets
    of alternate edges, P- being the one that avoids `minus_avoid`."""
    around: Dict[int, List[Tuple[int, int]]] = {}   # vertex -> (edge, far end)
    for e in g.edges:
        if e.boundary:
            a, b = g.edge_vertices(e)
            around.setdefault(a, []).append((e.eid, b))
            around.setdefault(b, []).append((e.eid, a))
    cycle: List[int] = []
    eid, v = around[0][0]       # vertex 0 is the first tile's SW corner
    while len(cycle) < g.nvertices:
        cycle.append(eid)
        if v == 0 or len(around[v]) != 2:
            break
        (e1, w1), (e2, w2) = around[v]
        eid, v = (e2, w2) if e1 == eid else (e1, w1)
    if v != 0 or len(cycle) != g.nvertices or len(cycle) % 2:
        raise NotAMatching("expected two boundary matchings: the boundary "
                           "is not one even cycle through every vertex")
    sides = (frozenset(cycle[0::2]), frozenset(cycle[1::2]))
    avoid = minus_avoid(g)
    minus = [m for m in sides if avoid.isdisjoint(m)]
    if len(minus) != 1:
        raise NotAMatching("the minimal matching is not determined")
    pm = minus[0]
    return pm, sides[1] if pm is sides[0] else sides[0]

