"""Snake graphs of crossing paths: glued tiles with labeled edges.

One tile per crossing.  A tile is a unit grid square split by its diagonal
(the crossed arc) into two triangle copies: the earlier copy, shared with
the previous crossing, and the later copy, shared with the next.
Consecutive tiles are glued along the edge carrying the third arc of the
triangle between the two crossings, and they have opposite relative
orientation `rel`; once the first tile is placed, that forces the drawing.

Placement is slot arithmetic.  The slots S, E, N, W are numbered 0 to 3
counterclockwise, so slot i + 2 (mod 4) is opposite slot i, and a tile is
one integer `a` besides its `rel`.  The earlier copy's two other sides go
in slots a and a + 1, the later copy's in a + 2 and a + 3; each pair runs
counterclockwise from the diagonal when rel = +1 and clockwise when
rel = -1.  Tile 0 has a = 0 and rel = +1, so a path has one drawing.
Tile k+1 is entered through the slot opposite tile k's exit, and opposite
rels put the glued side at the same end of both its pairs, so every tile
has tile 0's a, turned by t: the fewest quarter turns that make every exit
N or E, so the drawing steps only up (U) or right (R).

Gluing is by slot.  Tile k+1's entry slot (S after an upward step U, W after
a step right R) is tile k's exit slot (N or E): one interior edge.  The two
corners at its ends are shared, SW, SE of tile k+1 being NW, NE of tile k
after U, and SW, NW being SE, NE after R.  Every other edge and corner gets
the next id, tile by tile: edges counterclockwise from slot a, corners in
SW, SE, NE, NW order.  So a tile's `slot_edge`, which lists the entry slot
first and then the others counterclockwise from a, is in edge-id order.

Self-folded triangles are unfolded into the fan around their puncture before
tiling, so a loop-radius-loop pass turns into three tiles that stay glued as
a block (a triple span: tiles j - 1, j, j + 1 for a radius crossing j) and a
path ending at an enclosed puncture gets the tile whose outer edges both
carry the radius.

Loop paths (`build_loop_path`) follow a path or an arc of the triangulation
to a puncture, circle it clockwise from the corner the path ends at and
double back; around a self-folded radius at its own puncture the loop is
the triangulation's.  `expand` reads notched arcs off their ordinary
expansions.
Loop graphs are the snake graphs of loop paths, carrying the roles of the
edges of their two ends (the first and last d tiles), which the structural
isomorphism between the ends preserves; the paper's sums over their
symmetric matchings and compatible pairs are kept as a test oracle.  An
edge's role is its position, 0 or 1, counterclockwise from the diagonal in
its source triangle; it is read off `rel`: the slot at index i of a tile's
`lower_slots` or `upper_slots` has role i when rel = +1 and 1 - i when
rel = -1.

The drawing only steps up or right, so tiles never overlap and each tile
meets only its neighbours, along the glue edges, whose slots from a are its
`shape`.  Every tile therefore keeps an edge on the outer face: the first
slot from a that is no glue slot (`matchings._outer`, which also says
whether P- holds it), and matching heights are read off those edges alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import cycle
from typing import Dict, List, Optional, Tuple, Union

from .surface import (
    CrossingPath,
    Crossing,
    Ordinary,
    PathInvalid,
    SurfaceError,
    Triangulation,
    corner_walk,
    puncture_corner,
    validate_path,
)

__all__ = [
    "Tile",
    "SnakeGraph",
    "LoopGraph",
    "MalformedLoopGraph",
    "NotchedTrianglePresent",
    "EndpointNotPuncture",
    "build_strip",
    "build_tiles",
    "build_snake",
    "build_loop_path",
    "end_subgraphs",
    "build_loop_graph",
    "dump_snake",
]


class MalformedLoopGraph(SurfaceError):
    pass


class NotchedTrianglePresent(SurfaceError):
    pass


class EndpointNotPuncture(SurfaceError):
    pass


def build_strip(T: Triangulation, path: CrossingPath):
    """Unfold a crossing path into strip triangles.

    A strip triangle is (labels, enter, exit): its side labels
    counterclockwise and the indices of the sides the path enters and exits
    by, None at the ends of the path.

    `validate_path` is the only gate: it makes every crossed arc a side of
    the triangles it joins and lets a self-folded triangle be visited only
    by a loop-radius-loop pass or at the end of a path at its puncture."""
    problems = validate_path(T, path)
    if problems:
        raise PathInvalid("; ".join(problems))
    d = path.d
    if d < 1:
        raise PathInvalid("a snake graph needs at least one crossing")
    tris = path.triangle_sequence()
    arcs = path.crossed_arcs()
    strip: List[Tuple[Tuple[str, ...], Optional[int], Optional[int]]] = []

    j = 0
    while j <= d:
        tri = T.triangles[tris[j]]
        enter = arcs[j - 1] if j > 0 else None
        exit_ = arcs[j] if j < d else None
        if isinstance(tri, Ordinary):
            en = None if enter is None else tri.sides.index(enter)
            ex = next((i for i, lab in enumerate(tri.sides)
                       if lab == exit_ and i != en), None)
            strip.append((tri.sides, en, ex))
            j += 1
            continue
        # the fan around the enclosed puncture: radius, loop, radius
        fan = (tri.radius, tri.loop, tri.radius)
        if exit_ == tri.radius:
            # pattern (2): this visit and the next form the fan pass.  The
            # first copy is entered through the loop and left through the
            # radius after it (ccw) or before it (cw); the second is entered
            # through that radius and left through its loop.
            if path.crossings[j].wind == "ccw":
                strip += [(fan, 1, 2), (fan, 0, 1)]
            else:
                strip += [(fan, 1, 0), (fan, 2, 1)]
            j += 2
        else:
            # pattern (1): the path ends (or, read backwards, starts) at the
            # enclosed puncture, crossing the loop
            strip.append((fan, None if enter is None else 1,
                          None if exit_ is None else 1))
            j += 1
    return strip


# ---------------------------------------------------------------------------
# tile placement

_SLOTS = "SENW"                          # counterclockwise
_SLOT_CORNERS = {
    "S": ("SW", "SE"),
    "E": ("SE", "NE"),
    "N": ("NW", "NE"),
    "W": ("SW", "NW"),
}
# the slot of tile k+1 glued to tile k, the slot of tile k glued to tile
# k+1, and the corners of tile k+1 glued to corners of tile k, by glue
# direction
_ENTRY_OF_DIR = {"U": "S", "R": "W"}
_EXIT_SLOT = {"U": "N", "R": "E"}
_GLUED_CORNERS = {"U": {"SW": "NW", "SE": "NE"}, "R": {"SW": "SE", "NW": "NE"}}


@dataclass
class Tile:
    diagonal: str
    rel: int
    pos: Tuple[int, int]
    a: int                               # index in _SLOTS of the earlier copy
    slots: Dict[str, str]                # compass slot -> edge label, ccw from a
    shape: Tuple[Optional[int], Optional[int]]  # (entry, exit) slots from a
    slot_edge: Dict[str, int] = field(default_factory=dict)

    @property
    def lower_slots(self) -> Tuple[str, str]:
        """The slots of the copy of the earlier triangle."""
        return _SLOTS[self.a], _SLOTS[(self.a + 1) % 4]

    @property
    def upper_slots(self) -> Tuple[str, str]:
        return _SLOTS[(self.a + 2) % 4], _SLOTS[(self.a + 3) % 4]


@dataclass
class EdgeInfo:
    eid: int
    label: str
    tiles: List[Tuple[int, str]]
    boundary: bool = True


@dataclass
class SnakeGraph:
    tiles: List[Tile]
    glue: List[str]                      # "U" | "R", between consecutive tiles
    edges: List[EdgeInfo]
    vertex_of: Dict[Tuple[int, str], int]  # (tile, corner) -> vertex id
    nvertices: int
    triple_spans: List[Tuple[int, int, int]]

    @property
    def d(self) -> int:
        return len(self.tiles)

    def edge_vertices(self, e: EdgeInfo) -> Tuple[int, int]:
        tile, slot = e.tiles[0]
        c1, c2 = _SLOT_CORNERS[slot]
        return (self.vertex_of[(tile, c1)], self.vertex_of[(tile, c2)])


def _local_tile(low, up, rel: int):
    """Tile k from low = strip[k], up = strip[k + 1] and its rel, in slots
    from a: (diagonal, labels, entry 0 or 1, exit 2 or 3, None at an end)."""
    (labels, en, ex), (ulabels, uen, uex) = low, up
    lower = ((ex + 1) % 3, (ex + 2) % 3)[::rel]
    upper = ((uen + 1) % 3, (uen + 2) % 3)[::rel]
    return (labels[ex], [labels[i] for i in lower]
            + [ulabels[i] for i in upper],
            None if en is None else lower.index(3 - en - ex),
            None if uex is None else 2 + upper.index(3 - uen - uex))


def build_tiles(T: Triangulation, path: CrossingPath):
    """Place all tiles of the snake graph of the given path by slot
    arithmetic (see the module docstring)."""
    strip = build_strip(T, path)
    placed = list(map(_local_tile, strip, strip[1:], cycle((1, -1))))
    # every tile has tile 0's a, so every exit is 2 or 3: some turn t puts
    # both in E (1) or N (2)
    exits = [tile[3] for tile in placed[:-1]]
    t = next(t for t in range(4) if all((e + t) % 4 in (1, 2) for e in exits))
    glue = ["U" if (e + t) % 4 == 2 else "R" for e in exits]
    order = _SLOTS[t:] + _SLOTS[:t]
    tiles, x = [], 0
    for k, (diag, labels, entry, exit_) in enumerate(placed):
        x += k and glue[k - 1] == "R"       # tile k sits at x + y = k
        tiles.append(Tile(diag, (-1) ** k, (x, k - x), t,
                          dict(zip(order, labels)), (entry, exit_)))
    return tiles, glue


def build_snake(T: Triangulation, path: CrossingPath) -> SnakeGraph:
    """Glue the placed tiles into one graph, numbering edges and vertices
    tile by tile (see the module docstring)."""
    tiles, glue = build_tiles(T, path)
    edges: List[EdgeInfo] = []
    vertex_of: Dict[Tuple[int, str], int] = {}
    nvertices = 0
    for k, tile in enumerate(tiles):
        step = glue[k - 1] if k else None
        glued = _GLUED_CORNERS.get(step, {})
        for corner in ("SW", "SE", "NE", "NW"):
            if corner in glued:
                vertex_of[(k, corner)] = vertex_of[(k - 1, glued[corner])]
            else:
                vertex_of[(k, corner)] = nvertices
                nvertices += 1
        se = tile.slot_edge = {}
        if step:
            e = edges[tiles[k - 1].slot_edge[_EXIT_SLOT[step]]]
            e.tiles.append((k, _ENTRY_OF_DIR[step]))
            e.boundary = False
            se[_ENTRY_OF_DIR[step]] = e.eid
        for slot, label in tile.slots.items():
            if slot not in se:
                se[slot] = len(edges)
                edges.append(EdgeInfo(len(edges), label, [(k, slot)]))
    # `validate_path` flanks every radius crossing by loop crossings
    spans = [(j - 1, j, j + 1) for j, c in enumerate(path.crossings)
             if T.radius_triangle(c.arc) is not None]
    return SnakeGraph(tiles, glue, edges, vertex_of, nvertices, spans)


# ---------------------------------------------------------------------------
# loop paths and loop graphs


def _corridor(T: Triangulation, corner0) -> List[Crossing]:
    """The crossings of one clockwise turn around a puncture from corner0.

    The clockwise walk around the puncture traverses a self-folded triangle
    based there counterclockwise around its enclosed puncture."""
    walk = corner_walk(T, corner0)
    return [Crossing(arc, walk[(i + 1) % len(walk)][0][0],
                     "ccw" if T.radius_triangle(arc) is not None else None)
            for i, (_, arc) in enumerate(walk)]


def build_loop_path(T: Triangulation, gamma: Union[CrossingPath, str],
                    p: str) -> Union[CrossingPath, str]:
    """The crossing path of the loop that follows gamma to the puncture p,
    circles p clockwise and comes back.

    gamma is a crossing path that ends at p, or an arc of the triangulation
    with an end at p; the loop around an arc is based at its far end and
    crosses every other arc end at p, or, for a self-folded radius at its
    own puncture, is the triangulation's loop, whose label is returned."""
    if p not in T.punctures:
        raise EndpointNotPuncture(f"{p!r} is not a puncture")
    sf = T.radius_triangle(gamma) if isinstance(gamma, str) else None
    if sf is not None and sf.puncture == p:
        return sf.loop
    if not isinstance(gamma, str) and T.vertex_name(*gamma.end) != p:
        raise EndpointNotPuncture(f"path does not end at puncture {p!r}")
    if p in T._folded_at:
        raise NotchedTrianglePresent(
            f"an arc of the triangulation is notched at {p!r}")
    if isinstance(gamma, str):
        corridor = _corridor(T, puncture_corner(T, p))
        i = next((i for i, c in enumerate(corridor) if c.arc == gamma), None)
        if i is None:
            raise EndpointNotPuncture(f"arc {gamma!r} has no end at {p!r}")
        loop = corridor[i + 1:] + corridor[:i]
        if not loop:
            raise PathInvalid("loop around the puncture crosses nothing")
        return CrossingPath((corridor[i].to_triangle, loop[0].arc), tuple(loop),
                            (loop[-1].to_triangle, loop[-1].arc))
    end_tri, end_slot = gamma.end
    if gamma.d < 1:
        raise PathInvalid("loop paths need a crossing path with d >= 1")
    t = T.triangles[end_tri]
    if not isinstance(t, Ordinary):
        raise PathInvalid("path must end in an ordinary triangle")
    # the corner at p opposite the end slot, entered through sides[k + 1]
    k = t.sides.index(end_slot)
    corridor = _corridor(T, (end_tri, (k + 1) % 3))
    last = gamma.crossings[-1].arc
    if last in (corridor[0].arc, corridor[-1].arc):
        raise PathInvalid("path is not in minimal position at the notched end "
                          f"(corridor would recross {last!r})")
    crossings = gamma.crossings + tuple(corridor) + gamma.reversed().crossings
    return CrossingPath(gamma.start, crossings, gamma.start)


@dataclass
class LoopGraph:
    graph: SnakeGraph
    d: int
    e_p: int
    end_roles: Dict[int, Dict[int, Tuple[int, str, int]]]
    # end_roles[which_end][edge_id] = (tile 0..d-1 in q->p order, 'lower'|'upper', role)


def _end_role_map(g: SnakeGraph, d: int, e_p: int, which: int):
    """Canonical roles of the end-subgraph edges.

    Roles are expressed in the orientation of the underlying arc: tile t of
    end 1 pairs with tile 2d+e_p-1-t of end 2, the earlier/later triangle
    copies swap, and the position within each pair (ccw from the diagonal of
    the source triangle) is preserved.
    """
    n = 2 * d + e_p
    rng = range(d) if which == 1 else range(d + e_p, n)
    keep = set(rng)
    roles: Dict[int, Tuple] = {}
    for t in rng:
        tile = g.tiles[t]
        can_t = t if which == 1 else n - 1 - t
        lower, upper = ("lower", "upper") if which == 1 else ("upper", "lower")
        for tri, slots in ((lower, tile.lower_slots), (upper, tile.upper_slots)):
            for i, slot in enumerate(slots):
                role = i if tile.rel == 1 else 1 - i
                roles.setdefault(tile.slot_edge[slot], (can_t, tri, role))
    # glue edges between two tiles of the end get a symmetric role, since
    # naming them after either incident tile is not flip-equivariant
    for eid in list(roles):
        tiles_of = [t for t, _ in g.edges[eid].tiles]
        if len(tiles_of) == 2 and all(t in keep for t in tiles_of):
            low = min(tiles_of)
            can = low if which == 1 else n - 2 - low
            roles[eid] = ("glue", can)
    return roles


def end_subgraphs(g: SnakeGraph, d: int, e_p: int) -> LoopGraph:
    n = 2 * d + e_p
    if g.d != n:
        raise MalformedLoopGraph(f"graph has {g.d} tiles, expected {n}")
    roles = {1: _end_role_map(g, d, e_p, 1), 2: _end_role_map(g, d, e_p, 2)}
    if len(roles[1]) != len(roles[2]):
        raise MalformedLoopGraph("end subgraphs have different sizes")
    lab1 = sorted((repr(r), g.edges[e].label) for e, r in roles[1].items())
    lab2 = sorted((repr(r), g.edges[e].label) for e, r in roles[2].items())
    if lab1 != lab2:
        raise MalformedLoopGraph("end subgraphs are not label-isomorphic")
    return LoopGraph(g, d, e_p, roles)


def build_loop_graph(T: Triangulation, path: CrossingPath,
                     p: str) -> LoopGraph:
    lp = build_loop_path(T, path, p)
    g = build_snake(T, lp)
    e_p = lp.d - 2 * path.d
    return end_subgraphs(g, path.d, e_p)


# ---------------------------------------------------------------------------
# text dump


def dump_snake(g: SnakeGraph) -> str:
    lines = [f"tiles {g.d} glue {''.join(g.glue) or '-'}"]
    for i, t in enumerate(g.tiles):
        slots = " ".join(f"{s}={t.slots[s]}" for s in "SENW")
        lines.append(f"tile {i} pos=({t.pos[0]},{t.pos[1]}) diag={t.diagonal} "
                     f"rel={t.rel:+d} {slots}")
    for span in g.triple_spans:
        lines.append(f"triple {span[0]}-{span[2]}")
    return "\n".join(lines)
