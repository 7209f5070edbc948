"""Snake graphs of crossing paths: glued tiles with labeled edges.

One tile per crossing.  A tile is a unit grid square split by its diagonal
(the crossed arc) into two triangle copies: the one shared with the previous
crossing and the one shared with the next.  Consecutive tiles are glued along
the edge carrying the third arc of the triangle between the two crossings,
the next tile sitting above or to the right; which one is forced by the
requirement that consecutive tiles have opposite relative orientation.

Gluing is by slot.  Tile k+1's entry slot (S after an upward step U, W after
a step right R) is tile k's exit slot (N or E): one interior edge.  The two
corners at its ends are shared, SW, SE of tile k+1 being NW, NE of tile k
after U, and SW, NW being SE, NE after R.  Every other edge and corner gets
the next id, tile by tile: edges in `Tile.slots` order, corners in SW, SE,
NE, NW order.

Self-folded triangles are unfolded into the fan around their puncture before
tiling, so a loop-radius-loop pass turns into three tiles that stay glued as
a block (a triple span) and a path ending at an enclosed puncture gets the
tile whose outer edges both carry the radius.

Loop paths (`build_loop_path`) follow a path or an arc of the triangulation
to a puncture, circle it clockwise from the corner the path ends at and
double back; `expand` reads notched arcs off their ordinary expansions.
Loop graphs are the snake graphs of loop paths, carrying the roles of the
edges of their two ends (the first and last d tiles), the distinguished
vertices where the corridor attaches, and the structural isomorphism between
the ends; the paper's sums over their symmetric matchings and compatible
pairs are kept as a test oracle.  An edge's role is its position, 0 or 1,
counterclockwise from the diagonal in its source triangle; it is read off
`rel`: the slot at index i of a tile's `lower_slots` or `upper_slots` has
role i when rel = +1 and 1 - i when rel = -1.

The drawing only steps up or right, so tiles never overlap and each tile
meets only its neighbours, along the glue edges.  Every tile therefore keeps
an edge on the outer face; `build_snake` records one per tile
(`SnakeGraph.outer_edges`), and matching heights are read off those edges
alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .surface import (
    CrossingPath,
    Crossing,
    Ordinary,
    PathInvalid,
    SelfFolded,
    SurfaceError,
    Triangulation,
    corner_walk,
    puncture_corner,
    validate_path,
)

__all__ = [
    "Side",
    "StripTri",
    "Tile",
    "SnakeGraph",
    "LoopGraph",
    "GlueConflict",
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


class GlueConflict(SurfaceError):
    pass


class MalformedLoopGraph(SurfaceError):
    pass


class NotchedTrianglePresent(SurfaceError):
    pass


class EndpointNotPuncture(SurfaceError):
    pass


class Side:
    """One lift of an arc in the unfolded strip; identity distinguishes lifts."""

    __slots__ = ("label",)

    def __init__(self, label: str):
        self.label = label

    def __repr__(self):
        return f"Side({self.label})"


@dataclass
class StripTri:
    """A triangle of the unfolded strip: ccw side lifts plus entry/exit slots."""

    sides: Tuple[Side, Side, Side]
    enter_slot: Optional[int]
    exit_slot: Optional[int]

    @property
    def enter(self) -> Optional[Side]:
        return None if self.enter_slot is None else self.sides[self.enter_slot]

    @property
    def exit(self) -> Optional[Side]:
        return None if self.exit_slot is None else self.sides[self.exit_slot]

    def third(self) -> Side:
        """The side that is neither entered nor exited."""
        for i, s in enumerate(self.sides):
            if i != self.enter_slot and i != self.exit_slot:
                return s
        raise SurfaceError("degenerate strip triangle")

    def from_slot(self, slot: int) -> Tuple[Side, Side, Side]:
        """Cyclic rotation of the ccw sides starting at the given slot."""
        s = self.sides
        return (s[slot], s[(slot + 1) % 3], s[(slot + 2) % 3])


def build_strip(T: Triangulation, path: CrossingPath) -> Tuple[List[StripTri], List[Tuple[int, int, int]]]:
    """Unfold a crossing path into strip triangles; also return triple spans.

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
    strip: List[StripTri] = []
    spans: List[Tuple[int, int, int]] = []
    pending: Optional[Side] = None  # lift shared with the previous strip triangle

    j = 0
    while j <= d:
        tri = T.triangles[tris[j]]
        enter = arcs[j - 1] if j > 0 else None
        exit_ = arcs[j] if j < d else None
        if isinstance(tri, Ordinary):
            lifts = []
            enter_slot = exit_slot = None
            for i, lab in enumerate(tri.sides):
                if enter is not None and lab == enter and enter_slot is None:
                    lifts.append(pending)
                    enter_slot = i
                else:
                    lifts.append(Side(lab))
                    if exit_ is not None and lab == exit_ and exit_slot is None:
                        exit_slot = i
            strip.append(StripTri(tuple(lifts), enter_slot, exit_slot))
            pending = strip[-1].exit
            j += 1
        elif exit_ == tri.radius:
            # pattern (2): this visit and the next form the fan pass
            lam0 = pending
            rho_a, rho_b = Side(tri.radius), Side(tri.radius)
            lam1 = Side(tri.loop)
            if path.crossings[j].wind == "ccw":
                # (rho0, lam0, rho1) exit rho1; (rho1, lam1, rho2) exit lam1
                rho1 = Side(tri.radius)
                strip.append(StripTri((rho_a, lam0, rho1), 1, 2))
                strip.append(StripTri((rho1, lam1, rho_b), 0, 1))
            else:
                # (rho0, lam0, rho1) exit rho0; (rho-1, lam-1, rho0) exit lam-1
                rho0 = Side(tri.radius)
                strip.append(StripTri((rho0, lam0, rho_a), 1, 0))
                strip.append(StripTri((rho_b, lam1, rho0), 2, 1))
            spans.append((j - 1, j, j + 1))
            pending = lam1
            j += 2
        else:
            # pattern (1): the path ends (or, read backwards, starts) at the
            # enclosed puncture, crossing the loop
            lam0 = Side(tri.loop) if enter is None else pending
            strip.append(StripTri((Side(tri.radius), lam0, Side(tri.radius)),
                                  None if enter is None else 1,
                                  None if exit_ is None else 1))
            pending = None if exit_ is None else lam0
            j += 1
    return strip, spans


# ---------------------------------------------------------------------------
# tile placement

_SLOT_CORNERS = {
    "S": ("SW", "SE"),
    "E": ("SE", "NE"),
    "N": ("NW", "NE"),
    "W": ("SW", "NW"),
}

# drawn cyclic order (diag, a, b) for each triangle position in an embedding
_PAIR_PATTERN = {
    "A_lower": ("S", "E"),
    "A_upper": ("N", "W"),
    "B_left": ("W", "S"),
    "B_right": ("E", "N"),
}
_COMPLEMENT = {"A_lower": "A_upper", "A_upper": "A_lower",
               "B_left": "B_right", "B_right": "B_left"}
_EMBEDDING = {"A_lower": "A", "A_upper": "A", "B_left": "B", "B_right": "B"}
# pair patterns containing a given slot (candidate homes for the entry copy)
_PAIRS_WITH = {
    "S": ("A_lower", "B_left"),
    "W": ("A_upper", "B_left"),
    "N": ("A_upper", "B_right"),
    "E": ("A_lower", "B_right"),
}
_DIR_OF_SLOT = {"N": "U", "E": "R", "S": "D", "W": "L"}
_ENTRY_OF_DIR = {"U": "S", "R": "W", "D": "N", "L": "E"}
# the slot of tile k glued to tile k+1, and the corners of tile k+1 glued
# to corners of tile k, by glue direction
_EXIT_SLOT = {"U": "N", "R": "E"}
_GLUED_CORNERS = {"U": {"SW": "NW", "SE": "NE"}, "R": {"SW": "SE", "NW": "NE"}}
_CORNER_AT = {"SW": (0, 0), "SE": (1, 0), "NE": (1, 1), "NW": (0, 1)}
_DIR_VEC = {"U": (0, 1), "R": (1, 0), "D": (0, -1), "L": (-1, 0)}


def _turned(step: Dict[str, str]) -> List[Dict[str, str]]:
    """The maps of 0, 1, 2 and 3 steps."""
    out = [{k: k for k in step}]
    for _ in range(3):
        out.append({k: step[v] for k, v in out[-1].items()})
    return out


# 0..3 counterclockwise quarter turns of the drawing
_ROT_SLOTS = _turned({"S": "E", "E": "N", "N": "W", "W": "S"})
_ROT_DIRS = _turned({"U": "L", "L": "D", "D": "R", "R": "U"})


@dataclass
class Tile:
    diagonal: str
    rel: int
    pos: Tuple[int, int]
    embedding: str                       # "A" (SW-NE diagonal) or "B" (SE-NW)
    slots: Dict[str, Side]               # compass slot -> side lift
    lower_slots: Tuple[str, str]         # copy of the earlier triangle
    upper_slots: Tuple[str, str]
    slot_edge: Dict[str, int] = field(default_factory=dict)


@dataclass
class EdgeInfo:
    eid: int
    label: str
    tiles: List[Tuple[int, str]]
    segment: Tuple[Tuple[int, int], Tuple[int, int]]
    boundary: bool = True


@dataclass
class SnakeGraph:
    tiles: List[Tile]
    glue: List[str]                      # "U" | "R", between consecutive tiles
    edges: List[EdgeInfo]
    vertex_of: Dict[Tuple[int, str], int]  # (tile, corner) -> vertex id
    nvertices: int
    triple_spans: List[Tuple[int, int, int]]
    minus_avoid_slots: Tuple[str, str]   # slots of tile 0 avoided by P-
    outer_edges: List[int]               # per tile, one edge on the outer face

    @property
    def d(self) -> int:
        return len(self.tiles)

    def edge_vertices(self, e: EdgeInfo) -> Tuple[int, int]:
        tile, slot = e.tiles[0]
        c1, c2 = _SLOT_CORNERS[slot]
        return (self.vertex_of[(tile, c1)], self.vertex_of[(tile, c2)])


def _place_pair(pattern: str, rel: int, pair: Tuple[Side, Side]) -> Dict[str, Side]:
    a, b = _PAIR_PATTERN[pattern]
    u, v = pair if rel == 1 else (pair[1], pair[0])
    return {a: u, b: v}


def _avoid_slots(embedding: str, rel: int) -> Tuple[str, str]:
    # the two edges adjacent counterclockwise (rel=+1) or clockwise (rel=-1)
    # to the first tile's diagonal endpoints
    if embedding == "A":
        return ("S", "N") if rel == 1 else ("E", "W")
    return ("E", "W") if rel == 1 else ("S", "N")


def build_tiles(T: Triangulation, path: CrossingPath, mirror: bool = False):
    """Place all tiles of the snake graph of the given path.

    Placement is forced tile by tile: consecutive tiles carry opposite
    relative orientations and share the third arc of the triangle between
    their crossings.  The drawing may come out pointing into any quadrant;
    it is rotated afterwards so consecutive tiles always sit above or to
    the right.
    """
    strip, spans = build_strip(T, path)
    d = len(strip) - 1
    tiles: List[Tile] = []
    glue: List[str] = []  # directions, possibly in {U, R, D, L} before rotation

    rel = -1 if mirror else 1
    # tile numbering is 0-based; tile k sits between strip[k], strip[k+1]
    for k in range(d):
        lower_tri = strip[k]
        upper_tri = strip[k + 1]
        diag = lower_tri.exit
        assert diag is upper_tri.enter
        lower_pair = lower_tri.from_slot(lower_tri.exit_slot)[1:]
        upper_pair = upper_tri.from_slot(upper_tri.enter_slot)[1:]
        glue_next = upper_tri.third() if k < d - 1 else None

        if k == 0:
            low_pat = "A_lower"
            low = _place_pair(low_pat, rel, lower_pair)
            up = _place_pair(_COMPLEMENT[low_pat], rel, upper_pair)
        else:
            entry_slot = _ENTRY_OF_DIR[glue[-1]]
            rel = -rel
            glue_prev = lower_tri.third()
            placed = None
            for low_pat in _PAIRS_WITH[entry_slot]:
                low = _place_pair(low_pat, rel, lower_pair)
                if low.get(entry_slot) is glue_prev:
                    up = _place_pair(_COMPLEMENT[low_pat], rel, upper_pair)
                    placed = (low_pat, low, up)
                    break
            if placed is None:
                raise GlueConflict(f"cannot place tile {k}")
            low_pat, low, up = placed

        slots = dict(low)
        slots.update(up)
        tiles.append(Tile(diag.label, rel, (0, 0), _EMBEDDING[low_pat],
                          slots, tuple(low.keys()), tuple(up.keys())))
        if glue_next is not None:
            slot = next(s for s, side in up.items() if side is glue_next)
            glue.append(_DIR_OF_SLOT[slot])

    _rotate_into_quadrant(tiles, glue)
    pos = (0, 0)
    tiles[0].pos = pos
    for k, g in enumerate(glue):
        dx, dy = _DIR_VEC[g]
        pos = (pos[0] + dx, pos[1] + dy)
        tiles[k + 1].pos = pos
    return tiles, glue, spans


def _rotate_into_quadrant(tiles: List[Tile], glue: List[str]) -> None:
    """Rotate the whole drawing so every glue direction is U or R: find the
    number of quarter turns from the glue, then remap each tile once."""
    turns = next((t for t in range(4)
                  if all(_ROT_DIRS[t][g] in "UR" for g in glue)), None)
    if turns is None:
        raise GlueConflict("snake drawing does not fit a single quadrant")
    if not turns:
        return
    rot, rot_dir = _ROT_SLOTS[turns], _ROT_DIRS[turns]
    glue[:] = [rot_dir[g] for g in glue]
    for t in tiles:
        t.slots = {rot[s]: side for s, side in t.slots.items()}
        t.lower_slots = (rot[t.lower_slots[0]], rot[t.lower_slots[1]])
        t.upper_slots = (rot[t.upper_slots[0]], rot[t.upper_slots[1]])
        if turns % 2:
            t.embedding = "B" if t.embedding == "A" else "A"


def build_snake(T: Triangulation, path: CrossingPath, mirror: bool = False) -> SnakeGraph:
    """Glue the placed tiles into one graph, numbering edges and vertices
    tile by tile (see the module docstring)."""
    tiles, glue, spans = build_tiles(T, path, mirror=mirror)
    edges: List[EdgeInfo] = []
    vertex_of: Dict[Tuple[int, str], int] = {}
    nvertices = 0
    for k, tile in enumerate(tiles):
        step = glue[k - 1] if k else None
        entry, glued = _ENTRY_OF_DIR.get(step), _GLUED_CORNERS.get(step, {})
        x, y = tile.pos
        for corner in ("SW", "SE", "NE", "NW"):
            if corner in glued:
                vertex_of[(k, corner)] = vertex_of[(k - 1, glued[corner])]
            else:
                vertex_of[(k, corner)] = nvertices
                nvertices += 1
        tile.slot_edge = {}
        for slot, side in tile.slots.items():
            if slot == entry:
                e = edges[tiles[k - 1].slot_edge[_EXIT_SLOT[step]]]
                e.tiles.append((k, slot))
                e.boundary = False
            else:
                (dx1, dy1), (dx2, dy2) = (_CORNER_AT[c] for c in _SLOT_CORNERS[slot])
                e = EdgeInfo(len(edges), side.label, [(k, slot)],
                             ((x + dx1, y + dy1), (x + dx2, y + dy2)))
                edges.append(e)
            tile.slot_edge[slot] = e.eid

    outer = [next(eid for eid in t.slot_edge.values() if edges[eid].boundary)
             for t in tiles]
    first = tiles[0]
    return SnakeGraph(tiles, glue, edges, vertex_of, nvertices, spans,
                      _avoid_slots(first.embedding, first.rel), outer)


# ---------------------------------------------------------------------------
# loop paths and loop graphs


def _has_notch_at(T: Triangulation, p: str) -> bool:
    return any(isinstance(t, SelfFolded) and t.puncture == p for t in T.triangles)


def _corridor(T: Triangulation, corner0) -> List[Crossing]:
    """The crossings of one clockwise turn around a puncture from corner0.

    The clockwise walk around the puncture traverses a self-folded triangle
    based there counterclockwise around its enclosed puncture."""
    walk = corner_walk(T, corner0)
    return [Crossing(arc, walk[(i + 1) % len(walk)][0][0],
                     "ccw" if T.radius_triangle(arc) is not None else None)
            for i, (_, arc) in enumerate(walk)]


def build_loop_path(T: Triangulation, gamma: Union[CrossingPath, str],
                    p: str) -> CrossingPath:
    """The crossing path of the loop that follows gamma to the puncture p,
    circles p clockwise and comes back.

    gamma is a crossing path that ends at p, or an arc of the triangulation
    with an end at p; the loop around an arc is based at its far end and
    crosses every other arc end at p."""
    if p not in T.punctures:
        raise EndpointNotPuncture(f"{p!r} is not a puncture")
    if not isinstance(gamma, str) and T.vertex_name(*gamma.end) != p:
        raise EndpointNotPuncture(f"path does not end at puncture {p!r}")
    if _has_notch_at(T, p):
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
    zeta: Tuple[str, ...]
    v1: int
    v2: int
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
    zeta = tuple(g.tiles[d + i].diagonal for i in range(e_p))

    # v1: vertex of tile d-1 where its outer (later-triangle) pair meets
    def pair_corner(tile_idx: int, slots: Tuple[str, str]) -> int:
        c1 = set(_SLOT_CORNERS[slots[0]])
        c2 = set(_SLOT_CORNERS[slots[1]])
        shared = c1 & c2
        if len(shared) != 1:
            raise MalformedLoopGraph("outer pair does not share a corner")
        return g.vertex_of[(tile_idx, shared.pop())]

    v1 = pair_corner(d - 1, g.tiles[d - 1].upper_slots)
    v2 = pair_corner(d + e_p, g.tiles[d + e_p].lower_slots)

    roles = {1: _end_role_map(g, d, e_p, 1), 2: _end_role_map(g, d, e_p, 2)}
    if len(roles[1]) != len(roles[2]):
        raise MalformedLoopGraph("end subgraphs have different sizes")
    lab1 = sorted((repr(r), g.edges[e].label) for e, r in roles[1].items())
    lab2 = sorted((repr(r), g.edges[e].label) for e, r in roles[2].items())
    if lab1 != lab2:
        raise MalformedLoopGraph("end subgraphs are not label-isomorphic")
    return LoopGraph(g, d, e_p, zeta, v1, v2, roles)


def build_loop_graph(T: Triangulation, path: CrossingPath, p: str,
                     mirror: bool = False) -> LoopGraph:
    lp = build_loop_path(T, path, p)
    g = build_snake(T, lp, mirror=mirror)
    e_p = lp.d - 2 * path.d
    return end_subgraphs(g, path.d, e_p)


# ---------------------------------------------------------------------------
# text dump


def dump_snake(g: SnakeGraph) -> str:
    lines = [f"tiles {g.d} glue {''.join(g.glue) or '-'}"]
    for i, t in enumerate(g.tiles):
        slots = " ".join(f"{s}={t.slots[s].label}" for s in ("S", "E", "N", "W"))
        lines.append(f"tile {i} pos=({t.pos[0]},{t.pos[1]}) diag={t.diagonal} "
                     f"rel={t.rel:+d} {slots}")
    for span in g.triple_spans:
        lines.append(f"triple {span[0]}-{span[2]}")
    return "\n".join(lines)
