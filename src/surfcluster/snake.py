"""Snake graphs of crossing paths: glued tiles with labeled edges.

One tile per crossing.  A tile is a unit grid square split by its diagonal
(the crossed arc) into two triangle copies: the one shared with the previous
crossing and the one shared with the next.  Consecutive tiles are glued along
the edge carrying the third arc of the triangle between the two crossings,
the next tile sitting above or to the right; which one is forced by the
requirement that consecutive tiles have opposite relative orientation.

Self-folded triangles are unfolded into the fan around their puncture before
tiling, so a loop-radius-loop pass turns into three tiles that stay glued as
a block (a triple span) and a path ending at an enclosed puncture gets the
tile whose outer edges both carry the radius.

Loop paths (`build_loop_path`) follow an arc, circle a puncture clockwise
and double back; `expand` reads notched arcs off their ordinary expansions.
Loop graphs are the snake graphs of loop paths, carrying the roles of the
edges of their two ends (the first and last d tiles), the distinguished
vertices where the corridor attaches, and the structural isomorphism between
the ends; the paper's sums over their symmetric matchings and compatible
pairs are kept as a test oracle.

The drawing only steps up or right, so tiles never overlap and each tile
meets only its neighbours, along the glue edges.  Every tile therefore keeps
an edge on the outer face; `build_snake` records one per tile
(`SnakeGraph.outer_edges`), and matching heights are read off those edges
alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .surface import (
    CrossingPath,
    Crossing,
    Ordinary,
    PathInvalid,
    SelfFolded,
    SurfaceError,
    Triangulation,
    corner_walk,
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
    """Unfold a crossing path into strip triangles; also return triple spans."""
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
                elif exit_ is not None and lab == exit_ and exit_slot is None:
                    s = Side(lab)
                    lifts.append(s)
                    exit_slot = i
                else:
                    lifts.append(Side(lab))
            if enter is not None and enter_slot is None:
                raise PathInvalid(f"arc {enter!r} is not a side of triangle {tris[j]}")
            if exit_ is not None and exit_slot is None:
                raise PathInvalid(f"arc {exit_!r} is not a side of triangle {tris[j]}")
            strip.append(StripTri(tuple(lifts), enter_slot, exit_slot))
            pending = strip[-1].exit
            j += 1
            continue

        # self-folded: the visits come in runs handled per pattern
        sf = tri
        if enter == sf.loop and exit_ == sf.radius:
            # pattern (2): this visit and the next form the fan pass
            wind = path.crossings[j].wind
            if wind not in ("ccw", "cw"):
                raise PathInvalid("radius crossing without wind")
            lam0 = pending if pending is not None else Side(sf.loop)
            rho_a, rho_b = Side(sf.radius), Side(sf.radius)
            lam1 = Side(sf.loop)
            if wind == "ccw":
                # (rho0, lam0, rho1) exit rho1; (rho1, lam1, rho2) exit lam1
                rho1 = Side(sf.radius)
                strip.append(StripTri((rho_a, lam0, rho1), 1, 2))
                strip.append(StripTri((rho1, lam1, rho_b), 0, 1))
            else:
                # (rho0, lam0, rho1) exit rho0; (rho-1, lam-1, rho0) exit lam-1
                rho0 = Side(sf.radius)
                strip.append(StripTri((rho0, lam0, rho_a), 1, 0))
                strip.append(StripTri((rho_b, lam1, rho0), 2, 1))
            spans.append((j - 1, j, j + 1))
            pending = lam1
            j += 2
            continue
        if enter == sf.radius and exit_ == sf.loop:
            raise PathInvalid("radius visit not preceded by its loop")  # handled above
        if enter == sf.loop and exit_ is None:
            # pattern (1): terminate at the enclosed puncture
            lam0 = pending if pending is not None else Side(sf.loop)
            strip.append(StripTri((Side(sf.radius), lam0, Side(sf.radius)), 1, None))
            pending = None
            j += 1
            continue
        if enter is None and exit_ == sf.loop:
            # pattern (1) reversed: start at the enclosed puncture
            lam0 = Side(sf.loop)
            strip.append(StripTri((Side(sf.radius), lam0, Side(sf.radius)), None, 1))
            pending = lam0
            j += 1
            continue
        raise PathInvalid(
            f"unsupported visit of self-folded triangle {tris[j]}: {enter!r}->{exit_!r}")

    if len(strip) != d + 1:
        raise PathInvalid("strip length mismatch (self-folded pattern broken)")
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
    lower_roles: Dict[str, int]          # slot -> 0/1, ccw-from-diagonal order
    upper_roles: Dict[str, int]
    slot_edge: Dict[str, int] = field(default_factory=dict)


@dataclass
class EdgeInfo:
    eid: int
    label: str
    side: Side
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
        # role of a pair edge: its position in the ccw-from-diagonal order of
        # the source triangle (intrinsic, used by the end isomorphisms)
        lower_roles = {slot: (0 if side is lower_pair[0] else 1)
                       for slot, side in low.items()}
        upper_roles = {slot: (0 if side is upper_pair[0] else 1)
                       for slot, side in up.items()}
        tiles.append(Tile(diag.label, rel, (0, 0), _EMBEDDING[low_pat],
                          slots, tuple(low.keys()), tuple(up.keys()),
                          lower_roles, upper_roles))
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
        t.lower_roles = {rot[s]: r for s, r in t.lower_roles.items()}
        t.upper_roles = {rot[s]: r for s, r in t.upper_roles.items()}
        t.lower_slots = (rot[t.lower_slots[0]], rot[t.lower_slots[1]])
        t.upper_slots = (rot[t.upper_slots[0]], rot[t.upper_slots[1]])
        if turns % 2:
            t.embedding = "B" if t.embedding == "A" else "A"


def build_snake(T: Triangulation, path: CrossingPath, mirror: bool = False) -> SnakeGraph:
    """Glue the placed tiles into one graph: shared edges and vertices."""
    tiles, glue, spans = build_tiles(T, path, mirror=mirror)
    d = len(tiles)

    # edges: a side lift shared by consecutive tiles is one interior (glue)
    # edge; the same lift reappearing two tiles later is a separate edge
    # (the neighbouring-diagonal labels on the boundary)
    edges: List[EdgeInfo] = []
    by_side: Dict[int, EdgeInfo] = {}
    for k, tile in enumerate(tiles):
        tile.slot_edge = {}
        for slot, side in tile.slots.items():
            e = by_side.get(id(side))
            if e is not None and e.tiles[0][0] == k - 1:
                e.tiles.append((k, slot))
                e.boundary = False
            else:
                c1, c2 = _SLOT_CORNERS[slot]
                cx, cy = tile.pos
                coords = {"SW": (cx, cy), "SE": (cx + 1, cy),
                          "NE": (cx + 1, cy + 1), "NW": (cx, cy + 1)}
                e = EdgeInfo(len(edges), side.label, side, [(k, slot)],
                             (coords[c1], coords[c2]))
                edges.append(e)
                by_side[id(side)] = e
            tile.slot_edge[slot] = e.eid

    # vertices: union-find over (tile, corner)
    parent: Dict[Tuple[int, str], Tuple[int, str]] = {}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for k in range(d):
        for corner in ("SW", "SE", "NE", "NW"):
            parent[(k, corner)] = (k, corner)
    for k, g in enumerate(glue):
        if g == "U":
            union((k, "NW"), (k + 1, "SW"))
            union((k, "NE"), (k + 1, "SE"))
        else:
            union((k, "SE"), (k + 1, "SW"))
            union((k, "NE"), (k + 1, "NW"))
    vid: Dict[Tuple[int, str], int] = {}
    vertex_of: Dict[Tuple[int, str], int] = {}
    for k in range(d):
        for corner in ("SW", "SE", "NE", "NW"):
            r = find((k, corner))
            vertex_of[(k, corner)] = vid.setdefault(r, len(vid))

    outer = [next(eid for eid in t.slot_edge.values() if edges[eid].boundary)
             for t in tiles]
    first = tiles[0]
    return SnakeGraph(tiles, glue, edges, vertex_of, len(vid), spans,
                      _avoid_slots(first.embedding, first.rel), outer)


# ---------------------------------------------------------------------------
# loop paths and loop graphs


def _has_notch_at(T: Triangulation, p: str) -> bool:
    return any(isinstance(t, SelfFolded) and t.puncture == p for t in T.triangles)


def build_loop_path(T: Triangulation, path: CrossingPath, p: str) -> CrossingPath:
    """The crossing path of the loop that follows `path`, circles the
    puncture p clockwise and doubles back."""
    if p not in T.punctures:
        raise EndpointNotPuncture(f"{p!r} is not a puncture")
    end_tri, end_slot = path.end
    if T.vertex_name(end_tri, end_slot) != p:
        raise EndpointNotPuncture(f"path does not end at puncture {p!r}")
    if _has_notch_at(T, p):
        raise NotchedTrianglePresent(
            f"an arc of the triangulation is notched at {p!r}")
    if path.d < 1:
        raise PathInvalid("loop paths need a crossing path with d >= 1")

    t = T.triangles[end_tri]
    if not isinstance(t, Ordinary):
        raise PathInvalid("path must end in an ordinary triangle")
    k = t.vertices.index(p) if t.vertices and p in t.vertices else None
    if k is None:
        raise EndpointNotPuncture(f"triangle {end_tri} does not name vertex {p!r}")
    corner0 = (end_tri, (k + 1) % 3)

    walk = corner_walk(T, corner0)
    corridor: List[Crossing] = []
    prev_arc = path.crossings[-1].arc
    for i, (corner, arc) in enumerate(walk):
        to_tri = walk[(i + 1) % len(walk)][0][0]
        # the clockwise walk around p traverses a self-folded triangle based
        # at p counterclockwise around its enclosed puncture
        wind = "ccw" if T.radius_triangle(arc) is not None else None
        if arc == prev_arc:
            raise PathInvalid(
                "path is not in minimal position at the notched end "
                f"(corridor would recross {arc!r})")
        corridor.append(Crossing(arc, to_tri, wind))
        prev_arc = arc

    rev = path.reversed()
    crossings = list(path.crossings) + corridor + list(rev.crossings)
    return CrossingPath(path.start, tuple(crossings), path.start)


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
        for slot in tile.lower_slots:
            tri = "lower" if which == 1 else "upper"
            eid = tile.slot_edge[slot]
            roles.setdefault(eid, (can_t, tri, tile.lower_roles[slot]))
        for slot in tile.upper_slots:
            tri = "upper" if which == 1 else "lower"
            eid = tile.slot_edge[slot]
            roles.setdefault(eid, (can_t, tri, tile.upper_roles[slot]))
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
