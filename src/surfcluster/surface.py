"""Combinatorial bordered surfaces with marked points and ideal triangulations.

Arcs, boundary segments and punctures are opaque string labels.  A triangle
is either ordinary, with its three sides listed counterclockwise (the single
global orientation convention), or self-folded (a loop wrapping a radius that
ends at a puncture).  No geometry is stored; an arc not in the triangulation
exists only as a CrossingPath, the sequence of triangles it traverses and
arcs it crosses.

Vertex slots are addressed per triangle: on an ordinary triangle by the label
of the opposite side, on a self-folded triangle by "puncture" or "base".
Ordinary triangles may name their vertices (vertices[i] is opposite sides[i]),
which is how punctures away from self-folded triangles are located; a corner
walk cross-checks the naming and recovers the clockwise order of arc ends
around each puncture.

Data that depends on the triangulation alone is kept on the Triangulation,
never in a module-level cache.  The arc and boundary label sets behind
`is_arc` and `is_boundary`, the label -> slots map, every vertex's clockwise
corner walk and the corner orbits are built with it, as validating a surface
reads all of them; so are each triangle's side set, the self-folded
triangles and the vertex slots that resolve, from which `validate_path`
checks a path, self-folded patterns included, in one pass over its
crossings.  Building T also keeps what notched arcs and tag switching read
about punctures: each corner's vertex name, the first corner that names
each vertex (where `arcs_around_puncture` starts its walk), the
self-folded triangle around each puncture and the puncture ends of each
arc, so no module scans the triangles for a puncture.  Each edge label's
packed weight key, and each diagonal's packed phi key, in the ring of T's
tagged names of each digit width, are filled in by `matchings` the first
time that width is needed.  Nothing for one arc is kept.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple, Union

__all__ = [
    "Topology",
    "Ordinary",
    "SelfFolded",
    "Triangle",
    "Triangulation",
    "Crossing",
    "CrossingPath",
    "TaggedArcRef",
    "SurfaceError",
    "NotAPuncture",
    "PathInvalid",
    "validate_surface",
    "signed_adjacency",
    "validate_path",
    "arcs_around_puncture",
]


class SurfaceError(ValueError):
    pass


class NotAPuncture(SurfaceError):
    pass


class PathInvalid(SurfaceError):
    pass


@dataclass(frozen=True)
class Topology:
    genus: int
    boundary_components: int
    punctures: int
    boundary_marked: int


@dataclass(frozen=True)
class Ordinary:
    sides: Tuple[str, str, str]          # counterclockwise
    vertices: Optional[Tuple[str, str, str]] = None  # vertices[i] opposite sides[i]


@dataclass(frozen=True)
class SelfFolded:
    loop: str
    radius: str
    puncture: str
    base: Optional[str] = None           # name of the basepoint vertex
    notched_label: Optional[str] = None  # tagged name of the notched twin


Triangle = Union[Ordinary, SelfFolded]


@dataclass(frozen=True)
class Triangulation:
    arcs: Tuple[str, ...]
    boundary: Tuple[str, ...]
    punctures: Tuple[str, ...]
    triangles: Tuple[Triangle, ...]
    topology: Topology
    _loops: Dict[str, SelfFolded] = field(init=False, repr=False, compare=False)
    _radii: Dict[str, SelfFolded] = field(init=False, repr=False, compare=False)
    _arc_set: FrozenSet[str] = field(init=False, repr=False, compare=False)
    _boundary_set: FrozenSet[str] = field(init=False, repr=False, compare=False)
    # for `validate_path`: each triangle's side set, the self-folded
    # triangles, and the (triangle, vertex slot) pairs `vertex_name` resolves
    _sides: Tuple = field(init=False, repr=False, compare=False)
    _self_folded: FrozenSet[int] = field(init=False, repr=False, compare=False)
    _vertex_slots: FrozenSet = field(init=False, repr=False, compare=False)
    # arc label -> list of (triangle, slot) over pseudo-sides
    _side_slots: Dict[str, List[Tuple[int, int]]] = field(
        init=False, repr=False, compare=False)
    # corner -> its vertex name; vertex name -> the first corner, in
    # triangle and vertex order, that names it (a self-folded base names
    # none); puncture -> the self-folded triangle around it; arc -> its
    # puncture ends, puncture by puncture, once per end
    _names: Dict[Tuple[int, int], Optional[str]] = field(
        init=False, repr=False, compare=False)
    _first_corner: Dict[str, Tuple[int, int]] = field(
        init=False, repr=False, compare=False)
    _folded_at: Dict[str, SelfFolded] = field(init=False, repr=False,
                                              compare=False)
    _arc_ends: Dict[str, List[str]] = field(init=False, repr=False,
                                            compare=False)
    # corner -> (the closed clockwise walk around its vertex as (corner,
    # exit side) steps, the corner's place in it); and the corner orbits
    _walks: Dict[Tuple[int, int], Tuple[Tuple, int]] = field(
        init=False, repr=False, compare=False)
    _orbits: List[List[Tuple[int, int]]] = field(
        init=False, repr=False, compare=False)
    # digit width -> the ring and packed keys of `matchings._keys`, and ->
    # the tile transfers of `matchings.strip_transfers` by a path's two
    # steps (`snake.path_steps`) around the tile; built on first use
    key_table: Dict[int, Tuple] = field(default_factory=dict, init=False,
                                        repr=False, compare=False)
    transfer_table: Dict[int, Dict] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        loops, radii, folded, names, first = {}, {}, {}, {}, {}
        slots: Dict[str, List[Tuple[int, int]]] = {}
        for i, t in enumerate(self.triangles):
            for j, s in enumerate(_pseudo_sides(t)):
                slots.setdefault(s, []).append((i, j))
            if isinstance(t, SelfFolded):
                loops[t.loop] = radii[t.radius] = folded[t.puncture] = t
                names.update({(i, 0): t.puncture, (i, 1): t.base,
                              (i, 2): t.base})
                first.setdefault(t.puncture, (i, 0))
            else:
                for k, v in enumerate(t.vertices or ()):
                    names[(i, (k + 1) % 3)] = v     # opposite sides[k]
                    first.setdefault(v, (i, (k + 1) % 3))
        object.__setattr__(self, "_loops", loops)
        object.__setattr__(self, "_radii", radii)
        object.__setattr__(self, "_folded_at", folded)
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_first_corner", first)
        object.__setattr__(self, "_arc_set", frozenset(self.arcs))
        object.__setattr__(self, "_boundary_set", frozenset(self.boundary))
        tris = range(len(self.triangles))
        object.__setattr__(self, "_sides", tuple(
            frozenset(self.triangle_sides(i)) for i in tris))
        object.__setattr__(self, "_self_folded", frozenset(
            i for i in tris if isinstance(self.triangles[i], SelfFolded)))
        object.__setattr__(self, "_vertex_slots", frozenset(
            (i, s) for i, t in enumerate(self.triangles) for s in (
                ("puncture", "base") if isinstance(t, SelfFolded)
                else t.sides)))
        object.__setattr__(self, "_side_slots", slots)
        # one clockwise step from corner k exits through slot k + 1 and
        # resumes at the other slot of that side; a boundary side, or a
        # label without exactly two slots, ends the walk
        step = {}
        for i, t in enumerate(self.triangles):
            for k, s in enumerate(_pseudo_sides(t)):
                pair = slots[s]
                if len(pair) == 2 and s not in self._boundary_set:
                    step[(i, (k - 1) % 3)] = pair[pair[0] == (i, k)]
        corners = [(i, k) for i in range(len(self.triangles)) for k in range(3)]
        reached = set(step.values())
        walks, orbits, seen = {}, [], set()
        # steps are one-to-one: walks from corners no step reaches end,
        # every other walk closes
        for c0 in [c for c in corners if c not in reached] + corners:
            if c0 in seen:
                continue
            walk, c = [c0], step.get(c0)
            while c is not None and c != c0:
                walk.append(c)
                c = step.get(c)
            seen.update(walk)
            orbits.append(sorted(walk))
            if c == c0:
                cycle = tuple((c, _pseudo_sides(self.triangles[c[0]])[
                    (c[1] + 1) % 3]) for c in walk)
                walks.update((c, (cycle, j)) for j, c in enumerate(walk))
        object.__setattr__(self, "_walks", walks)
        object.__setattr__(self, "_orbits", sorted(orbits))
        # a puncture no corner locates, or one on the boundary, has no ends
        # here; `validate_surface` reports it
        ends: Dict[str, List[str]] = {}
        for p in self.punctures:
            cycle, _ = walks.get(first.get(p), ((), 0))
            for _, arc in cycle:
                ends.setdefault(arc, []).append(p)
        object.__setattr__(self, "_arc_ends", ends)

    # -- label classification ------------------------------------------

    def is_arc(self, label: str) -> bool:
        return label in self._arc_set

    def is_boundary(self, label: str) -> bool:
        return label in self._boundary_set

    def loop_triangle(self, label: str) -> Optional[SelfFolded]:
        """The self-folded triangle whose loop is `label`, if any."""
        return self._loops.get(label)

    def radius_triangle(self, label: str) -> Optional[SelfFolded]:
        return self._radii.get(label)

    def tagged_name(self, label: str) -> str:
        """Tagged-arc name of an ideal arc: loops become the notched twin."""
        sf = self._loops.get(label)
        return label if sf is None else self.notched_twin(sf.radius)

    def tagged_names(self) -> Tuple[str, ...]:
        return tuple(self.tagged_name(a) for a in self.arcs)

    def notched_twin(self, radius: str) -> str:
        """Tagged name of the notched twin of a self-folded radius."""
        sf = self._radii.get(radius)
        if sf is None:
            raise SurfaceError(f"{radius!r} is not a self-folded radius")
        return sf.notched_label or f"{radius}~{sf.puncture}"

    def triangle_sides(self, idx: int) -> Tuple[str, ...]:
        t = self.triangles[idx]
        if isinstance(t, Ordinary):
            return t.sides
        return (t.loop, t.radius)

    def triangles_with_side(self, label: str) -> List[int]:
        return list(dict.fromkeys(i for i, _ in self._side_slots.get(label, ())))

    def vertex_name(self, tri: int, slot: str) -> Optional[str]:
        """Resolve a vertex slot to its global name, when known."""
        if not 0 <= tri < len(self.triangles):
            raise SurfaceError(f"triangle index {tri} out of range")
        t = self.triangles[tri]
        if isinstance(t, SelfFolded):
            if slot in ("puncture", "base"):
                return self._names.get((tri, int(slot == "base")))
            raise SurfaceError(f"bad vertex slot {slot!r} for self-folded triangle")
        if slot not in t.sides:
            raise SurfaceError(f"vertex slot {slot!r} is not a side of triangle {tri}")
        return self._names.get((tri, (t.sides.index(slot) + 1) % 3))


class Crossing(NamedTuple):
    arc: str
    to_triangle: int
    wind: Optional[str] = None   # "ccw" | "cw"; set on radius crossings


@dataclass(frozen=True)
class CrossingPath:
    start: Tuple[int, str]               # (triangle index, vertex slot)
    crossings: Tuple[Crossing, ...]
    end: Tuple[int, str]

    @property
    def d(self) -> int:
        return len(self.crossings)

    def triangle_sequence(self) -> Tuple[int, ...]:
        return (self.start[0],) + tuple(c.to_triangle for c in self.crossings)

    def crossed_arcs(self) -> Tuple[str, ...]:
        return tuple(c.arc for c in self.crossings)

    def reversed(self) -> "CrossingPath":
        tris = self.triangle_sequence()
        out = []
        for j in range(self.d - 1, -1, -1):
            c = self.crossings[j]
            wind = None
            if c.wind is not None:
                wind = "cw" if c.wind == "ccw" else "ccw"
            out.append(Crossing(c.arc, tris[j], wind))
        return CrossingPath(self.end, tuple(out), self.start)


@dataclass(frozen=True)
class TaggedArcRef:
    base: Union[str, CrossingPath]       # arc of T, or an explicit path
    notch_start: bool = False
    notch_end: bool = False


# ---------------------------------------------------------------------------
# validation


def validate_surface(T: Triangulation) -> List[str]:
    """Return all violated invariants; the empty list means the surface is ok."""
    v: List[str] = []
    topo = T.topology
    g, b, p, c = (topo.genus, topo.boundary_components,
                  topo.punctures, topo.boundary_marked)

    negative = [k for k, count in vars(topo).items() if count < 0]
    if negative:
        v.append(f"topology: {', '.join(negative)} must not be negative")
    if len(T.punctures) != p:
        v.append(f"{len(T.punctures)} punctures listed, topology has {p}")
    if len(T.boundary) != c:
        v.append(f"{len(T.boundary)} boundary segments listed, topology has "
                 f"{c} boundary marked points")

    labels = list(T.arcs) + list(T.boundary) + list(T.punctures)
    if len(set(labels)) != len(labels):
        v.append("labels are not unique across arcs, boundary and punctures")

    if b == 0 and g == 0 and p <= 3:
        v.append("forbidden surface: sphere with at most three punctures")
    if b == 1 and g == 0 and c == 1 and p <= 1:
        v.append("forbidden surface: monogon with at most one puncture")
    if b == 1 and g == 0 and p == 0 and c in (2, 3):
        v.append("forbidden surface: unpunctured bigon or triangle")
    if b > 0 and c < b:
        v.append("each boundary component needs a marked point")

    n_expect = 6 * g + 3 * b + 3 * p + c - 6
    if len(T.arcs) != n_expect:
        v.append(f"arc count {len(T.arcs)} != 6g+3b+3p+c-6 = {n_expect}")
    t_expect = 4 * g + 2 * b + 2 * p + c - 4
    if len(T.triangles) != t_expect:
        v.append(f"triangle count {len(T.triangles)} != 4g+2b+2p+c-4 = {t_expect}")

    slots: Dict[str, int] = {x: 0 for x in list(T.arcs) + list(T.boundary)}
    for i, t in enumerate(T.triangles):
        if isinstance(t, SelfFolded):
            if t.loop == t.radius:
                v.append(f"triangle {i}: self-folded loop equals radius")
            for lab, what in ((t.loop, "loop"), (t.radius, "radius")):
                if lab not in T.arcs:
                    v.append(f"triangle {i}: self-folded {what} {lab!r} is not an internal arc")
            if t.puncture not in T.punctures:
                v.append(f"triangle {i}: {t.puncture!r} is not a puncture")
            slots[t.loop] = slots.get(t.loop, 0) + 1
            slots[t.radius] = slots.get(t.radius, 0) + 2
        else:
            if len(t.sides) != 3:
                v.append(f"triangle {i}: needs exactly three sides")
                continue
            if len(set(t.sides)) != 3:
                v.append(f"triangle {i}: ordinary triangle with repeated side")
            for s in t.sides:
                if s not in slots:
                    v.append(f"triangle {i}: unknown side label {s!r}")
                else:
                    slots[s] += 1

    for a in T.arcs:
        if slots.get(a, 0) > 2:
            v.append(f"arc {a!r} occurs in more than two triangle slots")
        elif slots.get(a, 0) != 2:
            v.append(f"arc {a!r} occurs in {slots.get(a, 0)} triangle slots, expected 2")
    for s in T.boundary:
        if slots.get(s, 0) != 1:
            v.append(f"boundary segment {s!r} occurs in {slots.get(s, 0)} slots, expected 1")

    if not v:
        if (cycles := _boundary_cycles(T)) != b:
            v.append(f"boundary segments close up into {cycles} cycles, "
                     f"topology has {b} boundary components")
        v.extend(_check_vertex_names(T))
    return v


def _boundary_cycles(T: Triangulation) -> int:
    """The cycles the boundary segments close up into: components of the
    corner orbits joined by boundary side j of a triangle's corners j-1, j."""
    orbit_of = {c: n for n, orbit in enumerate(T._orbits) for c in orbit}
    parts: List[set] = []
    for i, j in (slot for s in T.boundary for slot in T._side_slots[s]):
        ends = {orbit_of[(i, j)], orbit_of[(i, (j - 1) % 3)]}
        joined = [p for p in parts if p & ends]
        parts = [p for p in parts if not p & ends] + [ends.union(*joined)]
    return len(parts)


def _check_vertex_names(T: Triangulation) -> List[str]:
    """Verify declared vertex names against the corner-orbit structure: the
    marked points are exactly the triangulation's vertices, one name each."""
    out = [f"puncture {p!r} is not located by any triangle vertex"
           for p in T.punctures if p not in T._first_corner]
    marked = T.topology.punctures + T.topology.boundary_marked
    if len(T._orbits) != marked:
        out.append(f"the triangles glue into {len(T._orbits)} vertices, "
                   f"topology has {marked} marked points")
    carried: Counter = Counter()
    # orbit consistency: all corners in one orbit must carry the same name
    for orbit in T._orbits:
        names = {T._names.get(c) for c in orbit}
        names.discard(None)
        carried.update(names)
        if len(names) > 1:
            out.append(f"inconsistent vertex names {sorted(names)} in one corner orbit")
        # a boundary vertex's clockwise corner walk ends at a boundary side
        elif names & set(T.punctures) and orbit[0] not in T._walks:
            out.append(f"puncture {names.pop()!r} is on the boundary")
    out.extend(f"vertex name {n!r} is carried by {k} vertices"
               for n, k in sorted(carried.items()) if k > 1)
    return out


# ---------------------------------------------------------------------------
# corners
#
# Every triangle is handled through a cyclic (ccw) triple of side slots; a
# self-folded triangle contributes the pseudo-triple (radius, radius, loop),
# which is its boundary walk after cutting along the radius.  Corner k of a
# triple (s0,s1,s2) sits between sides[k] and sides[(k+1)%3]; one clockwise
# step of the walk around that vertex exits through sides[(k+1)%3] and
# resumes at corner m of the triangle holding the other slot of that arc,
# where m is that slot's index.  On an ordinary triangle, corner k is the
# vertex opposite sides[(k+2)%3]; on the pseudo-triple, corner 0 is the
# puncture and corners 1, 2 are the base.


def _pseudo_sides(t: Triangle) -> Tuple[str, ...]:
    if isinstance(t, SelfFolded):
        return (t.radius, t.radius, t.loop)
    return t.sides


def puncture_corner(T: Triangulation, p: str):
    """The first corner, in triangle and vertex order, whose vertex is the
    puncture p."""
    if p not in T.punctures:
        raise NotAPuncture(f"{p!r} is not a puncture")
    if p not in T._first_corner:
        raise NotAPuncture(f"puncture {p!r} is not located by any triangle vertex")
    return T._first_corner[p]


def corner_walk(T: Triangulation, c0) -> List[Tuple[Tuple[int, int], str]]:
    """Full clockwise walk around an interior vertex from corner c0.

    Returns the cyclic list of (corner, exit arc) steps; raises if the walk
    hits the boundary (the vertex is not interior).
    """
    found = T._walks.get(c0)
    if found is None:
        raise SurfaceError("corner walk hit the boundary")
    cycle, j = found
    return list(cycle[j:] + cycle[:j])


def arcs_around_puncture(T: Triangulation, p: str) -> List[str]:
    """Arc ends incident to p in clockwise order (loops at p appear twice)."""
    return [arc for _, arc in corner_walk(T, puncture_corner(T, p))]


# ---------------------------------------------------------------------------
# signed adjacency matrix


def signed_adjacency(T: Triangulation) -> List[List[int]]:
    """The skew-symmetric exchange matrix of the triangulation.

    Rows/columns follow T.arcs.  Self-folded loops never meet ordinary
    triangles through their radius, so every appearance of a loop also
    credits its radius (the tagged notched twin and the plain radius share
    all adjacencies).
    """
    index = {a: i for i, a in enumerate(T.arcs)}
    n = len(T.arcs)
    B = [[0] * n for _ in range(n)]

    def expand(label: str) -> List[str]:
        sf = T.loop_triangle(label)
        if sf is not None:
            return [label, sf.radius]
        return [label]

    for t in T.triangles:
        if isinstance(t, SelfFolded):
            continue
        s = t.sides
        # clockwise consecutive pairs (u, v): v follows u clockwise
        cw = (s[2], s[1], s[0])
        for a in range(3):
            u, vv = cw[a], cw[(a + 1) % 3]
            for ui in expand(u):
                for vj in expand(vv):
                    if ui in index and vj in index:
                        B[index[ui]][index[vj]] += 1
                        B[index[vj]][index[ui]] -= 1
    return B


# ---------------------------------------------------------------------------
# crossing paths


def validate_path(T: Triangulation, path: CrossingPath) -> List[str]:
    """Check local validity of a crossing path; empty list when ok.  One
    pass over the crossings, by membership in T's tables; a triangle index
    out of range is the only problem reported, else end slots and the end
    triangle come first, then crossings, re-entries, self-folded patterns.

    A radius crossing must sit inside a loop-radius-loop pass and carry a
    wind, no other crossing may; a bare loop crossing must continue to (or
    come from) the enclosed puncture."""
    ntri, sides, folded = len(T.triangles), T._sides, T._self_folded
    crossings, d = path.crossings, len(path.crossings)
    (prev, _), (last, _) = path.start, path.end
    if not 0 <= prev < ntri:
        return [f"triangle index {prev} out of range"]
    v: List[str] = []
    again: List[str] = []        # each triangle is left by another side
    patterns: List[str] = []     # passes through self-folded triangles
    label = None
    for j, (arc, tri, wind) in enumerate(crossings):
        if not 0 <= tri < ntri:
            return [f"triangle index {tri} out of range"]
        if arc in T._boundary_set:
            v.append(f"crossing {j}: boundary segment {arc!r} cannot be crossed")
        elif arc not in T._arc_set:
            v.append(f"crossing {j}: unknown arc {arc!r}")
        else:
            if arc == label:
                v.append(f"crossings {j - 1},{j}: consecutive crossed arcs "
                         "must differ")
            if arc not in sides[prev]:
                v.append(f"crossing {j}: {arc!r} is not a side of triangle {prev} it leaves")
            if arc not in sides[tri]:
                v.append(f"crossing {j}: {arc!r} is not a side of triangle {tri} it enters")
        if tri == prev and j and prev not in folded:
            again.append(f"crossing {j}: re-enters ordinary triangle {tri} immediately")
        if folded or wind is not None:
            after = crossings[j + 1].arc if j + 1 < d else None
            sf = T._radii.get(arc)
            if sf is not None:
                if label != sf.loop or after != sf.loop:
                    patterns.append(f"crossing {j}: radius {arc!r} not "
                                    "flanked by loop crossings")
                if wind not in ("ccw", "cw"):
                    patterns.append(f"crossing {j}: radius crossing needs "
                                    "wind 'ccw' or 'cw'")
            elif wind is not None:
                patterns.append(f"crossing {j}: wind on {arc!r}, which is "
                                "not a radius")
            sf = T._loops.get(arc)
            # a bare loop crossing is the first or the last, its end at
            # sf's puncture (`t in folded` also range-checks the end)
            if sf is not None and sf.radius not in (label, after) and not any(
                    k == j and s == "puncture" and t in folded
                    and T.triangles[t] is sf
                    for k, (t, s) in ((0, path.start), (d - 1, path.end))):
                patterns.append(f"crossing {j}: loop {arc!r} crossed without "
                                "radius or terminal puncture (self-folded "
                                "pattern)")
        label, prev = arc, tri
    if not 0 <= last < ntri:
        return [f"triangle index {last} out of range"]
    head: List[str] = []
    for spot, what in ((path.start, "start"), (path.end, "end")):
        if spot not in T._vertex_slots:
            try:                 # raises: words the problem
                T.vertex_name(*spot)
            except SurfaceError as exc:
                head.append(f"{what}: {exc}")
    if last != prev:
        head.append("end triangle differs from the last entered triangle")
    return head + v + again + patterns
