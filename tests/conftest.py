"""Shared fixture surfaces and path builders.

Vertices of convex polygons are numbered 1..c counterclockwise; fan
triangulations hang off vertex 1.  Punctured polygons put radii from every
boundary vertex to the puncture.  All triangles list their sides
counterclockwise, which the tests treat as the single source of orientation
truth.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from surfcluster.surface import (
    Crossing,
    CrossingPath,
    Ordinary,
    SelfFolded,
    Topology,
    Triangulation,
)

# a tile's corners as offsets from its lower left corner, where its `pos`
# puts it in the drawing of a snake graph
CORNER_AT = {"SW": (0, 0), "SE": (1, 0), "NE": (1, 1), "NW": (0, 1)}


def compass(tile, names="SENW"):
    """The compass names of a tile's slots (or, with names=CORNER_AT, of
    its corners), listed by number counted from the tile's a: the drawing
    numbers S, E, N, W (SW, SE, NE, NW) 0..3 counterclockwise, and slot j
    from a is compass slot a + j, joining corners j and j + 1 from a."""
    names = list(names)
    return [names[(tile.a + j) % 4] for j in range(4)]


def polygon(c: int) -> Triangulation:
    """Convex c-gon with the fan triangulation from vertex 1.

    Diagonals d2..d(c-1) join vertex 1 to vertices 3..c-1 -- arc "d3" ends at
    vertex 3.  Boundary segment "b(k)" joins vertices k, k+1 (mod c).
    Triangle k (k = 2..c-1) has vertices 1, k, k+1 and ccw sides
    (1->k, k->k+1, k+1->1).
    """
    arcs = [f"d{k}" for k in range(3, c)]
    boundary = [f"b{k}" for k in range(1, c + 1)]

    def edge(a: int, b: int) -> str:
        # side joining vertices a < b
        if a == 1 and b != 2 and b != c:
            return f"d{b}"
        if b == a + 1:
            return f"b{a}"
        if a == 1 and b == c:
            return f"b{c}"
        raise ValueError((a, b))

    triangles = []
    for k in range(2, c):
        s1 = edge(1, k)
        s2 = edge(k, k + 1)
        s3 = edge(1, k + 1)
        triangles.append(Ordinary((s1, s2, s3),
                                  (str(k + 1), str(1), str(k))))
    return Triangulation(tuple(arcs), tuple(boundary), (),
                         tuple(triangles), Topology(0, 1, 0, c))


def polygon_arc(T: Triangulation, a: int, b: int) -> CrossingPath:
    """The arc between polygon vertices a < b (fan triangulation, a != 1)."""
    c = T.topology.boundary_marked
    if not (1 < a and a + 1 < b <= c):
        raise ValueError("not a crossing arc of the fan")
    # triangle k (vertices 1, k, k+1) occupies index k-2
    crossings = [Crossing(f"d{k}", k - 2) for k in range(a + 1, b)]

    def opp(tri_k: int, vert: int) -> str:
        t = T.triangles[tri_k - 2]
        return t.sides[t.vertices.index(str(vert))]

    start = (a - 2, opp(a, a))
    end = (b - 3, opp(b - 1, b))
    return CrossingPath(start, tuple(crossings), end)


def zigzag_polygon(c: int) -> Triangulation:
    """Convex c-gon with the zigzag triangulation.

    Taking the vertices in the order v0, v1, ... = 1, 2, c, 3, c-1, ...,
    triangle k (k = 0..c-3) is (v_k, v_{k+1}, v_{k+2}) and diagonal
    {v_k, v_{k+1}} is "z<k>" (k = 1..c-3).  Boundary segments are named as
    in `polygon`.
    """
    order, lo, hi = [1], 2, c
    while lo <= hi:
        order.append(lo)
        lo += 1
        if lo <= hi:
            order.append(hi)
            hi -= 1
    diag = {frozenset(order[k:k + 2]): f"z{k}" for k in range(1, c - 2)}

    def side(a: int, b: int) -> str:
        a, b = min(a, b), max(a, b)
        if frozenset((a, b)) in diag:
            return diag[frozenset((a, b))]
        return f"b{a}" if b == a + 1 else f"b{c}"

    triangles = []
    for k in range(c - 2):
        p, q, r = sorted(order[k:k + 3])    # increasing is counterclockwise
        triangles.append(Ordinary((side(p, q), side(q, r), side(r, p)),
                                  (str(r), str(p), str(q))))
    return Triangulation(tuple(f"z{k}" for k in range(1, c - 2)),
                         tuple(f"b{k}" for k in range(1, c + 1)), (),
                         tuple(triangles), Topology(0, 1, 0, c))


def zigzag_arc(T: Triangulation) -> CrossingPath:
    """The arc v0 -> v_{c-1} of `zigzag_polygon`, crossing every diagonal:
    d = c - 3 crossings and F(d + 2) perfect matchings."""
    d = T.topology.boundary_marked - 3
    return CrossingPath((0, "z1"),
                        tuple(Crossing(f"z{k}", k) for k in range(1, d + 1)),
                        (d, f"z{d}"))


def once_punctured_polygon(c: int) -> Triangulation:
    """c-gon with a central puncture P and radii r1..rc."""
    arcs = [f"r{k}" for k in range(1, c + 1)]
    boundary = [f"b{k}" for k in range(1, c + 1)]
    triangles = []
    for k in range(1, c + 1):
        nxt = k % c + 1
        triangles.append(Ordinary((f"b{k}", f"r{nxt}", f"r{k}"),
                                  ("P", str(k), str(nxt))))
    return Triangulation(tuple(arcs), tuple(boundary), ("P",),
                         tuple(triangles), Topology(0, 1, 1, c))


def opp_slot(T: Triangulation, tri: int, vert: str) -> str:
    t = T.triangles[tri]
    return t.sides[t.vertices.index(vert)]


def digon() -> Triangulation:
    """Once-punctured digon: loop l around P with radius r2, tagged twin r1.

    The outer triangle has ccw sides (b1, l, b2).
    """
    triangles = (
        Ordinary(("b1", "l", "b2"), ("m1", "m2", "m1")),
        SelfFolded("l", "r2", "P", base="m1", notched_label="r1"),
    )
    return Triangulation(("l", "r2"), ("b1", "b2"), ("P",), triangles,
                         Topology(0, 1, 1, 2))


def square() -> Triangulation:
    """Unpunctured square with the diagonal d between vertices 1 and 3."""
    triangles = (
        Ordinary(("b1", "b2", "d"), ("3", "1", "2")),
        Ordinary(("d", "b3", "b4"), ("4", "1", "3")),
    )
    return Triangulation(("d",), ("b1", "b2", "b3", "b4"), (), triangles,
                         Topology(0, 1, 0, 4))


def square_other_diagonal(T: Triangulation) -> CrossingPath:
    return CrossingPath((0, "d"), (Crossing("d", 1),), (1, "d"))


def annulus22() -> Triangulation:
    """Annulus with two marked points on each boundary component.

    Outer vertices o1, o2; inner vertices i1, i2; arcs t1 = o1-i1,
    t2 = o1-i2, t3 = o2-i2, t4 = o2-i1.
    """
    triangles = (
        Ordinary(("t2", "B3", "t1"), ("i1", "o1", "i2")),
        Ordinary(("t2", "B2", "t3"), ("o2", "i2", "o1")),
        Ordinary(("t4", "B4", "t3"), ("i2", "o2", "i1")),
        Ordinary(("t4", "B1", "t1"), ("o1", "i1", "o2")),
    )
    return Triangulation(("t1", "t2", "t3", "t4"), ("B1", "B2", "B3", "B4"),
                         (), triangles, Topology(0, 2, 0, 4))


def _name_vertices(T0: Triangulation, special) -> Triangulation:
    """Fill in vertex names from corner orbits.

    `special` maps an orbit-identifying (triangle, side-pair) to a puncture
    name; boundary orbits are named m1, m2, ...; self-folded punctures name
    themselves.  Exactly the punctures of T0 must be matched.
    """
    from surfcluster.surface import _pseudo_sides

    orbits = T0._orbits
    names = {}
    interior = []
    bcount = 0
    for orb in orbits:
        if any(T0.is_boundary(_pseudo_sides(T0.triangles[tri])[(k + 1) % 3])
               for tri, k in orb):
            bcount += 1
            for c in orb:
                names[c] = f"m{bcount}"
        else:
            interior.append(orb)
    assigned = {}
    for orb in interior:
        label = None
        for (tri, k) in orb:
            t = T0.triangles[tri]
            if isinstance(t, SelfFolded) and k == 0:
                label = t.puncture
            elif isinstance(t, Ordinary):
                pair = frozenset((t.sides[k], t.sides[(k + 1) % 3]))
                if (tri, pair) in special:
                    label = special[(tri, pair)]
        assigned[id(orb)] = label
    rest = [o for o in interior if assigned[id(o)] is None]
    unused = [p for p in T0.punctures
              if p not in assigned.values()]
    assert len(rest) == len(unused) <= 1, "ambiguous puncture naming"
    for o, p in zip(rest, unused):
        assigned[id(o)] = p
    for orb in interior:
        for c in orb:
            names[c] = assigned[id(orb)]
    tris2 = []
    for i, t in enumerate(T0.triangles):
        if isinstance(t, SelfFolded):
            tris2.append(SelfFolded(t.loop, t.radius, t.puncture,
                                    names.get((i, 1)), t.notched_label))
        else:
            tris2.append(Ordinary(
                t.sides, tuple(names.get((i, (j + 1) % 3)) for j in range(3))))
    return Triangulation(T0.arcs, T0.boundary, T0.punctures, tuple(tris2),
                         T0.topology)


def example_surface() -> Triangulation:
    """Thrice-punctured square with a self-folded triangle.

    Arcs: loop l around P1 with radius 2 (notched twin named 1) plus arcs
    3..10; boundary 11..14.  P2 carries the ends of arcs 7, 8, 9.  The two
    worked example arcs gamma1 (ordinary, seven crossings with a triple tile)
    and gamma2 (notched at P2) live here.
    """
    tris = [
        Ordinary(("l", "3", "11")),                          # 0
        SelfFolded("l", "2", "P1", notched_label="1"),        # 1
        Ordinary(("3", "12", "4")),                          # 2
        Ordinary(("4", "5", "13")),                          # 3
        Ordinary(("5", "6", "10")),                          # 4
        Ordinary(("9", "6", "7")),                           # 5
        Ordinary(("8", "10", "9")),                          # 6
        Ordinary(("7", "14", "8")),                          # 7
    ]
    T0 = Triangulation(("l", "2", "3", "4", "5", "6", "7", "8", "9", "10"),
                       ("11", "12", "13", "14"), ("P1", "P2", "P3"),
                       tuple(tris), Topology(0, 1, 3, 4))
    return _name_vertices(T0, {(5, frozenset(("9", "7"))): "P2"})


def gamma1(T: Triangulation) -> CrossingPath:
    return CrossingPath(
        (0, "l"),
        (Crossing("l", 1), Crossing("2", 1, "ccw"), Crossing("l", 0),
         Crossing("3", 2), Crossing("4", 3), Crossing("5", 4),
         Crossing("6", 5)),
        (5, "9"))


def gamma2(T: Triangulation) -> CrossingPath:
    return CrossingPath((3, "5"), (Crossing("5", 4), Crossing("6", 5)),
                        (5, "6"))


def twice_punctured() -> Triangulation:
    """Twice-punctured pentagon: punctures p (arcs 7, 8) and q (arcs 3, 4, 5),
    joined by the arc crossing 6 once (the doubly-notched example arc)."""
    tris = [
        Ordinary(("4", "6", "5")),                           # 0
        Ordinary(("5", "10", "3")),                          # 1
        Ordinary(("3", "2", "4")),                           # 2
        Ordinary(("7", "8", "6")),                           # 3
        Ordinary(("8", "7", "9")),                           # 4
        Ordinary(("11", "12", "2")),                         # 5
        Ordinary(("14", "13", "9")),                         # 6
    ]
    T0 = Triangulation(("2", "3", "4", "5", "6", "7", "8", "9"),
                       ("10", "11", "12", "13", "14"), ("p", "q"),
                       tuple(tris), Topology(0, 1, 2, 5))
    return _name_vertices(T0, {(0, frozenset(("4", "5"))): "q",
                               (3, frozenset(("7", "8"))): "p"})


def gamma3(T: Triangulation) -> CrossingPath:
    return CrossingPath((0, "6"), (Crossing("6", 3),), (3, "6"))


def twice_punctured_digon() -> Triangulation:
    """Twice-punctured digon whose triangulation contains the arc rho
    joining the two punctures (for the in-triangulation identity cases)."""
    tris = [
        Ordinary(("e1", "rho", "e4"), ("q", "m1", "p")),     # 0
        Ordinary(("e3", "rho", "e5"), ("p", "m2", "q")),     # 1
        Ordinary(("e4", "e3", "B1"), ("m2", "m1", "q")),     # 2
        Ordinary(("e1", "B2", "e5"), ("m2", "p", "m1")),     # 3
    ]
    return Triangulation(("e1", "rho", "e3", "e4", "e5"), ("B1", "B2"),
                         ("p", "q"), tuple(tris), Topology(0, 1, 2, 2))


def two_punctured_torus() -> Triangulation:
    """A square torus (sides a and b, diagonal c, every corner at P) with a
    second puncture Q inside one of its two triangles, joined to that
    triangle's three corners by q1, q2 and q3: a closed surface with exactly
    two marked points."""
    tris = [
        Ordinary(("a", "b", "c"), ("P", "P", "P")),          # 0
        Ordinary(("c", "q2", "q1"), ("Q", "P", "P")),        # 1
        Ordinary(("a", "q3", "q2"), ("Q", "P", "P")),        # 2
        Ordinary(("b", "q1", "q3"), ("Q", "P", "P")),        # 3
    ]
    return Triangulation(("a", "b", "c", "q1", "q2", "q3"), (), ("P", "Q"),
                         tuple(tris), Topology(1, 0, 2, 0))


def looped_digon() -> Triangulation:
    """Twice-punctured digon whose loop l at p encloses the self-folded
    triangle around q: triangle 0 has p at two corners, so a path ending
    there must circle p from the corner its end slot names."""
    tris = [
        Ordinary(("l", "a", "c"), ("m1", "p", "p")),          # 0
        Ordinary(("a", "b", "b1"), ("m2", "m1", "p")),        # 1
        Ordinary(("c", "b2", "b"), ("m2", "p", "m1")),        # 2
        SelfFolded("l", "r", "q", base="p"),                  # 3
    ]
    return Triangulation(("l", "r", "a", "b", "c"), ("b1", "b2"), ("p", "q"),
                         tuple(tris), Topology(0, 1, 2, 2))


def walk_paths(T: Triangulation, max_d: int):
    """All locally valid crossing paths with 1..max_d crossings, one start
    slot per walk but every end slot (so arcs ending at punctures appear)."""
    from surfcluster.surface import validate_path
    out = []

    def slots_of(tri: int):
        t = T.triangles[tri]
        return t.sides if isinstance(t, Ordinary) else ("puncture", "base")

    def start_slots(tri0, steps, end_tri, ve):
        """One non-puncture anchor plus every puncture-resolving slot."""
        chosen = []
        plain_done = False
        for vs in dict.fromkeys(slots_of(tri0)):
            p = CrossingPath((tri0, vs), tuple(steps), (end_tri, ve))
            if validate_path(T, p):
                continue
            at_puncture = T.vertex_name(tri0, vs) in T.punctures
            if at_puncture or not plain_done:
                chosen.append(p)
            if not at_puncture:
                plain_done = True
        return chosen

    def emit(tri0, steps):
        end_tri = steps[-1].to_triangle
        for ve in dict.fromkeys(slots_of(end_tri)):
            out.extend(start_slots(tri0, steps, end_tri, ve))

    def rec(tri0, steps, tri, last_arc):
        if steps:
            emit(tri0, steps)
        if len(steps) == max_d:
            return
        for arc in dict.fromkeys(T.triangle_sides(tri)):
            if T.is_boundary(arc) or arc == last_arc:
                continue
            for nxt in T.triangles_with_side(arc):
                if nxt == tri and not isinstance(T.triangles[tri], SelfFolded):
                    continue
                winds = ("ccw", "cw") if T.radius_triangle(arc) is not None \
                    else (None,)
                for w in winds:
                    rec(tri0, steps + [Crossing(arc, nxt, w)], nxt, arc)

    for t0 in range(len(T.triangles)):
        rec(t0, [], t0, None)
    return out


# surfaces whose walk paths the transfer sum and the matching DP are checked
# on against their oracles; crossing caps keep each comparison to a few
# seconds
ORACLE_SURFACES = {
    "square": (square, 6),
    "digon": (digon, 7),
    "pentagon": (lambda: polygon(5), 6),
    "hexagon": (lambda: polygon(6), 6),
    "annulus22": (annulus22, 6),
    "punctured square": (lambda: once_punctured_polygon(4), 6),
    "example surface": (example_surface, 4),
    "twice punctured": (twice_punctured, 4),
    "twice-punctured digon": (twice_punctured_digon, 4),
    "looped digon": (looped_digon, 4),
}


def oracle_walks(T: Triangulation, max_d: int):
    """Every walk path and the loop path around the puncture it ends at."""
    from surfcluster.snake import build_loop_path
    from surfcluster.surface import SurfaceError

    for path in walk_paths(T, max_d):
        yield path
        p = T.vertex_name(*path.end)
        if p in T.punctures:
            try:
                yield build_loop_path(T, path, p)
            except SurfaceError:
                pass


def oracle_graphs(T: Triangulation, max_d: int):
    """The snake graphs of `oracle_walks`."""
    from surfcluster.snake import build_snake
    from surfcluster.surface import SurfaceError

    for path in oracle_walks(T, max_d):
        try:
            yield build_snake(T, path)
        except SurfaceError:
            pass


@pytest.fixture(scope="session")
def fix_square():
    return square()


@pytest.fixture(scope="session")
def fix_digon():
    return digon()


@pytest.fixture(scope="session")
def fix_pentagon():
    return polygon(5)


@pytest.fixture(scope="session")
def fix_hexagon():
    return polygon(6)


@pytest.fixture(scope="session")
def fix_annulus():
    return annulus22()
