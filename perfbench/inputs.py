"""Input generators for the benchmark.

Every surface, arc and seed the program sees is produced here and handed to
it as schema-1 JSON bytes, so the program receives only generated inputs.
Nothing is imported from the test suite.

Fixed definitions (the population of each workload) live here; the run's
seed only shuffles item order and draws the random flip walks.
"""

from __future__ import annotations

import json
import random


def dump(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _surface(arcs, boundary, punctures, triangles, topology):
    g, b, p, c = topology
    return {"schema": 1,
            "topology": {"genus": g, "boundary_components": b,
                         "punctures": p, "boundary_marked": c},
            "arcs": list(arcs), "boundary": list(boundary),
            "punctures": list(punctures), "triangles": triangles}


def _tri(sides, vertices):
    return {"sides": list(sides), "vertices": list(vertices)}


# ---------------------------------------------------------------------------
# polygons


def _polygon_from_triangles(c: int, vertex_triples, diag_name):
    """Convex c-gon (vertices 0..c-1 counterclockwise) triangulated by the
    given vertex triples.  Boundary segment (i, i+1) is "b<i>"; a diagonal is
    named by diag_name(u, v) with u < v."""
    def side(u, v):
        u, v = min(u, v), max(u, v)
        if v == u + 1:
            return f"b{u}"
        if (u, v) == (0, c - 1):
            return f"b{c - 1}"
        return diag_name(u, v)

    triangles = []
    for tri in vertex_triples:
        p, q, r = sorted(tri)  # increasing index is counterclockwise
        triangles.append(_tri((side(p, q), side(q, r), side(r, p)),
                              (str(r), str(p), str(q))))
    return triangles, [f"b{i}" for i in range(c)]


def fan_polygon(c: int) -> dict:
    """c-gon with every diagonal at vertex 0."""
    triples = [(0, k, k + 1) for k in range(1, c - 1)]
    triangles, boundary = _polygon_from_triangles(
        c, triples, lambda u, v: f"d{v}")
    arcs = [f"d{v}" for v in range(2, c - 1)]
    return _surface(arcs, boundary, (), triangles, (0, 1, 0, c))


def zigzag_order(c: int):
    """Polygon vertices in zigzag order 0, 1, c-1, 2, c-2, ...; triangle k of
    the zigzag triangulation is (v_k, v_{k+1}, v_{k+2})."""
    lo, hi = 1, c - 1
    order = [0]
    while lo <= hi:
        order.append(lo)
        lo += 1
        if lo <= hi:
            order.append(hi)
            hi -= 1
    return order


def zigzag_polygon(c: int) -> dict:
    """c-gon with the zigzag triangulation.  Diagonal {v_k, v_{k+1}} is named
    "z<k>" (k = 1..c-3, the order in which the long arc crosses them)."""
    v = zigzag_order(c)
    name = {frozenset((v[k], v[k + 1])): f"z{k}" for k in range(1, c - 2)}
    triples = [(v[k], v[k + 1], v[k + 2]) for k in range(c - 2)]
    triangles, boundary = _polygon_from_triangles(
        c, triples, lambda a, b: name[frozenset((a, b))])
    arcs = [f"z{k}" for k in range(1, c - 2)]
    return _surface(arcs, boundary, (), triangles, (0, 1, 0, c))


def zigzag_long_arc(c: int) -> dict:
    """The arc v_0 -> v_{c-1}, which crosses every diagonal of the zigzag
    triangulation once: d = c - 3 crossings, F(d+2) perfect matchings."""
    d = c - 3
    crossings = [{"arc": f"z{k}", "to_triangle": k} for k in range(1, d + 1)]
    # v_0 is opposite the side (v_1, v_2) = z1 of triangle 0; v_{c-1} is
    # opposite the side (v_{c-3}, v_{c-2}) = z<d> of the last triangle
    return {"schema": 1,
            "start": {"triangle": 0, "vertex": "z1"},
            "crossings": crossings,
            "end": {"triangle": d, "vertex": f"z{d}"}}


def zigzag_chain(c: int):
    """Flip sequence (1-based seed indices) whose last step produces the
    variable of zigzag_long_arc(c): flipping z1, z2, ... in turn swings the
    arc from v_0 across the polygon."""
    return list(range(1, c - 2))


# ---------------------------------------------------------------------------
# the seven sweep fixtures


def once_punctured_polygon(c: int) -> dict:
    """c-gon with a central puncture P and radii r1..rc."""
    triangles = []
    for k in range(1, c + 1):
        nxt = k % c + 1
        triangles.append(_tri((f"b{k}", f"r{nxt}", f"r{k}"),
                              ("P", str(k), str(nxt))))
    return _surface([f"r{k}" for k in range(1, c + 1)],
                    [f"b{k}" for k in range(1, c + 1)], ("P",),
                    triangles, (0, 1, 1, c))


def square() -> dict:
    return _surface(["d"], ["b1", "b2", "b3", "b4"], (),
                    [_tri(("b1", "b2", "d"), ("3", "1", "2")),
                     _tri(("d", "b3", "b4"), ("4", "1", "3"))],
                    (0, 1, 0, 4))


def punctured_digon() -> dict:
    """Loop l around P with radius r2 (notched twin r1) in a digon."""
    return _surface(["l", "r2"], ["b1", "b2"], ("P",),
                    [_tri(("b1", "l", "b2"), ("m1", "m2", "m1")),
                     {"self_folded": {"loop": "l", "radius": "r2",
                                      "puncture": "P", "base": "m1",
                                      "notched_label": "r1"}}],
                    (0, 1, 1, 2))


def annulus22() -> dict:
    """Annulus with outer points o1, o2 and inner points i1, i2."""
    return _surface(["t1", "t2", "t3", "t4"], ["B1", "B2", "B3", "B4"], (),
                    [_tri(("t2", "B3", "t1"), ("i1", "o1", "i2")),
                     _tri(("t2", "B2", "t3"), ("o2", "i2", "o1")),
                     _tri(("t4", "B4", "t3"), ("i2", "o2", "i1")),
                     _tri(("t4", "B1", "t1"), ("o1", "i1", "o2"))],
                    (0, 2, 0, 4))


def twice_punctured() -> dict:
    """Pentagon with punctures p (arcs 7, 8) and q (arcs 3, 4, 5)."""
    rows = [(("4", "6", "5"), ("m2", "q", "m1")),
            (("5", "10", "3"), ("m3", "q", "m2")),
            (("3", "2", "4"), ("m1", "q", "m3")),
            (("7", "8", "6"), ("m2", "m1", "p")),
            (("8", "7", "9"), ("m1", "m2", "p")),
            (("11", "12", "2"), ("m1", "m3", "m4")),
            (("14", "13", "9"), ("m2", "m1", "m5"))]
    return _surface(["2", "3", "4", "5", "6", "7", "8", "9"],
                    ["10", "11", "12", "13", "14"], ("p", "q"),
                    [_tri(s, v) for s, v in rows], (0, 1, 2, 5))


SWEEP_FIXTURES = [
    ("square", square),
    ("pentagon", lambda: fan_polygon(5)),
    ("hexagon", lambda: fan_polygon(6)),
    ("punctured_digon", punctured_digon),
    ("punctured_square", lambda: once_punctured_polygon(4)),
    ("annulus22", annulus22),
    ("twice_punctured", twice_punctured),
]
# the acceptance suite sweeps paths with up to eight crossings
CRITERION4_MAX_D = 8


def walk_paths(T, max_d: int):
    """Every locally valid crossing path with 1..max_d crossings: one plain
    start slot per walk plus every start slot at a puncture, and every end
    slot, so arcs ending at punctures appear."""
    from surfcluster.surface import (Crossing, CrossingPath, SelfFolded,
                                     validate_path)

    def slots(tri):
        t = T.triangles[tri]
        return ("puncture", "base") if isinstance(t, SelfFolded) else t.sides

    out = []

    def emit(tri0, steps):
        end_tri = steps[-1].to_triangle
        for ve in dict.fromkeys(slots(end_tri)):
            plain_done = False
            for vs in dict.fromkeys(slots(tri0)):
                path = CrossingPath((tri0, vs), tuple(steps), (end_tri, ve))
                if validate_path(T, path):
                    continue
                at_puncture = T.vertex_name(tri0, vs) in T.punctures
                if at_puncture or not plain_done:
                    out.append(path)
                plain_done = plain_done or not at_puncture

    def rec(tri0, steps, tri, last):
        if steps:
            emit(tri0, steps)
        if len(steps) == max_d:
            return
        for arc in dict.fromkeys(T.triangle_sides(tri)):
            if T.is_boundary(arc) or arc == last:
                continue
            for nxt in T.triangles_with_side(arc):
                if nxt == tri and not isinstance(T.triangles[tri], SelfFolded):
                    continue
                winds = ("ccw", "cw") if T.radius_triangle(arc) else (None,)
                for w in winds:
                    rec(tri0, steps + [Crossing(arc, nxt, w)], nxt, arc)

    for t0 in range(len(T.triangles)):
        rec(t0, [], t0, None)
    return out


def path_json(path, notch_start=False, notch_end=False) -> dict:
    obj = {"schema": 1,
           "start": {"triangle": path.start[0], "vertex": path.start[1]},
           "crossings": [dict({"arc": c.arc, "to_triangle": c.to_triangle},
                              **({"wind": c.wind} if c.wind else {}))
                         for c in path.crossings],
           "end": {"triangle": path.end[0], "vertex": path.end[1]}}
    if notch_start:
        obj["notch_start"] = True
    if notch_end:
        obj["notch_end"] = True
    return obj


def sweep_arcs(T, max_d: int):
    """The criterion-4 population on one fixture: each distinct walk once as
    an ordinary arc, plus every tagging its ends allow: notched at the end
    puncture, and notched at both ends when the start is a puncture too
    (when both ends are the same puncture these are the singly and doubly
    notched loop)."""
    out = []
    seen = set()
    for path in walk_paths(T, max_d):
        key = (path.start[0],
               tuple((c.arc, c.to_triangle, c.wind) for c in path.crossings))
        pstart = T.vertex_name(*path.start)
        pend = T.vertex_name(*path.end)
        start_p = pstart if pstart in T.punctures else None
        end_p = pend if pend in T.punctures else None
        if key not in seen:
            seen.add(key)
            out.append(path_json(path))
        if end_p is None:
            continue
        nkey = key + ("n", path.start[1], path.end[1])
        if nkey in seen:
            continue
        seen.add(nkey)
        out.append(path_json(path, notch_end=True))
        if start_p is not None:
            out.append(path_json(path, notch_start=True, notch_end=True))
    return out


# ---------------------------------------------------------------------------
# seeds and flip walks


def seed_json(B, names) -> dict:
    return {"schema": 1, "matrix": [list(r) for r in B], "names": list(names)}


# the annulus with one marked point on each boundary component
KRONECKER = {"schema": 1, "matrix": [[0, 2], [-2, 0]], "names": ["1", "2"]}


def kronecker_chain(steps: int):
    return [1 + (i % 2) for i in range(steps)]


def flip_walks(rng: random.Random, n: int, count: int, length: int):
    """Random flip sequences (1-based) with no immediate repeat."""
    walks = []
    for _ in range(count):
        seq = []
        for _ in range(length):
            k = rng.randrange(1, n + 1)
            while seq and k == seq[-1]:
                k = rng.randrange(1, n + 1)
            seq.append(k)
        walks.append(seq)
    return walks
