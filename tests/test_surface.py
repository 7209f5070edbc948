import importlib.util
import json
from pathlib import Path

import pytest

from conftest import (
    annulus22,
    digon,
    example_surface,
    looped_digon,
    once_punctured_polygon,
    polygon,
    polygon_arc,
    square,
    square_other_diagonal,
    twice_punctured,
    twice_punctured_digon,
    two_punctured_torus,
    zigzag_polygon,
)
from surfcluster.surface import (
    Crossing,
    CrossingPath,
    NotAPuncture,
    Ordinary,
    SelfFolded,
    SurfaceError,
    Topology,
    Triangulation,
    arcs_around_puncture,
    corner_walk,
    puncture_corner,
    signed_adjacency,
    validate_path,
    validate_surface,
    _pseudo_sides,
)
from surfcluster.cli import parse_surface
from helpers import NotASide, third_arc
from surfcluster.mutation import principal_seed, run_sequence


ALL_FIXTURES = [square(), digon(), polygon(5), polygon(6),
                once_punctured_polygon(3), once_punctured_polygon(4),
                annulus22(), example_surface(), twice_punctured(),
                twice_punctured_digon()]


def test_validate_square_and_digon_ok():
    assert validate_surface(square()) == []
    assert validate_surface(digon()) == []


def _shipped_and_benchmark_surfaces():
    """Every surface in a shipped data file and every fixture surface of
    the benchmark's input generator, as schema-1 objects."""
    root = Path(__file__).resolve().parent.parent
    for path in sorted((root / "tests" / "data").glob("*.json")):
        obj = json.loads(path.read_text())
        if "triangles" in obj:
            yield path.name, obj
        elif "surface" in obj:
            yield path.name, obj["surface"]
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", root / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    for name, make in inputs.SWEEP_FIXTURES:
        yield name, make()
    for c in (6, 16, 17, 18, 20):
        yield f"zigzag{c}", inputs.zigzag_polygon(c)
    yield "punctured_hexagon", inputs.once_punctured_polygon(6)


@pytest.mark.parametrize("T", ALL_FIXTURES + [
    polygon(4), polygon(7), zigzag_polygon(8), once_punctured_polygon(6),
    looped_digon()])
def test_every_conftest_fixture_validates(T):
    # the boundary-cycle count agrees with every fixture surface
    assert validate_surface(T) == []


SURFACE_FILES = dict(_shipped_and_benchmark_surfaces())


@pytest.mark.parametrize("name", list(SURFACE_FILES))
def test_every_shipped_and_benchmark_surface_validates(name):
    # raises ValidationError if it does not validate
    parse_surface(json.dumps(SURFACE_FILES[name]).encode())


def test_boundary_components_are_counted_from_the_boundary_cycles():
    # (g, b) -> (g + 1, b - 2) keeps both count formulas: the annulus as a
    # closed torus that lists four boundary segments
    T = annulus22()
    T = Triangulation(T.arcs, T.boundary, T.punctures, T.triangles,
                      Topology(1, 0, 0, 4))
    assert validate_surface(T) == [
        "boundary segments close up into 2 cycles, topology has 0 boundary "
        "components"]


@pytest.mark.parametrize("topology, message", [
    (Topology(-1, 1, 2, 4), "topology: genus must not be negative"),
    (Topology(0, -1, 0, 4), "topology: boundary_components must not be"),
    (Topology(0, 1, 1, 4), "0 punctures listed, topology has 1"),
    (Topology(0, 1, 0, 5), "4 boundary segments listed, topology has 5"),
])
def test_topology_that_contradicts_the_file(topology, message):
    # the square's arcs, boundary and triangles under a topology they do
    # not have: each contradiction is one violation
    T = square()
    T = Triangulation(T.arcs, T.boundary, T.punctures, T.triangles, topology)
    problems = validate_surface(T)
    assert sum(p.startswith(message) for p in problems) == 1, problems


def _torus_gluing(*sides):
    """Two triangles, every corner named P, declared a once-punctured
    torus."""
    return Triangulation(("a", "b", "c"), (), ("P",), tuple(
        Ordinary(s, ("P", "P", "P")) for s in sides), Topology(1, 0, 1, 0))


def test_marked_points_are_the_vertices_of_the_gluing():
    # glued so, the two triangles close up into a torus with one vertex
    assert validate_surface(_torus_gluing(("a", "b", "c"),
                                          ("a", "b", "c"))) == []
    # glued so, into a sphere with three vertices (chi = 2), which both
    # count formulas miss
    assert validate_surface(_torus_gluing(("a", "b", "c"),
                                          ("c", "b", "a"))) == [
        "the triangles glue into 3 vertices, topology has 1 marked points",
        "vertex name 'P' is carried by 3 vertices"]
    # the square with its vertex 4 named 2 as well
    T = square()
    first, second = T.triangles
    T = Triangulation(T.arcs, T.boundary, T.punctures,
                      (first, Ordinary(second.sides, ("2", "1", "3"))),
                      T.topology)
    assert validate_surface(T) == ["vertex name '2' is carried by 2 vertices"]


def test_forbidden_unpunctured_triangle():
    T = Triangulation((), ("b1", "b2", "b3"), (),
                      (Ordinary(("b1", "b2", "b3")),), Topology(0, 1, 0, 3))
    problems = validate_surface(T)
    assert any("forbidden" in p for p in problems)


def test_arc_count_violation_reported():
    T = Triangulation(("d",), ("b1", "b2", "b3", "b4", "b5"), (),
                      (Ordinary(("b1", "b2", "d")),
                       Ordinary(("d", "b3", "b4"))), Topology(0, 1, 0, 5))
    problems = validate_surface(T)
    assert any("6g+3b+3p+c-6" in p for p in problems)


def test_signed_adjacency_square_zero():
    assert signed_adjacency(square()) == [[0]]


def test_signed_adjacency_digon_zero():
    assert signed_adjacency(digon()) == [[0, 0], [0, 0]]


def test_signed_adjacency_hexagon_fan():
    B = signed_adjacency(polygon(6))
    n = len(B)
    assert n == 3
    for i in range(n):
        for j in range(n):
            assert B[i][j] == -B[j][i]
            assert abs(B[i][j]) in (0, 1, 2)
    # consecutive fan diagonals meet in one triangle, the outer pair in none
    assert abs(B[0][1]) == 1 and abs(B[1][2]) == 1 and B[0][2] == 0


@pytest.mark.parametrize("T", ALL_FIXTURES)
def test_signed_adjacency_skew_symmetric_everywhere(T):
    B = signed_adjacency(T)
    for i in range(len(B)):
        for j in range(len(B)):
            assert B[i][j] == -B[j][i]
            assert abs(B[i][j]) <= 2


def _reference_step(T, corner):
    """One clockwise step around a vertex, found by searching the slots:
    the other slot of the side after the corner, None at a boundary side."""
    tri, k = corner
    exit_slot = (tri, (k + 1) % 3)
    arc = _pseudo_sides(T.triangles[tri])[exit_slot[1]]
    if T.is_boundary(arc):
        return None
    (other,) = [s for s in T._side_slots[arc] if s != exit_slot]
    return other


@pytest.mark.parametrize("T", ALL_FIXTURES + [
    once_punctured_polygon(5), looped_digon(), zigzag_polygon(7)])
def test_stored_corner_walks_match_step_by_step_walking(T):
    corners = [(i, k) for i in range(len(T.triangles)) for k in range(3)]
    orbit_of = {c: {c} for c in corners}
    for c in corners:
        nxt = _reference_step(T, c)
        if nxt is not None and orbit_of[nxt] is not orbit_of[c]:
            merged = orbit_of[c] | orbit_of[nxt]
            for d in merged:
                orbit_of[d] = merged
    orbits = {id(o): sorted(o) for o in orbit_of.values()}
    assert T._orbits == sorted(orbits.values())
    for c0 in corners:
        walk, c = [], c0
        while c is not None:
            tri, k = c
            walk.append((c, _pseudo_sides(T.triangles[tri])[(k + 1) % 3]))
            c = _reference_step(T, c)
            if c == c0:
                assert corner_walk(T, c0) == walk
                break
        else:
            with pytest.raises(SurfaceError, match="hit the boundary"):
                corner_walk(T, c0)


def test_reversing_all_orientations_transposes_B():
    T = example_surface()
    flipped = []
    for t in T.triangles:
        if isinstance(t, Ordinary):
            flipped.append(Ordinary((t.sides[0], t.sides[2], t.sides[1])))
        else:
            flipped.append(t)
    T2 = Triangulation(T.arcs, T.boundary, T.punctures, tuple(flipped),
                       T.topology)
    B, B2 = signed_adjacency(T), signed_adjacency(T2)
    assert B2 == [[B[j][i] for j in range(len(B))] for i in range(len(B))]


def test_extended_principal():
    # a principal seed stacks B on top of the identity
    def extended_principal(B):
        return [list(row) for row in principal_seed(
            B, [str(i + 1) for i in range(len(B))]).ext_matrix]

    assert extended_principal([[0]]) == [[0], [1]]
    assert extended_principal([[0, 0], [0, 0]]) == \
        [[0, 0], [0, 0], [1, 0], [0, 1]]
    B = signed_adjacency(polygon(6))
    ext = extended_principal(B)
    assert ext[:3] == B and ext[3:] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_double_mutation_restores_extended_matrix():
    for T in (polygon(6), example_surface(), twice_punctured()):
        B = signed_adjacency(T)
        seed = principal_seed(B, T.tagged_names())
        for k in range(len(B)):
            assert run_sequence(seed, [k, k]).ext_matrix == seed.ext_matrix


def test_validate_path_square():
    T = square()
    assert validate_path(T, square_other_diagonal(T)) == []


def test_validate_path_discontinuous():
    T = polygon(6)
    bad = CrossingPath((0, "d3"), (Crossing("d3", 1), Crossing("d5", 3)),
                       (3, "d5"))
    assert any("side of triangle" in v for v in validate_path(T, bad))


def test_validate_path_boundary_crossing():
    T = square()
    bad = CrossingPath((0, "d"), (Crossing("b1", 0),), (0, "d"))
    assert any("boundary" in v for v in validate_path(T, bad))


def test_validate_path_radius_needs_loops():
    T = example_surface()
    bad = CrossingPath((1, "puncture"), (Crossing("2", 1, "ccw"),),
                       (1, "puncture"))
    assert any("flanked" in v for v in validate_path(T, bad))


def test_validate_path_radius_needs_wind():
    T = example_surface()
    p = CrossingPath(
        (0, "l"),
        (Crossing("l", 1), Crossing("2", 1), Crossing("l", 0),
         Crossing("3", 2)),
        (2, "3"))
    assert any("wind" in v for v in validate_path(T, p))


def test_validate_path_wind_only_on_radius_crossings():
    T = square()
    p = CrossingPath((0, "d"), (Crossing("d", 1, "ccw"),), (1, "d"))
    assert any("not a radius" in v for v in validate_path(T, p))
    assert validate_path(T, CrossingPath((0, "d"), (Crossing("d", 1),),
                                         (1, "d"))) == []


@pytest.mark.parametrize("T", [square(), digon()],
                         ids=["ordinary last", "self-folded last"])
def test_vertex_name_refuses_a_triangle_index_out_of_range(T):
    # -1 must not read the last triangle, nor len(T.triangles) raise a
    # bare IndexError
    n = len(T.triangles)
    for tri in (0, n - 1):
        t = T.triangles[tri]
        slot = "puncture" if isinstance(t, SelfFolded) else t.sides[0]
        assert T.vertex_name(tri, slot) is not None
        for out in (-1, n):
            with pytest.raises(SurfaceError,
                               match=f"^triangle index {out} out of range$"):
                T.vertex_name(out, slot)


def test_validate_path_bare_loop_crossing():
    T = example_surface()
    p = CrossingPath((0, "l"), (Crossing("l", 1), ), (1, "base"))
    assert any("self-folded pattern" in v for v in validate_path(T, p))


def test_walks_are_accepted(fix_hexagon):
    # step sequences from a triangle-adjacency walk validate cleanly
    from conftest import walk_paths
    paths = walk_paths(fix_hexagon, 3)
    assert paths, "walk enumeration found no paths"
    for p in paths:
        assert validate_path(fix_hexagon, p) == []


SWEEP_NAMES = ["square", "pentagon", "hexagon", "punctured_digon",
               "punctured_square", "annulus22", "twice_punctured"]


@pytest.mark.parametrize("name", SWEEP_NAMES + ["looped_digon",
                                                "two_punctured_torus"])
def test_validate_path_matches_the_three_pass_oracle(name):
    # every walk of at most 4 crossings, and each walk with one crossing's
    # arc, to_triangle or wind perturbed: the same messages in the same
    # order as the three-pass validator of `path_oracle`
    import random
    import conftest
    import path_oracle
    T = (parse_surface(json.dumps(SURFACE_FILES[name]).encode())
         if name in SWEEP_NAMES else getattr(conftest, name)())
    rng = random.Random(23)
    labels = list(T.arcs) + list(T.boundary) + ["no such arc"]
    ntri = len(T.triangles)
    paths = conftest.walk_paths(T, 4)
    assert paths
    invalid = 0
    for path in paths:
        cases = [path]
        for what in ("arc", "to_triangle", "wind"):
            j = rng.randrange(path.d)
            choices = {"arc": labels, "wind": [None, "ccw", "cw", "x"],
                       "to_triangle": [*range(-1, ntri + 1),
                                       path.triangle_sequence()[j]]}[what]
            crossings = list(path.crossings)
            crossings[j] = crossings[j]._replace(
                **{what: rng.choice(choices)})
            cases.append(CrossingPath(path.start, tuple(crossings), path.end))
        # one end moved to a triangle in or just out of range, at one of
        # its sides, "puncture", "base" or a bogus slot
        ends = [path.start, path.end]
        tri = rng.randrange(-1, ntri + 1)
        slots = [*(T.triangle_sides(tri) if 0 <= tri < ntri else ()),
                 "puncture", "base", "no such slot"]
        ends[rng.randrange(2)] = (tri, rng.choice(slots))
        cases.append(CrossingPath(ends[0], path.crossings, ends[1]))
        for p in cases:
            want = path_oracle.validate_path(T, p)
            assert validate_path(T, p) == want, p
            invalid += bool(want)
    assert 0 < invalid < 5 * len(paths)


@pytest.mark.parametrize("T", ALL_FIXTURES + [
    polygon(4), polygon(7), zigzag_polygon(8), once_punctured_polygon(6),
    looped_digon(), two_punctured_torus()] + [
        pytest.param(parse_surface(json.dumps(obj).encode()), id=name)
        for name, obj in SURFACE_FILES.items()])
def test_puncture_tables_match_the_scanning_oracle(T):
    # the tables built with T answer as the scans of `puncture_oracle` do,
    # arcs_around_puncture in the same rotation
    import puncture_oracle as oracle

    def outcome(f, *args):
        try:
            return f(*args)
        except NotAPuncture as exc:
            return str(exc)

    for i in range(len(T.triangles)):
        for k in range(3):
            assert T._names.get((i, k)) == oracle.vertex_of_corner(T, (i, k))
    for label in T.arcs + T.boundary + ("no such arc",):
        assert T.triangles_with_side(label) == \
            oracle.triangles_with_side(T, label)
    # with the ordinary vertex names dropped, a puncture no self-folded
    # triangle encloses is located by no corner
    bare = Triangulation(T.arcs, T.boundary, T.punctures, tuple(
        t if isinstance(t, SelfFolded) else Ordinary(t.sides)
        for t in T.triangles), T.topology)
    for S in (T, bare):
        for p in S.punctures + S.arcs[:1] + S.boundary[:1]:
            assert outcome(puncture_corner, S, p) == \
                outcome(oracle.puncture_corner, S, p)
    for p in T.punctures:
        assert arcs_around_puncture(T, p) == oracle.arcs_around_puncture(T, p)
        assert (p in T._folded_at) == oracle.has_notch_at(T, p)
        if p in T._folded_at:
            assert T._folded_at[p].puncture == p
    for arc in T.arcs:
        assert list(T._arc_ends.get(arc, ())) == \
            oracle.arc_puncture_ends(T, arc)


def test_third_arc():
    T = square()
    assert third_arc(T, "b1", "d", 0) == "b2"
    with pytest.raises(NotASide):
        third_arc(T, "b3", "d", 0)
    D = digon()
    assert third_arc(D, "l", "l", 1) == "r2"
    H = polygon(6)
    assert third_arc(H, "d3", "d4", 1) == "b3"


def test_puncture_degree():
    # the number of arc ends at p, a loop at p counting twice
    def puncture_degree(T, p):
        return len(arcs_around_puncture(T, p))

    assert puncture_degree(digon(), "P") == 1
    assert puncture_degree(once_punctured_polygon(4), "P") == 4
    with pytest.raises(NotAPuncture):
        puncture_degree(square(), "d")
    T = example_surface()
    assert puncture_degree(T, "P1") == 1
    assert puncture_degree(T, "P2") == 3
    TP = twice_punctured()
    assert puncture_degree(TP, "p") == 2
    assert puncture_degree(TP, "q") == 3


def test_arcs_around_puncture_order():
    TP = twice_punctured()
    cyc = arcs_around_puncture(TP, "q")
    assert sorted(cyc) == ["3", "4", "5"]
    i = cyc.index("4")
    assert [cyc[i], cyc[(i + 1) % 3], cyc[(i + 2) % 3]] == ["4", "3", "5"]


def test_enclosed_puncture_walk():
    # the only end at an enclosed puncture is its radius
    T = example_surface()
    assert arcs_around_puncture(T, "P1") == ["2"]
    assert arcs_around_puncture(digon(), "P") == ["r2"]
