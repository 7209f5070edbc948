import pytest

from conftest import (
    CORNER_AT,
    ORACLE_SURFACES,
    compass,
    digon,
    example_surface,
    gamma1,
    gamma2,
    once_punctured_polygon,
    oracle_graphs,
    oracle_walks,
    polygon,
    polygon_arc,
    square,
    square_other_diagonal,
    twice_punctured,
    gamma3,
    walk_paths,
)
from graph_route import glue_slots
from helpers import third_arc
from surfcluster.surface import (Crossing, CrossingPath, PathInvalid,
                                 SelfFolded, SurfaceError)
from surfcluster.snake import (
    EndpointNotPuncture,
    NotchedTrianglePresent,
    build_loop_graph,
    build_loop_path,
    build_snake,
    build_strip,
    build_tiles,
    dump_snake,
)
from surfcluster.expand import expand_ordinary
from surfcluster.matchings import _RULES
import snake_oracle


def test_square_single_tile():
    T = square()
    g = build_snake(T, square_other_diagonal(T))
    assert g.d == 1
    assert g.tiles[0].diagonal == "d"
    assert sorted(g.tiles[0].labels) == ["b1", "b2", "b3", "b4"]


def test_gamma1_graph_structure():
    T = example_surface()
    g = build_snake(T, gamma1(T))
    assert g.d == 7
    assert [t.diagonal for t in g.tiles] == ["l", "2", "l", "3", "4", "5", "6"]
    assert g.triple_spans == [(0, 1, 2)]
    # relative orientations alternate; the outer tiles of the triple agree
    rels = [t.rel for t in g.tiles]
    for a, b in zip(rels, rels[1:]):
        assert a == -b
    assert rels[0] == rels[2]


def test_shared_edge_carries_third_arc():
    T = polygon(6)
    arc = polygon_arc(T, 2, 6)
    g = build_snake(T, arc)
    crossed = arc.crossed_arcs()
    tris = arc.triangle_sequence()
    for k in range(g.d - 1):
        shared = [e for e in g.edges if len(e.tiles) == 2
                  and {t for t, _ in e.tiles} == {k, k + 1}]
        assert len(shared) == 1
        expect = third_arc(T, crossed[k], crossed[k + 1], tris[k + 1])
        assert shared[0].label == expect


def test_grid_positions_consistent_with_glue():
    T = example_surface()
    g = build_snake(T, gamma1(T))
    for k, d in enumerate(g.glue):
        (x0, y0), (x1, y1) = g.tiles[k].pos, g.tiles[k + 1].pos
        assert (x1 - x0, y1 - y0) == ((0, 1) if d == "U" else (1, 0))


def test_reversal_same_expansion():
    T = example_surface()
    p = gamma1(T)
    assert expand_ordinary(T, p).poly == expand_ordinary(T, p.reversed()).poly
    H = polygon(7)
    for a, b in ((2, 5), (3, 7), (2, 7)):
        q = polygon_arc(H, a, b)
        assert expand_ordinary(H, q).poly == \
            expand_ordinary(H, q.reversed()).poly


def test_zigzag_loop_graph():
    # loop around the puncture of the once-punctured square from an arc of
    # the triangulation: alternating glue directions
    T = once_punctured_polygon(4)
    lp = build_loop_path(T, "r1", "P")
    assert lp.crossed_arcs() == ("r4", "r3", "r2")
    g = build_snake(T, lp)
    assert g.d == 3
    assert g.glue[0] != g.glue[1]
    # the two outer edges carry the anchor arc's label
    boundary_labels = [e.label for e in g.edges if e.boundary]
    assert boundary_labels.count("r1") == 2


def test_loop_path_crossing_sequence():
    T = example_surface()
    p = gamma2(T)
    lp = build_loop_path(T, p, "P2")
    assert lp.crossed_arcs() == ("5", "6", "9", "8", "7", "6", "5")


def test_loop_path_requires_puncture_end():
    T = example_surface()
    p = CrossingPath((3, "5"), (Crossing("5", 4), Crossing("6", 5)), (5, "9"))
    with pytest.raises(EndpointNotPuncture):
        build_loop_path(T, p, "P2")


def test_loop_path_rejects_notched_triangulation():
    T = example_surface()
    p = CrossingPath((0, "l"), (Crossing("3", 2),), (2, "3"))
    with pytest.raises((NotchedTrianglePresent, EndpointNotPuncture)):
        build_loop_path(T, p, "P1")


def test_loop_of_a_radius_at_its_own_puncture_is_the_loop_of_t():
    D = digon()
    assert build_loop_path(D, "r2", "P") == "l"
    # a path notched at P would need both r2 and its tagged twin r1
    path = next(p for p in walk_paths(D, 3) if D.vertex_name(*p.end) == "P")
    with pytest.raises(NotchedTrianglePresent):
        build_loop_path(D, path, "P")


def test_loop_path_rejects_either_junction_at_the_puncture():
    # triangle 1 of the punctured square is entered through r2 or r3 next
    # to P; a path doing so and ending at P can slide its end back across
    # that arc, and the corridor would cross it again first (r2) or last (r3)
    T = once_punctured_polygon(4)
    for start, arc in (((0, "r2"), "r2"), ((2, "r3"), "r3")):
        path = CrossingPath(start, (Crossing(arc, 1),), (1, "b2"))
        with pytest.raises(PathInvalid, match="minimal position"):
            build_loop_path(T, path, "P")


@pytest.mark.parametrize("name", list(ORACLE_SURFACES))
def test_numbering_follows_the_drawing(name):
    # vertex and edge ids are first-seen numberings of the drawing, tile by
    # tile; exactly the glue edges are interior; an edge's ends come west
    # or south end first
    mk, max_d = ORACLE_SURFACES[name]
    graphs = 0

    def edge_at(t, side):
        return t.edges[compass(t).index(side)]

    for g in oracle_graphs(mk(), max_d):
        point_of = {}
        for k, t in enumerate(g.tiles):
            corners = compass(t, CORNER_AT)
            for corner, (dx, dy) in CORNER_AT.items():
                pt = (t.pos[0] + dx, t.pos[1] + dy)
                v = g.vertex_of[k, corners.index(corner)]
                assert point_of.setdefault(v, pt) == pt
                assert v < len(point_of)          # ids in first-seen order
        assert len(set(point_of.values())) == len(point_of) == g.nvertices
        seen = list(dict.fromkeys(e for t in g.tiles for e in t.edges))
        assert seen == list(range(len(g.edges)))
        for e in g.edges:
            # a glue edge is the same segment in both of its tiles
            ends = [point_of[v] for v in g.edge_vertices(e)]
            assert ends[0] < ends[1]              # (x, y): west or south
            for k, slot in e.tiles:
                t = g.tiles[k]
                side = compass(t)[slot]
                assert t.edges[slot] == e.eid
                assert set(ends) == {(t.pos[0] + dx, t.pos[1] + dy)
                                     for c, (dx, dy) in CORNER_AT.items()
                                     if side in c}
        glue = [(edge_at(g.tiles[k], "N" if d == "U" else "E"),
                 edge_at(g.tiles[k + 1], "S" if d == "U" else "W"))
                for k, d in enumerate(g.glue)]
        assert all(a == b for a, b in glue)
        assert {a for a, _ in glue} == {e.eid for e in g.edges if not e.boundary}
        graphs += 1
    assert graphs


@pytest.mark.parametrize("name", list(ORACLE_SURFACES))
def test_strip_is_the_walk_over_the_triangles(name):
    # one strip triangle per step equals the stateful walk that emits both
    # copies of a self-folded fan at its first visit, on every walk and
    # loop path; a path the walk refuses, build_strip refuses too
    mk, max_d = ORACLE_SURFACES[name]
    T = mk()
    checked = fans = 0
    for path in oracle_walks(T, max_d):
        try:
            want = snake_oracle.unfold(T, path)
        except SurfaceError:
            with pytest.raises(SurfaceError):
                build_strip(T, path)
            continue
        assert build_strip(T, path) == want, path
        checked += 1
        fans += sum(len(set(labels)) == 2 for labels, _, _ in want)
    assert checked
    assert fans or not any(isinstance(t, SelfFolded) for t in T.triangles)


@pytest.mark.parametrize("name", list(ORACLE_SURFACES))
def test_placement_matches_pattern_tables(name):
    # slot arithmetic places every tile as the pair-pattern tables and the
    # quarter turns after them do, on every walk and loop path, and the
    # dump prints each tile's labels under those compass slots
    mk, max_d = ORACLE_SURFACES[name]
    T = mk()
    checked = 0
    for path in oracle_walks(T, max_d):
        try:
            g = build_snake(T, path)
        except SurfaceError:
            continue
        got = [(t.rel, list(zip(names, t.labels)), tuple(names[:2]),
                tuple(names[2:]), t.pos)
               for t in g.tiles for names in [compass(t)]]
        want = snake_oracle.place(build_strip(T, path))
        assert (got, g.glue) == want, path
        dumped = [dict(f.split("=", 1) for f in line.split()[-4:])
                  for line in dump_snake(g).splitlines()[1:g.d + 1]]
        assert dumped == [dict(slots) for _, slots, *_ in want[0]], path
        checked += 1
    assert checked


@pytest.mark.parametrize("name", list(ORACLE_SURFACES))
def test_tile_shape_is_the_glue(name):
    # each tile's stored (entry, exit), in slots from a, names through the
    # drawing the compass slots the glue implies, and keys the rule table
    mk, max_d = ORACLE_SURFACES[name]
    T = mk()
    checked = 0
    for path in oracle_walks(T, max_d):
        try:
            tiles, glue = build_tiles(T, path)
        except SurfaceError:
            continue
        assert [tuple(None if i is None else compass(t)[i]
                      for i in t.shape) for t in tiles] == glue_slots(glue)
        assert all(t.shape in _RULES for t in tiles)
        checked += 1
    assert checked


@pytest.mark.parametrize("name", list(ORACLE_SURFACES))
def test_triple_spans_are_where_the_strip_repeats_a_fan(name):
    # the spans read off the radius crossings are the places where the
    # strip holds two consecutive copies of one self-folded fan, the first
    # left through a radius (fan side 0 or 2), not the loop (side 1)
    mk, max_d = ORACLE_SURFACES[name]
    T = mk()
    fans = {(t.radius, t.loop, t.radius) for t in T.triangles
            if isinstance(t, SelfFolded)}
    spans = 0
    for path in oracle_walks(T, max_d):
        try:
            g = build_snake(T, path)
        except SurfaceError:
            continue
        strip = build_strip(T, path)
        want = [(i - 1, i, i + 1) for i in range(len(strip) - 1)
                if strip[i][0] in fans and strip[i + 1][0] == strip[i][0]
                and strip[i][2] in (0, 2)]
        assert g.triple_spans == want, path
        spans += len(want)
    assert spans or name not in ("digon", "looped digon")


def test_loop_graph_end_structure():
    T = example_surface()
    lg = build_loop_graph(T, gamma2(T), "P2")
    assert lg.d == 2 and lg.e_p == 3
    # the corridor around P2
    corridor = lg.graph.tiles[lg.d:lg.d + lg.e_p]
    assert [t.diagonal for t in corridor] == ["9", "8", "7"]
    # ends are label-isomorphic under the role maps
    roles1 = {r: lg.graph.edges[e].label for e, r in lg.end_roles[1].items()}
    roles2 = {r: lg.graph.edges[e].label for e, r in lg.end_roles[2].items()}
    assert roles1 == roles2
    # diag labels of end2 are those of end1 reversed
    diags = [t.diagonal for t in lg.graph.tiles]
    assert diags[: lg.d] == diags[lg.d + lg.e_p:][::-1]


def test_zeta_span_never_straight_through():
    # no three consecutive corridor tiles in one row or column
    T = example_surface()
    lg = build_loop_graph(T, gamma2(T), "P2")
    glue = lg.graph.glue
    for k in range(lg.d, lg.d + lg.e_p - 2):
        assert not (glue[k] == glue[k + 1])


def test_toy_loop_end_ranges():
    T = twice_punctured()
    lg = build_loop_graph(T, gamma3(T), "p")
    assert lg.d == 1 and lg.e_p == 2
    # end1 = first tile, end2 = last tile
    assert set(lg.end_roles[1]) .issubset({e.eid for e in lg.graph.edges})
    tiles1 = {t for e in lg.end_roles[1] for t, _ in lg.graph.edges[e].tiles}
    tiles2 = {t for e in lg.end_roles[2] for t, _ in lg.graph.edges[e].tiles}
    assert 0 in tiles1 and 3 in tiles2


def test_dump_deterministic():
    T = example_surface()
    g1 = dump_snake(build_snake(T, gamma1(T)))
    g2 = dump_snake(build_snake(T, gamma1(T)))
    assert g1 == g2
    assert "triple 0-2" in g1


def test_five_crossing_bigon_pass():
    # an arc through the folded bigon entering and leaving by the same side
    T = example_surface()
    p = CrossingPath(
        (2, "3"),
        (Crossing("3", 0), Crossing("l", 1), Crossing("2", 1, "ccw"),
         Crossing("l", 0), Crossing("3", 2)),
        (2, "3"))
    from surfcluster.surface import validate_path
    assert validate_path(T, p) == []
    g = build_snake(T, p)
    assert g.d == 5
    assert g.triple_spans == [(1, 2, 3)]
    e = expand_ordinary(T, p)
    assert all(c > 0 for c in e.poly.coefficients())


def test_hexagon_fan_zigzag_glue():
    T = polygon(6)
    g = build_snake(T, polygon_arc(T, 2, 6))
    assert g.d == 3
    assert g.glue[0] != g.glue[1]
