import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

import dp_oracle
from conftest import (
    CORNER_AT,
    ORACLE_SURFACES,
    digon,
    example_surface,
    gamma1,
    gamma2,
    gamma3,
    oracle_graphs,
    oracle_walks,
    polygon,
    polygon_arc,
    square,
    square_other_diagonal,
    twice_punctured,
    zigzag_arc,
    zigzag_polygon,
)
from surfcluster.expand import expand_ordinary
from surfcluster.poly import LaurentPoly as L, ring_of, xvar, yvar
from surfcluster.snake import (build_loop_graph, build_snake, build_strip,
                              build_tiles)
from surfcluster.surface import SurfaceError
from surfcluster.matchings import (
    _RULES,
    _keys,
    Matching,
    NotAMatching,
    compatible_pairs,
    enumerate_matchings,
    gamma_symmetric_filter,
    height_exponents,
    matching_count,
    minimal_maximal,
    outer_slots,
    perfect_end_restriction,
    phi_exps,
    phi_specialize,
    strip_sum,
    strip_transfers,
    weight_exps,
    x_of_labels,
)
from graph_route import (boundary_matchings, boundary_walk, edge_keys,
                         minus_avoid, outer_edges, strip_rules,
                         transfer_sum, turns)


# -- independent oracles ------------------------------------------------------


def kasteleyn_count(g) -> int:
    """Independent matching count: determinant of the signed bipartite
    adjacency matrix (horizontal edges +1, vertical edges signed by column)."""
    coord = {}
    for (k, corner), v in g.vertex_of.items():
        (x, y), (dx, dy) = g.tiles[k].pos, CORNER_AT[corner]
        coord.setdefault(v, (x + dx, y + dy))
    blacks = [v for v, (x, y) in coord.items() if (x + y) % 2 == 0]
    whites = [v for v, (x, y) in coord.items() if (x + y) % 2 == 1]
    if len(blacks) != len(whites):
        return 0
    bi = {v: i for i, v in enumerate(blacks)}
    wi = {v: i for i, v in enumerate(whites)}
    n = len(blacks)
    M = [[0] * n for _ in range(n)]
    for e in g.edges:
        a, b = g.edge_vertices(e)
        (x1, y1), (x2, y2) = coord[a], coord[b]
        sign = 1 if y1 == y2 else (-1) ** x1
        if a in wi:
            a, b = b, a
        M[bi[a]][wi[b]] += sign
    det = _det(M)
    return abs(det)


def _det(M) -> int:
    n = len(M)
    M = [[Fraction(x) for x in row] for row in M]
    sign = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            sign = -sign
        for r in range(col + 1, n):
            f = M[r][col] / M[col][col]
            for c in range(col, n):
                M[r][c] -= f * M[col][c]
    out = Fraction(sign)
    for i in range(n):
        out *= M[i][i]
    assert out.denominator == 1
    return int(out)


def twist_heights(g, P: Matching, minus: Matching):
    """Heights via the twist chain: shortest path to the minimal matching in
    the graph whose moves rotate one tile with alternating edges."""
    tile_edges = [frozenset(t.slot_edge.values()) for t in g.tiles]

    def neighbours(m):
        for idx, edges in enumerate(tile_edges):
            inside = m & edges
            if len(inside) == 2 and len(edges - inside) == 2:
                # opposite pairs only: the two chosen edges share no vertex
                vs = set()
                ok = True
                for e in inside:
                    for v in g.edge_vertices(g.edges[e]):
                        if v in vs:
                            ok = False
                        vs.add(v)
                if ok:
                    yield idx, (m - inside) | (edges - inside)

    from collections import deque
    start = frozenset(minus)
    dist = {start: ()}
    q = deque([start])
    target = frozenset(P)
    while q:
        m = q.popleft()
        if m == target:
            out = {}
            for idx in dist[m]:
                lab = g.tiles[idx].diagonal
                out[lab] = out.get(lab, 0) + 1
            return out
        for idx, m2 in neighbours(m):
            if m2 not in dist:
                dist[m2] = dist[m] + (idx,)
                q.append(m2)
    raise AssertionError("matching unreachable by twists")


# -- enumeration ---------------------------------------------------------------


def test_single_tile_two_matchings():
    T = square()
    g = build_snake(T, square_other_diagonal(T))
    ms = enumerate_matchings(g)
    assert len(ms) == 2


def test_straight_two_tile_three_matchings():
    # hexagon with a central triangle: the 2-crossing arc gives 3 matchings
    T = polygon(6)
    g = build_snake(T, polygon_arc(T, 2, 5))
    assert len(enumerate_matchings(g)) == 3


def test_gamma1_has_19_matchings():
    T = example_surface()
    g = build_snake(T, gamma1(T))
    assert len(enumerate_matchings(g)) == 19


def test_enumeration_deterministic_and_unique():
    T = example_surface()
    g = build_snake(T, gamma1(T))
    ms1 = enumerate_matchings(g)
    ms2 = enumerate_matchings(g)
    assert ms1 == ms2
    assert len(set(ms1)) == len(ms1)


@pytest.mark.parametrize("mk", [
    lambda: build_snake(square(), square_other_diagonal(square())),
    lambda: build_snake(polygon(7), polygon_arc(polygon(7), 2, 7)),
    lambda: build_snake(example_surface(), gamma1(example_surface())),
    lambda: build_loop_graph(example_surface(), gamma2(example_surface()),
                             "P2").graph,
    lambda: build_loop_graph(twice_punctured(), gamma3(twice_punctured()),
                             "p").graph,
])
def test_count_matches_kasteleyn(mk):
    g = mk()
    n = kasteleyn_count(g)
    assert len(enumerate_matchings(g)) == n
    # the transfer sum with every key 0 counts the matchings
    assert transfer_sum(g, 0, [0] * len(g.edges)) == {0: n}
    # and so does the continuant of the sign sequence read off the glue
    assert matching_count(turns(g.glue)) == n


def test_zigzag_expansion_count_matches_kasteleyn():
    # the long arc of a 25-gon's zigzag: d = 22, F(24) = 46368 matchings
    T = zigzag_polygon(25)
    path = zigzag_arc(T)
    e = expand_ordinary(T, path)
    assert e.matchings_used == 46368 == kasteleyn_count(build_snake(T, path))
    assert sum(e.poly.coefficients()) == e.matchings_used
    assert all(c > 0 for c in e.poly.coefficients())


def test_exactly_two_boundary_matchings():
    for g in (build_snake(square(), square_other_diagonal(square())),
              build_snake(example_surface(), gamma1(example_surface())),
              build_loop_graph(example_surface(), gamma2(example_surface()),
                               "P2").graph):
        assert len(boundary_matchings(g)) == 2


# -- the two-state DP -------------------------------------------------------------

_SEGMENTS = {"S": ((0, 0), (1, 0)), "E": ((1, 0), (1, 1)),
             "N": ((0, 1), (1, 1)), "W": ((0, 0), (0, 1))}


def _unit_tile(x, y):
    """slot -> the tile's edge at that slot, as the set of its two corner
    points, for the unit square with lower left corner (x, y)."""
    return {s: frozenset((x + a, y + b) for a, b in seg)
            for s, seg in _SEGMENTS.items()}


@pytest.mark.parametrize("entry, exit_",
                         list(product((None, "S", "W"), (None, "N", "E"))))
def test_rule_table_against_a_window_of_three_tiles(entry, exit_):
    """The tile with its neighbours glued at its entry and exit slots: each
    perfect matching, read as (entry corners covered by the earlier tile's
    edges, the tile's chosen slots, exit corners covered up to the tile),
    is a rule of the shape, and each rule is read off some matching."""
    before = _unit_tile(*{"S": (0, -1), "W": (-1, 0)}[entry]) if entry else {}
    tile = _unit_tile(0, 0)
    after = _unit_tile(*{"N": (0, 1), "E": (1, 0)}[exit_]) if exit_ else {}
    edges = sorted({*before.values(), *tile.values(), *after.values()},
                   key=sorted)
    points = set().union(*edges)
    read = set()
    for r in range(len(edges) + 1):
        for P in combinations(edges, r):
            hit = [p for e in P for p in e]
            if len(hit) != len(points) or set(hit) != points:
                continue
            early = {p for e in P if e in before.values() for p in e}
            upto = early | {p for e in P if e in tile.values() for p in e}
            if entry:
                # parity: both entry corners or neither
                assert len(tile[entry] & early) in (0, 2)
            chosen = frozenset(s for s, e in tile.items()
                               if s != entry and e in P)
            read.add((not entry or tile[entry] <= early, chosen,
                      not exit_ or tile[exit_] <= upto))
    # the table is in slots from a; read it through the drawing with a = 3
    local = {None: None, "W": 0, "S": 1, "E": 2, "N": 3}
    assert read == {(c, frozenset("WSEN"[i] for i in slots), o)
                    for c, o, slots in _RULES[local[entry], local[exit_]]}


@pytest.mark.parametrize("reverse, glue", [(False, ["R", "U"]),
                                           (True, ["U", "R"])])
def test_three_tile_turns(reverse, glue):
    # the hexagon's arc 2-6 crosses the three fan diagonals and turns once,
    # one way read from 2 and the other read from 6
    T = polygon(6)
    arc = polygon_arc(T, 2, 6)
    g = build_snake(T, arc.reversed() if reverse else arc)
    assert g.glue == glue
    ms = enumerate_matchings(g)
    assert set(ms) == set(dp_oracle.enumerate_matchings(g))
    assert len(ms) == kasteleyn_count(g) == \
        matching_count(turns(g.glue)) == 4
    keys = [1 << (8 * e) for e in range(len(g.edges))]
    assert transfer_sum(g, 0, keys) == dp_oracle.transfer_sum(g, 0, keys) \
        == {sum(keys[e] for e in P): 1 for P in ms}


@pytest.mark.parametrize("name", list(ORACLE_SURFACES))
def test_dp_equals_the_generic_dp(name):
    mk, max_d = ORACLE_SURFACES[name]
    T = mk()
    rng = random.Random(name)
    graphs = 0
    for g in oracle_graphs(T, max_d):
        ms = enumerate_matchings(g)
        assert ms == sorted(set(ms), key=sorted)       # each once, sorted
        assert set(ms) == set(dp_oracle.enumerate_matchings(g))
        bms = dp_oracle.boundary_matchings(g)
        assert boundary_matchings(g) == sorted(bms, key=sorted)
        assert matching_count(turns(g.glue)) == len(ms)
        # the boundary walk gives the pair the DP finds: P- is the one
        # boundary matching that avoids the first tile's avoid slots
        avoid = minus_avoid(g)
        minus = [m for m in bms if not m & avoid]
        plus = [m for m in bms if m & avoid]
        assert len(minus) == len(plus) == 1
        assert minimal_maximal(g) == (minus[0], plus[0])
        start, keys, _ = edge_keys(g, T, minus[0])
        assert transfer_sum(g, start, keys) == \
            dp_oracle.transfer_sum(g, start, keys)
        # random keys give (almost surely) one term per matching
        keys = [rng.getrandbits(48) for _ in g.edges]
        assert transfer_sum(g, 7, keys) == dp_oracle.transfer_sum(g, 7, keys)
        graphs += 1
    assert graphs


@pytest.mark.parametrize("name", list(ORACLE_SURFACES))
def test_key_table_holds_every_label_and_arc(name):
    # the narrow 16-bit table and the wide 32-bit one, each on a fresh T
    for bound, bits in [(0, 16), (2 ** 15, 32)]:
        T = ORACLE_SURFACES[name][0]()
        ring, weights, phis = _keys(T, bound)
        # built once per digit width, kept on T
        assert _keys(T, bound) is T.key_table[bits]
        assert list(T.key_table) == [bits]
        assert ring is ring_of((make(n) for n in T.tagged_names()
                                for make in (xvar, yvar)), bits)
        assert set(weights) == set(T.arcs) | set(T.boundary)
        assert set(phis) == set(T.arcs)
        # the paper's weights: an arc its own x, a self-folded loop its
        # radius times the notched twin, a boundary segment 1
        for label, key in weights.items():
            sf = T.loop_triangle(label)
            if T.is_boundary(label):
                weight = {}
            elif sf is not None:
                weight = {xvar(sf.radius): 1,
                          xvar(T.notched_twin(sf.radius)): 1}
            else:
                weight = {xvar(label): 1}
            assert dict(ring.expvec(key)) == weight, label
        # a product of weights is one key sum, its length bounding its
        # exponents
        x = x_of_labels(T, [*weights, *T.arcs])
        top = x._max_exp()                    # before `exact` replaces it
        assert top == len(weights) + len(T.arcs) >= x._max_exp(exact=True)
        for arc, key in phis.items():
            assert key == ring.pack(phi_exps({arc: 1}, T))
            # phi is linear: height -1 packs to the negative key
            assert ring.pack(phi_exps({arc: -1}, T)) == -key


def test_key_table_width_follows_the_bound(monkeypatch):
    # a d ~ 2**15 arc is too slow to expand here, so the choice is read
    # off directly: x_of_labels' bound is its length, the strip sum's its
    # tile count plus one, and a bound of 2**15 or more takes the wide table
    from surfcluster import matchings
    T = zigzag_polygon(7)
    arc = T.arcs[0]
    assert x_of_labels(T, [arc] * (2 ** 15 - 1))._ring is _keys(T)[0]
    wide = x_of_labels(T, [arc] * 2 ** 15)
    assert wide._ring is _keys(T, 2 ** 15)[0] is not _keys(T)[0]
    assert wide._ring.bits == 32 and _keys(T, 2 ** 15 - 1)[0].bits == 16
    assert wide == L.var(xvar(arc), 2 ** 15)
    bounds, real = [], matchings._keys

    def spy(T, bound=0):
        bounds.append(bound)
        return real(T, bound)

    monkeypatch.setattr(matchings, "_keys", spy)
    tiles, _ = build_tiles(T, zigzag_arc(T))
    strip_transfers(T, build_strip(T, zigzag_arc(T)))
    assert bounds == [len(tiles) + 1]
    assert expand_ordinary(T, zigzag_arc(T)).poly._ring is _keys(T)[0]


def _placeable(name):
    """A fresh oracle surface and every oracle walk and loop path of it
    that has a snake graph: the strip refuses the others, as the tiles
    do."""
    mk, max_d = ORACLE_SURFACES[name]
    T = mk()
    paths = []
    for path in oracle_walks(T, max_d):
        try:
            build_tiles(T, path)
        except SurfaceError:
            with pytest.raises(SurfaceError):
                build_strip(T, path)
            continue
        paths.append(path)
    assert paths
    return T, paths


@pytest.mark.parametrize("name", list(ORACLE_SURFACES))
def test_transfer_table_equals_the_placed_tiles(name, monkeypatch):
    # at the width each strip picks, then with every key made wide: the
    # looked-up start equals strip_rules' start on the placed tiles, each
    # tile's rules equal its rules up to order (they are read in slots
    # counted from a with rel = +1, not in compass slots with the tile's
    # rel), and the turns are the glue's
    from surfcluster import matchings
    T, paths = _placeable(name)
    real = matchings._keys
    for bound in (0, 2 ** 15):
        monkeypatch.setattr(matchings, "_keys",
                            lambda T, b=0: real(T, max(b, bound)))
        for path in paths:
            tiles, glue = build_tiles(T, path)
            start, rules, flags = strip_transfers(T, build_strip(T, path))
            want_start, want_rules = strip_rules(T, tiles, glue, bound)
            assert start == want_start, path
            assert list(map(Counter, rules)) == \
                list(map(Counter, want_rules)), path
            assert list(flags) == turns(glue), path
            assert matching_count(flags) == matching_count(turns(glue))
    assert sorted(T.transfer_table) == [16, 32]


@pytest.mark.parametrize("name", list(ORACLE_SURFACES))
def test_transfer_table_fills_once_per_width(name, monkeypatch):
    # the first expansion of each walk fills the table; a second adds no
    # entry and computes none.  A wide request then computes every entry
    # again from the wide key table and never reads a narrow one
    from surfcluster import matchings
    T, paths = _placeable(name)
    made, real_transfer = [], matchings._transfer

    def spy(weights, phis, *key):
        made.append((weights, key))
        return real_transfer(weights, phis, *key)

    monkeypatch.setattr(matchings, "_transfer", spy)
    first = [expand_ordinary(T, path) for path in paths]
    narrow = dict(T.transfer_table[16])
    assert list(T.transfer_table) == [16]
    assert len(made) == len(narrow) == len({key for _, key in made})
    assert all(w is _keys(T)[1] for w, _ in made)
    made.clear()
    assert [expand_ordinary(T, path) for path in paths] == first
    assert made == [] and T.transfer_table[16] == narrow
    real_keys = matchings._keys
    monkeypatch.setattr(matchings, "_keys",
                        lambda T, b=0: real_keys(T, max(b, 2 ** 15)))
    for path in paths:
        strip_transfers(T, build_strip(T, path))
    ring, weights, _ = _keys(T, 2 ** 15)
    assert all(w is weights for w, _ in made)
    assert len(made) == len(narrow)
    assert {key for _, key in made} == narrow.keys()
    assert T.transfer_table[16] == narrow
    assert T.transfer_table[32].keys() == narrow.keys()
    ring16 = _keys(T)[0]
    for key, (shift, rules, turn) in T.transfer_table[32].items():
        n_shift, n_rules, n_turn = narrow[key]
        assert ring.expvec(shift) == ring16.expvec(n_shift)
        assert [(c, o, ring.expvec(k)) for c, o, k in rules] == \
            [(c, o, ring16.expvec(k)) for c, o, k in n_rules]
        assert turn == n_turn


def _strip_against_graph(T, path):
    """The strip kernel against the graph route on one path: the same
    packed sum, outer edges and P- membership, bound and count; and the
    colour rule for P- and P+ against the walk around the boundary."""
    g = build_snake(T, path)
    tiles, glue = build_tiles(T, path)
    minus, plus = boundary_walk(g)
    assert minimal_maximal(g) == (minus, plus)
    outer, graph_outer = outer_slots(tiles), outer_edges(g)
    assert [t.slot_edge[s] for t, (s, _) in zip(g.tiles, outer)] == \
        graph_outer
    assert [m for _, m in outer] == [e in minus for e in graph_outer]
    start, keys, bound = edge_keys(g, T, minus)
    acc = strip_sum(*strip_rules(T, tiles, glue))
    assert acc == transfer_sum(g, start, keys), path
    assert bound == len(tiles) + 1
    num = L.from_packed(acc, None, _keys(T)[0])
    assert num._max_exp(exact=True) <= bound
    assert sum(acc.values()) == matching_count(turns(glue)) == \
        matching_count(turns(g.glue))


@pytest.mark.parametrize("name", list(ORACLE_SURFACES))
def test_strip_kernel_equals_the_graph_route(name):
    mk, max_d = ORACLE_SURFACES[name]
    T = mk()
    paths = 0
    for path in oracle_walks(T, max_d):
        try:
            build_snake(T, path)
        except SurfaceError:
            with pytest.raises(SurfaceError):
                build_tiles(T, path)
            continue
        _strip_against_graph(T, path)
        paths += 1
    assert paths


def test_strip_kernel_equals_the_graph_route_on_zigzag_arcs():
    for c in range(4, 22):
        T = zigzag_polygon(c)
        _strip_against_graph(T, zigzag_arc(T))


# -- heights -------------------------------------------------------------------


def test_minimal_matching_zero_heights():
    T = example_surface()
    g = build_snake(T, gamma1(T))
    minus, plus = minimal_maximal(g)
    assert height_exponents(g, minus) == {}
    full = height_exponents(g, plus)
    # the maximal matching encloses every tile
    expect = {}
    for t in g.tiles:
        expect[t.diagonal] = expect.get(t.diagonal, 0) + 1
    assert full == expect


def test_single_tile_heights():
    T = square()
    g = build_snake(T, square_other_diagonal(T))
    minus, plus = minimal_maximal(g)
    assert height_exponents(g, plus) == {"d": 1}


@pytest.mark.parametrize("mk", [
    lambda: build_snake(polygon(7), polygon_arc(polygon(7), 2, 6)),
    lambda: build_snake(example_surface(), gamma1(example_surface())),
    lambda: build_loop_graph(example_surface(), gamma2(example_surface()),
                             "P2").graph,
])
def test_heights_match_twist_oracle(mk):
    g = mk()
    minus, _ = minimal_maximal(g)
    for P in enumerate_matchings(g):
        assert height_exponents(g, P) == twist_heights(g, P, minus)


@pytest.mark.parametrize("spoil", [
    lambda g, minus: minus - {min(minus)},                  # one edge removed
    lambda g, minus: minus | {next(e.eid for e in g.edges    # a vertex twice
                                   if e.eid not in minus)},
])
def test_heights_reject_non_matchings(spoil):
    T = example_surface()
    g = build_snake(T, gamma1(T))
    minus, _ = minimal_maximal(g)
    with pytest.raises(NotAMatching):
        height_exponents(g, spoil(g, minus))


# -- weights and specialization --------------------------------------------------


def test_square_minimal_weight_is_one():
    T = square()
    g = build_snake(T, square_other_diagonal(T))
    minus, _ = minimal_maximal(g)
    assert L.monomial(1, weight_exps(g, minus, T)) == L.one()


def test_phi_specialize_examples():
    T = digon()
    assert phi_specialize({}, T) == L.one()
    # loop and radius heights telescope to the plain radius variable
    got = phi_specialize({"l": 1, "r2": 1}, T)
    assert got == L.var(yvar("r2"))
    E = example_surface()
    assert phi_specialize({"l": 1}, E) == L.var(yvar("1"))
    assert phi_specialize({"2": 1}, E) == \
        L.monomial(1, {yvar("2"): 1, yvar("1"): -1})


def test_weights_use_composite_loop_variable():
    E = example_surface()
    g = build_snake(E, gamma1(E))
    minus, _ = minimal_maximal(g)
    w = L.monomial(1, weight_exps(g, minus, E))
    _, exps = w.monomial_parts()
    assert exps.get(xvar("1"), 0) == 2 and exps.get(xvar("2"), 0) == 3


# -- loop graphs -----------------------------------------------------------------


def test_gamma2_symmetric_count():
    E = example_surface()
    lg = build_loop_graph(E, gamma2(E), "P2")
    ms = enumerate_matchings(lg.graph)
    sym = gamma_symmetric_filter(lg, ms)
    assert len(sym) == 9


def test_minimal_and_maximal_are_symmetric():
    for T, path, p in ((example_surface(), gamma2(example_surface()), "P2"),
                       (twice_punctured(), gamma3(twice_punctured()), "p"),
                       (twice_punctured(), gamma3(twice_punctured()).reversed(),
                        "q")):
        lg = build_loop_graph(T, path, p)
        minus, plus = minimal_maximal(lg.graph)
        kept = gamma_symmetric_filter(lg, [minus, plus])
        assert kept == [minus, plus]


def test_every_matching_restricts_to_an_end():
    for T, path, p in ((example_surface(), gamma2(example_surface()), "P2"),
                       (twice_punctured(), gamma3(twice_punctured()), "p")):
        lg = build_loop_graph(T, path, p)
        for P in enumerate_matchings(lg.graph):
            which, roles = perfect_end_restriction(lg, P)
            assert which in (1, 2) and roles


def _restrictions(lg):
    return {P: perfect_end_restriction(lg, P)[1]
            for P in gamma_symmetric_filter(lg, enumerate_matchings(lg.graph))}


def test_compatible_pairs_count_and_minimal_pair():
    T = twice_punctured()
    lp = build_loop_graph(T, gamma3(T), "p")
    lq = build_loop_graph(T, gamma3(T).reversed(), "q")
    pairs = compatible_pairs(lp, lq, _restrictions(lp), _restrictions(lq))
    assert len(pairs) == 12
    minus_p, _ = minimal_maximal(lp.graph)
    minus_q, _ = minimal_maximal(lq.graph)
    assert (minus_p, minus_q) in pairs


def test_compatible_pairs_brute_force_definition():
    # pairs computed by keys equal pairs filtered by comparing restrictions
    T = twice_punctured()
    lp = build_loop_graph(T, gamma3(T), "p")
    lq = build_loop_graph(T, gamma3(T).reversed(), "q")
    sym_p = gamma_symmetric_filter(lp, enumerate_matchings(lp.graph))
    sym_q = gamma_symmetric_filter(lq, enumerate_matchings(lq.graph))
    d = lp.d

    def flip(role):
        t, tri, r = role
        return (d - 1 - t, "upper" if tri == "lower" else "lower", r)

    brute = []
    for P in sym_p:
        _, rp = perfect_end_restriction(lp, P)
        for Q in sym_q:
            _, rq = perfect_end_restriction(lq, Q)
            if frozenset(rp) == frozenset(flip(r) for r in rq):
                brute.append((P, Q))
    pairs = compatible_pairs(lp, lq, _restrictions(lp), _restrictions(lq))
    assert sorted(map(tuple, map(sorted, (p for p, _ in brute)))) == \
        sorted(map(tuple, map(sorted, (p for p, _ in pairs))))
    assert len(brute) == len(pairs)


def test_symmetric_matchings_split_into_three_classes():
    # grouped by their restriction to the arc copy: three classes of three
    E = example_surface()
    lg = build_loop_graph(E, gamma2(E), "P2")
    sym = gamma_symmetric_filter(lg, enumerate_matchings(lg.graph))
    classes = {}
    for P in sym:
        _, roles = perfect_end_restriction(lg, P)
        classes.setdefault(frozenset(roles), []).append(P)
    assert sorted(len(v) for v in classes.values()) == [3, 3, 3]


def test_single_tile_empty_glue():
    T = square()
    g = build_snake(T, square_other_diagonal(T))
    assert g.glue == []
