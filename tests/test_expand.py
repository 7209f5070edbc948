import types

import pytest

from conftest import (
    ORACLE_SURFACES,
    digon,
    example_surface,
    gamma1,
    gamma2,
    gamma3,
    looped_digon,
    once_punctured_polygon,
    polygon,
    polygon_arc,
    square,
    square_other_diagonal,
    twice_punctured,
    twice_punctured_digon,
    two_punctured_torus,
    walk_paths,
)
from surfcluster.matchings import (
    _keys,
    enumerate_matchings,
    height_exponents,
    phi_exps,
    strip_sum,
    weight_exps,
)
from surfcluster.poly import LaurentPoly as L, xvar, yvar
from surfcluster.snake import build_loop_path, build_snake, build_tiles
from surfcluster.surface import (
    Crossing,
    CrossingPath,
    PathInvalid,
    SurfaceError,
    TaggedArcRef,
    signed_adjacency,
    validate_surface,
)
from surfcluster.expand import (
    InhomogeneousExpansion,
    crossing_monomial,
    expand_arc,
    expand_double_notch,
    expand_notched_loop,
    expand_ordinary,
    expand_single_notch,
    f_polynomial,
    g_vector,
    retag_expansion,
)
from graph_route import strip_rules
from helpers import euler_table, y_ends, z_factor
from surfcluster.mutation import mutate_seed, principal_seed, run_sequence
import loop_oracle
import text_oracle


def ones(poly: L) -> L:
    return poly.substitute({v: L.one() for v in poly.variables()
                            if v.kind == "y"})


def test_crossing_monomial_square():
    T = square()
    assert crossing_monomial(T, square_other_diagonal(T)) == L.var(xvar("d"))


def test_crossing_monomial_notched():
    T = twice_punctured()
    cm = crossing_monomial(T, gamma3(T), ("p", "q"))
    expect = L.one()
    for n in ("3", "4", "5", "6", "7", "8"):
        expect = expect.mul(L.var(xvar(n)))
    assert cm == expect


def test_expand_square():
    T = square()
    e = expand_ordinary(T, square_other_diagonal(T))
    xd, yd = L.var(xvar("d")), L.var(yvar("d"))
    assert e.poly.mul(xd) == L.one().add(yd)
    assert e.display() == "(1 + y_d) / (x_d)"


def test_expand_initial_arc():
    T = polygon(6)
    e = expand_ordinary(T, "d4")
    assert e.poly == L.var(xvar("d4"))
    D = digon()
    e = expand_ordinary(D, "l")
    assert e.poly == L.monomial(1, {xvar("r1"): 1, xvar("r2"): 1})


def test_hexagon_against_oracle():
    T = polygon(6)
    seed0 = principal_seed(signed_adjacency(T), T.tagged_names())
    arc = polygon_arc(T, 3, 6)
    oracle = run_sequence(seed0, [1, 2]).cluster[2]
    assert expand_ordinary(T, arc).poly == oracle


def _per_matching_sum(T, path):
    """The ordinary-arc sum the slow way: one monomial per enumerated
    matching, from its weight and specialized height."""
    g = build_snake(T, path)
    ms = enumerate_matchings(g)
    terms = ((weight_exps(g, P, T), phi_exps(height_exponents(g, P), T))
             for P in ms)
    return loop_oracle._sum(terms, crossing_monomial(T, path)), len(ms)


@pytest.mark.parametrize("name", list(ORACLE_SURFACES))
def test_transfer_sum_equals_per_matching_sum(name):
    mk, max_d = ORACLE_SURFACES[name]
    T = mk()
    for path in walk_paths(T, max_d):
        got = expand_ordinary(T, path)
        want, count = _per_matching_sum(T, path)
        assert got.numerator == want.numerator, path
        assert got.poly == want.poly
        assert got.matchings_used == count


@pytest.mark.parametrize("name", list(ORACLE_SURFACES))
def test_graph_bound_covers_the_numerator(name):
    # the numerator is built with a bound read off the tiles, so that
    # dividing it by the crossing monomial need not decode its keys; loop
    # paths, whose numerators the notched arcs divide, are checked too
    mk, max_d = ORACLE_SURFACES[name]
    T = mk()

    def check(path):
        got = expand_ordinary(T, path).numerator
        tiles, glue = build_tiles(T, path)
        num = L.from_packed(strip_sum(*strip_rules(T, tiles, glue)),
                            len(tiles) + 1, _keys(T)[0])
        assert num._max_exp() >= num._max_exp(exact=True), path
        assert num == got, path

    for path in walk_paths(T, max_d):
        p = T.vertex_name(*path.end)
        check(path)
        if p in T.punctures:
            try:
                loop = build_loop_path(T, path, p)
            except SurfaceError:
                continue
            check(loop)


def _outcome(f, *args, **kwargs):
    """(poly, numerator, matchings_used), or the class name of the error."""
    try:
        e = f(*args, **kwargs)
    except (SurfaceError, ArithmeticError) as exc:
        return type(exc).__name__
    return e.poly, e.numerator, e.matchings_used


def _notched_cases(T, max_d):
    """(kind, identity route, loop-graph oracle, args) for every notched
    tagging of every walk: each puncture end alone, both ends, and a loop at
    a puncture with one or two notches in both orientations."""
    for path in walk_paths(T, max_d):
        start, end = (T.vertex_name(*s) for s in (path.start, path.end))
        start = start if start in T.punctures else None
        end = end if end in T.punctures else None
        if end is not None and start == end:
            for n in (1, 2):
                for orientation in ("ccw", "cw"):
                    yield (f"loop {n} {orientation}", expand_notched_loop,
                           loop_oracle.notched_loop, (T, path, n, orientation))
            continue
        if end:
            yield ("single", expand_single_notch, loop_oracle.single_notch,
                   (T, path))
        if start:
            yield ("single", expand_single_notch, loop_oracle.single_notch,
                   (T, path.reversed()))
        if start and end:
            yield ("double", expand_double_notch, loop_oracle.double_notch,
                   (T, path))


ALL_NOTCHED = {"single", "double", "loop 1 ccw", "loop 1 cw", "loop 2 ccw",
               "loop 2 cw"}
# the criterion-4 fixtures with punctures, the example surface and the
# twice-punctured digon: (surface, crossing cap, kinds that must compute);
# every notched walk of the first two is rejected, and the caps keep the
# whole comparison to about ten seconds
IDENTITY_SURFACES = {
    "punctured digon": (digon, 8, set()),
    "punctured square": (lambda: once_punctured_polygon(4), 8, set()),
    "twice punctured": (twice_punctured, 5, ALL_NOTCHED),
    "example surface": (example_surface, 4, ALL_NOTCHED),
    "twice-punctured digon": (twice_punctured_digon, 4, ALL_NOTCHED),
}


@pytest.mark.parametrize("name", list(IDENTITY_SURFACES))
def test_identities_equal_loop_graph_sums(name):
    mk, max_d, must_compute = IDENTITY_SURFACES[name]
    T = mk()
    computed, compared = set(), 0
    for kind, route, oracle, args in _notched_cases(T, max_d):
        got = _outcome(route, *args)
        want = _outcome(oracle, *args)
        assert got == want, (kind, args)
        compared += 1
        if not isinstance(want, str):
            computed.add(kind)
    assert compared > 0 and computed == must_compute


@pytest.mark.parametrize("name", list(IDENTITY_SURFACES))
def test_notched_count_is_the_value_at_one(name):
    # a notched arc's count is its polynomial at x = y = 1, the sum of its
    # coefficients; the closed form of a doubly-notched arc of the
    # triangulation sums no matchings and reads 0
    mk, max_d, must_compute = IDENTITY_SURFACES[name]
    T = mk()
    computed = 0
    for _, route, _, args in _notched_cases(T, max_d):
        got = _outcome(route, *args)
        if not isinstance(got, str):
            poly, _, count = got
            assert count == sum(poly.coefficients()) > 0, args
            computed += 1
    assert bool(computed) == bool(must_compute)
    for arc in T.arcs:
        got = _outcome(expand_single_notch, T, arc)
        if not isinstance(got, str):
            assert got[2] == sum(got[0].coefficients()) > 0, arc
        got = _outcome(expand_double_notch, T, arc)
        if not isinstance(got, str):
            assert got[2] == 0, arc


def test_expand_is_still_a_module():
    # a package-level `expand` function would shadow the submodule that
    # `from surfcluster import expand` callers rely on
    import surfcluster
    assert isinstance(surfcluster.expand, types.ModuleType)


def test_single_notch_initial_radius_digon():
    D = digon()
    e = expand_single_notch(D, "r2", "P")
    assert e.poly == L.var(xvar("r1"))


def test_single_notch_initial_radius_punctured_polygon():
    T = once_punctured_polygon(4)
    e = expand_single_notch(T, "r1", "P")
    # x_{l_P} / x_{r1}: sanity via the coefficient-free z identity
    z = z_factor(T, "P")
    assert ones(e.poly) == ones(z).mul(L.var(xvar("r1")))


def test_double_notch_example_pair_count():
    T = twice_punctured()
    e = expand_double_notch(T, gamma3(T))
    assert e.matchings_used == 12


def test_double_notch_endpoints_inferred():
    T = twice_punctured()
    a = expand_double_notch(T, gamma3(T))
    b = expand_double_notch(T, gamma3(T), "p", "q")
    assert a.poly == b.poly


def test_double_notch_of_an_arc_of_t_takes_only_its_ends():
    # arc 9 joins P2 and P3: named in either order they give one expansion,
    # and a name that is not one of its two ends is refused
    from pathlib import Path
    from surfcluster.cli import parse_surface
    from surfcluster.snake import EndpointNotPuncture
    data = Path(__file__).resolve().parent / "data"
    T = parse_surface((data / "three_punctures.json").read_bytes())
    both = expand_double_notch(T, "9", "P2", "P3")
    assert both.poly == expand_double_notch(T, "9", "P3", "P2").poly
    # one name given, at either place, takes the other end as the second
    for p, q in (("P3", None), (None, "P3"), ("P2", None), (None, "P2")):
        e = expand_double_notch(T, "9", p, q)
        assert (e.poly, e.cross) == (both.poly, both.cross), (p, q)
    for p, q in (("P2", "P2"), ("P3", "P3"), ("P1", "P2"), ("P1", None),
                 (None, "P1")):
        with pytest.raises(EndpointNotPuncture, match="does not join"):
            expand_double_notch(T, "9", p, q)


def test_single_notch_of_an_arc_of_t_takes_only_its_ends():
    # arc 9 joins P2 and P3: notched at P2 it is the golden `--notch P2`
    # run, and P1, which it does not reach, is refused as no end of it
    import json
    from pathlib import Path
    from surfcluster.cli import parse_surface
    from surfcluster.snake import EndpointNotPuncture
    data = Path(__file__).resolve().parent / "data"
    T = parse_surface((data / "three_punctures.json").read_bytes())
    golden = json.loads((data / "golden.json").read_text())["cli"]
    want = golden["three_punctures.json arc9.json expand --notch P2"]
    assert expand_single_notch(T, "9", "P2").display() + "\n" == \
        want["stdout"]
    with pytest.raises(EndpointNotPuncture, match="does not join 'P1'"):
        expand_single_notch(T, "9", "P1")


def test_rejected_notched_arc_runs_no_transfer_sum(monkeypatch):
    # the loop around q of this walk's reversed side would recross arc 5 at
    # once: every loop path is checked before the first transfer sum
    import surfcluster.expand as ex
    calls = []
    real = ex.strip_sum
    monkeypatch.setattr(ex, "strip_sum",
                        lambda *args: calls.append(args) or real(*args))
    T = twice_punctured()
    path = CrossingPath((1, "10"), (Crossing("5", 0), Crossing("6", 3)),
                        (3, "6"))
    with pytest.raises(PathInvalid, match="minimal position"):
        expand_double_notch(T, path)
    assert calls == []


def test_two_marked_closed_surface_refused_before_any_sum(monkeypatch):
    # q1 joins the torus's two punctures P and Q; notching it at both is
    # refused before a single transfer sum runs
    import surfcluster.expand as ex
    from surfcluster.expand import ForbiddenSurface
    calls = []
    real = ex.strip_sum
    monkeypatch.setattr(ex, "strip_sum",
                        lambda *args: calls.append(args) or real(*args))
    T = two_punctured_torus()
    assert validate_surface(T) == []
    for run in (lambda: expand_arc(T, TaggedArcRef("q1", True, True)),
                lambda: expand_arc(T, TaggedArcRef("q1", True, True),
                                   punctures=("P", "Q")),
                lambda: expand_double_notch(T, "q1"),
                lambda: expand_double_notch(T, "q1", "Q", "P")):
        with pytest.raises(ForbiddenSurface, match="exactly two marked"):
            run()
    assert calls == []
    # one notch is allowed
    assert expand_single_notch(T, "q1", "Q").matchings_used == 3


def test_doubly_notched_loop_gets_one_error_whatever_the_entry_point():
    # loops are exempt from the two-marked-points refusal at every entry
    # point, the loop-graph oracle included: on the two-punctured torus
    # each loop walk raises one exception class, or none, from all four
    T = two_punctured_torus()
    loops = [p for p in walk_paths(T, 3)
             if T.vertex_name(*p.start) == T.vertex_name(*p.end) in T.punctures]
    assert len(loops) == 474

    def outcome(run, *args):
        try:
            return run(*args).poly.canonical_text()
        except SurfaceError as exc:
            return type(exc)

    raised = 0
    for p in loops:
        got = {outcome(expand_double_notch, T, p),
               outcome(expand_notched_loop, T, p, 2),
               outcome(expand_arc, T, TaggedArcRef(p, True, True)),
               outcome(loop_oracle.double_notch, T, p)}
        assert len(got) == 1, (p, got)
        raised += got == {PathInvalid}
    assert raised == 420


def test_display_and_closed_form_repack_nothing(monkeypatch):
    # the denominator of `display` and y_chi of the closed form are built in
    # the ring of the polynomial they meet, so no operand is re-packed
    from pathlib import Path
    from surfcluster import poly
    from surfcluster.cli import parse_arc, parse_surface
    calls = []
    real = poly._repack
    data = Path(__file__).resolve().parent / "data"
    T = parse_surface((data / "three_punctures.json").read_bytes())
    expansions = []
    for name in ("ordinary_arc.json", "notched_arc.json"):
        _, ref, orientation = parse_arc((data / name).read_bytes(), T)
        expansions.append(expand_arc(T, ref, orientation))
    D = twice_punctured_digon()
    monkeypatch.setattr(poly, "_repack",
                        lambda *args: calls.append(args) or real(*args))
    texts = [e.display() for e in expansions]
    assert any(" / " in text for text in texts)
    expand_double_notch(D, "rho", "p", "q")
    assert calls == []


@pytest.mark.parametrize("orientation", ["up", "CW", None])
def test_expand_arc_rejects_an_unknown_orientation(orientation):
    T = twice_punctured()
    start = (0, "6")
    rho = CrossingPath(start, (Crossing("6", 3), Crossing("7", 4),
                               Crossing("8", 3), Crossing("6", 0)), start)
    for ref in (TaggedArcRef(rho), TaggedArcRef(rho, notch_end=True)):
        with pytest.raises(ValueError, match="orientation"):
            expand_arc(T, ref, orientation)


def _variables_within(seed0, steps):
    """Every cluster variable within `steps` mutations of seed0."""
    seen = {(seed0.ext_matrix, seed0.cluster)}
    out, layer = set(seed0.cluster), [seed0]
    for _ in range(steps):
        nxt = []
        for s in layer:
            for k in range(s.n):
                s2 = mutate_seed(s, k)
                if (s2.ext_matrix, s2.cluster) not in seen:
                    seen.add((s2.ext_matrix, s2.cluster))
                    out.update(s2.cluster)
                    nxt.append(s2)
        layer = nxt
    return out


def test_notched_end_circles_the_puncture_from_its_end_slot():
    # triangle 0 (l, a, c) of the looped digon has p at the two corners
    # opposite a and c.  An arc crossing a or c into it and ending at p
    # opposite that arc is notched there: a cluster variable.  Ending at the
    # other corner, next to the crossed arc, it is not in minimal position.
    T = looped_digon()
    oracle = _variables_within(
        principal_seed(signed_adjacency(T), T.tagged_names()), 5)
    for start, arc, other in (((2, "c"), "c", "a"), ((1, "a"), "a", "c")):
        path = CrossingPath(start, (Crossing(arc, 0),), (0, arc))
        assert expand_single_notch(T, path).poly in oracle
        path = CrossingPath(start, (Crossing(arc, 0),), (0, other))
        with pytest.raises(PathInvalid, match="minimal position"):
            expand_single_notch(T, path)


def test_z_factor_digon():
    D = digon()
    z = z_factor(D, "P")
    assert z == L.monomial(1, {xvar("r1"): 1, xvar("r2"): -1})


def test_z_factor_two_arc_puncture():
    # puncture p of the twice-punctured pentagon meets exactly two arcs;
    # the cyclic-sum value must match the loop expansion divided by the
    # square of the anchor arc, in the coefficient-free specialization
    T = twice_punctured()
    z = z_factor(T, "p")
    lp = build_loop_path(T, "7", "p")
    loop = expand_ordinary(T, lp)
    anchor = L.var(xvar("7"))
    assert ones(z) == ones(loop.poly).div_exact(anchor.mul(anchor))


def test_coefficient_free_single_notch_identity():
    # at y = 1 the notched expansion is z_p times the plain one
    cases = [
        (example_surface(), gamma2(example_surface()), "P2"),
        (twice_punctured(), gamma3(twice_punctured()), "p"),
        (twice_punctured(), gamma3(twice_punctured()).reversed(), "q"),
    ]
    for T, path, p in cases:
        plain = expand_ordinary(T, path)
        notched = expand_single_notch(T, path, p)
        assert ones(notched.poly) == ones(z_factor(T, p)).mul(ones(plain.poly))


def test_coefficient_free_double_notch_identity():
    T = twice_punctured()
    plain = expand_ordinary(T, gamma3(T))
    nn = expand_double_notch(T, gamma3(T))
    zz = ones(z_factor(T, "p")).mul(ones(z_factor(T, "q")))
    assert ones(nn.poly) == zz.mul(ones(plain.poly))


def test_double_notch_identity_polynomial():
    # x_rho x_rho^pq - x_rho^p x_rho^q y^chi = (1 - prod_p)(1 - prod_q) prod_e
    for T, rho, in_t in ((twice_punctured(), gamma3(twice_punctured()), False),):
        _check_double_identity(T, rho, "p", "q", in_t)


def _check_double_identity(T, rho, p, q, in_t):
    if isinstance(rho, str):
        xr = L.var(xvar(rho))
        xq = expand_single_notch(T, rho, q).poly
    else:
        xr = expand_ordinary(T, rho).poly
        xq = expand_single_notch(T, rho.reversed(), q).poly
    xpq = expand_double_notch(T, rho, p, q).poly
    xp = expand_single_notch(T, rho, p).poly
    lhs = xr.mul(xpq).sub(xp.mul(xq).mul(
        L.var(yvar(T.tagged_name(rho))) if in_t else L.one()))
    crossings = {}
    if not isinstance(rho, str):
        for a in rho.crossed_arcs():
            crossings[a] = crossings.get(a, 0) + 1
    from surfcluster.matchings import phi_specialize
    prod_e = phi_specialize(crossings, T)
    rhs = L.one().sub(y_ends(T, p)).mul(L.one().sub(y_ends(T, q))).mul(
        prod_e)
    assert lhs == rhs


def test_double_notch_identity_in_triangulation():
    T = twice_punctured_digon()
    _check_double_identity(T, "rho", "p", "q", True)


def test_double_notch_closed_form_matches_sum():
    # the in-triangulation closed form against an explicit crossing path for
    # the same arc is covered by the identity; here check positivity and the
    # coefficient-free z identity on the digon fixture
    T = twice_punctured_digon()
    e = expand_double_notch(T, "rho", "p", "q")
    assert all(c > 0 for c in e.poly.coefficients())
    zz = ones(z_factor(T, "p")).mul(ones(z_factor(T, "q")))
    assert ones(e.poly) == zz.mul(L.var(xvar("rho")))


def test_notched_loop_and_z_square():
    # doubly-notched loop around p equals z_p^2 times the plain loop at y=1
    T = twice_punctured()
    # rho: loop based at q around p: crosses 6, 7?? use: 6, then p-corridor
    # arcs, then 6 again -- build from the plain loop path around p
    start = (0, "6")
    crossings = (Crossing("6", 3), Crossing("7", 4), Crossing("8", 3),
                 Crossing("6", 0))
    rho = CrossingPath(start, crossings, start)
    from surfcluster.surface import validate_path
    assert validate_path(T, rho) == []
    plain = expand_ordinary(T, rho)
    assert all(c > 0 for c in plain.poly.coefficients())
    nn = expand_notched_loop(T, rho, notches=2)
    z = ones(z_factor(T, "q"))
    assert ones(nn.poly) == z.mul(z).mul(ones(plain.poly))


def test_notched_loop_orientations():
    T = twice_punctured()
    start = (0, "6")
    rho = CrossingPath(start, (Crossing("6", 3), Crossing("7", 4),
                               Crossing("8", 3), Crossing("6", 0)), start)
    one = expand_notched_loop(T, rho, notches=1, orientation="ccw")
    other = expand_notched_loop(T, rho, notches=1, orientation="cw")
    # the doubly-notched value is orientation independent
    nn1 = expand_notched_loop(T, rho, notches=2, orientation="ccw")
    nn2 = expand_notched_loop(T, rho, notches=2, orientation="cw")
    assert nn1.poly == nn2.poly
    # and the single-notch elements multiply to z^2 x^2 at y=1
    z = ones(z_factor(T, "q"))
    plain = ones(expand_ordinary(T, rho).poly)
    assert ones(one.poly).mul(ones(other.poly)) == z.mul(plain).pow(2)


def test_f_polynomial_examples():
    T = square()
    e = expand_ordinary(T, square_other_diagonal(T))
    assert f_polynomial(e) == L.one().add(L.var(yvar("d")))
    E = example_surface()
    f = f_polynomial(expand_ordinary(E, gamma1(E)))
    assert f.num_terms() == 19
    ev = {(): None}
    assert dict(f.terms()).get((), 0) == 1  # constant term one


def test_f_constant_term_everywhere():
    E = example_surface()
    for path in (gamma1(E), gamma2(E)):
        e = expand_ordinary(E, path)
        f = f_polynomial(e)
        assert dict(f.terms()).get((), 0) == 1
        assert f.substitute({v: L.one() for v in f.variables()}) == \
            L.const(e.matchings_used)


def test_g_vector_examples():
    T = square()
    B = signed_adjacency(T)
    e = expand_ordinary(T, square_other_diagonal(T))
    assert g_vector(e, B, T.tagged_names()) == [-1]
    assert g_vector(expand_ordinary(T, "d"), B, T.tagged_names()) == [1]


def test_g_vector_gamma1():
    E = example_surface()
    B = signed_adjacency(E)
    e = expand_ordinary(E, gamma1(E))
    g = g_vector(e, B, E.tagged_names())
    # equals the degree of the minimal term x(P-)/cross
    names = E.tagged_names()
    idx = {n: i for i, n in enumerate(names)}
    minimal = [ev for ev, _ in e.poly.terms()
               if all(v.kind != "y" for v, _ in ev)]
    assert len(minimal) == 1
    expect = [0] * len(names)
    for v, exp in minimal[0]:
        expect[idx[v.name]] += exp
    assert g == expect


def test_g_vector_rejects_inhomogeneous():
    T = square()
    B = signed_adjacency(T)
    from surfcluster.expand import Expansion
    bad = L.var(xvar("d")).add(L.var(xvar("d"), 2))
    with pytest.raises(InhomogeneousExpansion):
        g_vector(Expansion(bad, L.one(), 0), B, T.tagged_names())


def test_euler_table():
    T = square()
    e = expand_ordinary(T, square_other_diagonal(T))
    assert euler_table(e, T.tagged_names()) == {(0,): 1, (1,): 1}
    E = example_surface()
    tab = euler_table(expand_ordinary(E, gamma1(E)), E.tagged_names())
    assert len(tab) == 19 and set(tab.values()) == {1}
    TP = twice_punctured()
    tab3 = euler_table(expand_double_notch(TP, gamma3(TP)), TP.tagged_names())
    assert len(tab3) == 12 and set(tab3.values()) == {1}
    # the closed form of a doubly-notched arc of the triangulation
    D = twice_punctured_digon()
    names = D.tagged_names()
    tab4 = euler_table(expand_double_notch(D, "rho", "p", "q"), names)
    assert names == ("e1", "rho", "e3", "e4", "e5")
    assert len(tab4) == 9 and set(tab4.values()) == {1}
    assert (0, 0, 0, 0, 0) in tab4 and (1, 2, 1, 1, 1) in tab4


def test_retag_involution_and_digon_swap():
    D = digon()
    e = expand_ordinary(D, "l")
    r1 = retag_expansion(e, D, ["P"])
    assert r1.poly == e.poly  # x_l = x_r1 x_r2 is symmetric under the swap
    s = CrossingPath((0, "l"), (Crossing("l", 1),), (1, "puncture"))
    es = expand_ordinary(D, s)
    swapped = retag_expansion(es, D, ["P"])
    assert swapped.poly == es.poly.substitute({
        xvar("r1"): L.var(xvar("r2")), xvar("r2"): L.var(xvar("r1")),
        yvar("r1"): L.var(yvar("r2")), yvar("r2"): L.var(yvar("r1"))})
    assert retag_expansion(swapped, D, ["P"]).poly == es.poly


def test_retag_twice_identity_general():
    T = twice_punctured()
    e = expand_single_notch(T, gamma3(T), "p")
    assert retag_expansion(retag_expansion(e, T, ["p"]), T, ["p"]).poly == e.poly


def test_display_reduces_common_monomials():
    E = example_surface()
    e = expand_ordinary(E, gamma1(E))
    den = L.monomial(1, {xvar(n): 1 for n in ("1", "2", "3", "4", "5", "6")})
    assert e.display().endswith(f") / ({den.canonical_text()})")


@pytest.mark.parametrize("name", ["square", "hexagon", "annulus22",
                                  "example surface", "twice punctured"])
def test_display_matches_the_multiplied_fraction(name):
    mk, max_d = ORACLE_SURFACES[name]
    T = mk()
    cases = [(expand_ordinary, (T, path)) for path in walk_paths(T, max_d)]
    if T.punctures:
        cases += [(route, args) for _, route, _, args in
                  _notched_cases(T, min(max_d, 4))]
    shown = retagged = 0
    for route, args in cases:
        try:
            e = route(*args)
        except (SurfaceError, ArithmeticError):
            continue
        assert e.display() == text_oracle.display(e), args
        shown += 1
        if route is expand_ordinary:
            continue
        # retagging is the one other place that builds an Expansion
        for p in T.punctures:
            r = retag_expansion(e, T, [p])
            assert r.display() == text_oracle.display(r), (args, p)
            retagged += 1
    assert shown > 0 and (retagged > 0 or not T.punctures)


def test_retag_against_oracle_names():
    # the expansion for the all-notched triangulation at the puncture is the
    # retag of the plain one; with equal exchange matrices the oracle yields
    # the same polynomial in the twin names
    T = once_punctured_polygon(3)
    B = signed_adjacency(T)
    names = T.tagged_names()
    twins = [f"{n}^(P)" for n in names]
    from surfcluster.mutation import principal_seed, run_sequence
    seed_twin = principal_seed(B, twins)
    oracle = run_sequence(seed_twin, [0]).cluster[0]
    p23 = CrossingPath((0, "b1"), (Crossing("r1", 2),), (2, "b3"))
    e = expand_ordinary(T, p23)
    assert retag_expansion(e, T, ["P"]).poly == oracle


def test_single_notch_infers_unique_puncture():
    T = once_punctured_polygon(3)
    assert expand_single_notch(T, "r1").poly == \
        expand_single_notch(T, "r1", "P").poly
