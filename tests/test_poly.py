import json
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import text_oracle
from surfcluster import poly
from surfcluster.poly import (
    ExponentOverflow,
    LaurentPoly as L,
    NonInvertibleSubstitution,
    NotDivisible,
    VarId,
    lowest_exponents,
    ring_of,
    xvar,
    yvar,
)

x1, x2, x3 = (L.var(xvar(n)) for n in ("1", "2", "3"))
xd = L.var(xvar("d"))
y1, yd = L.var(yvar("1")), L.var(yvar("d"))


def add_all(*ps):
    return reduce(L.add, ps, L.zero())


def from_terms(terms):
    """The polynomial with these {ExpVec: coefficient} terms."""
    return add_all(*(L.monomial(c, dict(ev)) for ev, c in terms.items()))


def widened(p, extra, bits=32):
    """p in the ring of its variables and `extra` with digits of `bits`
    bits, its keys re-packed."""
    ring = ring_of(p._ring.set | set(extra), bits)
    return L.from_packed(poly._repack(p, ring, {}), p._bound, ring)


def test_add_identity_and_cancellation():
    assert x1.add(L.zero()) == x1
    assert x1.add(L.const(-1).mul(x1)) == L.zero()
    assert x2.add(y1).add(y1) == x2.add(L.const(2).mul(y1))


def test_mul_examples():
    assert x1.mul(L.var(xvar("1"), -1)) == L.one()
    assert x1.add(y1).mul(x1.sub(y1)) == x1.mul(x1).sub(y1.mul(y1))
    got = L.one().add(yd).mul(L.var(xvar("d"), -1))
    assert got == L.var(xvar("d"), -1).add(yd.mul(L.var(xvar("d"), -1)))


def test_div_exact_examples():
    assert x1.mul(x2).div_exact(x1) == x2
    assert x1.mul(x1).sub(y1.mul(y1)).div_exact(x1.add(y1)) == x1.sub(y1)
    with pytest.raises(NotDivisible):
        x1.add(y1).div_exact(x1.add(x2))
    with pytest.raises(ZeroDivisionError):
        x1.div_exact(L.zero())


def test_div_by_monomial_is_always_exact():
    # monomials are units of the Laurent ring, so this must not raise
    q = x1.add(y1).div_exact(x2)
    assert q.mul(x2) == x1.add(y1)
    inv2 = L.var(xvar("2"), -1)
    assert q == x1.mul(inv2).add(y1.mul(inv2))


@pytest.mark.parametrize("coeff, exps", [
    (2, {xvar("1"): 1}),
    (-3, {xvar("1"): 1, yvar("1"): -1}),
])
def test_div_by_a_monomial_with_coefficient(coeff, exps):
    # long division by a one-term divisor: exact when the coefficient
    # divides every coefficient, NotDivisible otherwise
    m = L.monomial(coeff, exps)
    q = add_all(L.const(5).mul(x2).mul(x2), L.const(-7).mul(y1),
                L.var(xvar("3"), -2))
    assert q.mul(m).div_exact(m) == q
    r = L.const(coeff).mul(x1).mul(y1).sub(L.const(4 * coeff).mul(x3))
    assert r.div_exact(m).mul(m) == r
    with pytest.raises(NotDivisible):
        q.mul(m).add(x2).div_exact(m)
    with pytest.raises(NotDivisible):
        x1.add(L.const(2 * coeff).mul(y1)).div_exact(m)


def test_substitute_examples():
    p = x1.mul(L.var(xvar("2"), -1))
    assert p.substitute({xvar("2"): x3}) == x1.mul(L.var(xvar("3"), -1))
    assert L.one().add(yd).substitute({yvar("d"): L.one()}) == L.const(2)
    # only a monomial with coefficient 1 is substituted, whatever the sign
    # of the exponent; the binding of a variable p lacks is not read
    for value in (x2.add(x3), x3.neg(), L.const(2).mul(x3), L.zero()):
        for q in (L.var(xvar("1"), -1), x1.mul(x1).add(x2)):
            with pytest.raises(NonInvertibleSubstitution):
                q.substitute({xvar("1"): value})
        assert x2.substitute({xvar("1"): value}) == x2


def test_substitute_is_simultaneous():
    p = x1.mul(x2)
    got = p.substitute({xvar("1"): x2, xvar("2"): x1})
    assert got == x2.mul(x1)
    assert got.substitute({xvar("1"): x1}) == x1.mul(x2)


def test_substitution_by_monomials_merges_and_cancels_terms():
    assert x1.add(x2).substitute({xvar("1"): x2}) == L.const(2).mul(x2)
    assert x1.sub(x2).substitute({xvar("1"): x2}) == L.zero()
    # only a monomial with coefficient 1 moves keys; -x3 is refused
    with pytest.raises(NonInvertibleSubstitution):
        x1.mul(x1).add(x2).substitute({xvar("1"): x3.neg()})


def reference_substitute(p, bindings):
    """`substitute` by unit monomials, term by term from the decoded
    exponents."""
    out = L.zero()
    for ev, c in p.terms():
        exps = {}
        for v, e in ev:
            if v in bindings:
                _, image = bindings[v].monomial_parts()
            else:
                image = {v: 1}
            for u, eu in image.items():
                exps[u] = exps.get(u, 0) + e * eu
        out = out.add(L.monomial(c, {u: e for u, e in exps.items() if e}))
    return out


def test_key_shifts_equal_the_reference_on_a_long_expansion():
    # d = 17 zigzag arc: 4181 terms in 17 x and 17 y variables, x with
    # negative exponents; rename all 34 of them
    from conftest import zigzag_arc, zigzag_polygon
    from surfcluster.expand import expand_ordinary
    T = zigzag_polygon(20)
    p = expand_ordinary(T, zigzag_arc(T)).poly
    names = p.variables()
    assert len(names) == 34
    bind = {v: L.var(VarId(v.kind, v.name + "'")) for v in names}
    got = p.substitute(bind)
    assert got == reference_substitute(p, bind)
    assert got.num_terms() == p.num_terms()
    assert got.substitute({VarId(v.kind, v.name + "'"): L.var(v)
                           for v in names}) == p


def test_canonical_text_examples():
    assert L.zero().canonical_text() == "0"
    p = L.var(xvar("d"), -1).add(yd.mul(L.var(xvar("d"), -1)))
    assert p.canonical_text() == "x_d^-1 + y_d*x_d^-1"
    assert L.const(2).mul(y1).add(x2).canonical_text() == "x2 + 2*y1"
    assert x1.sub(y1).canonical_text() == "x1 - y1"
    assert L.const(-3).canonical_text() == "-3"
    assert L.monomial(3, {}).canonical_text() == "3"


def test_natural_name_order():
    p = L.var(xvar("10")).add(L.var(xvar("2")))
    assert p.canonical_text() == "x2 + x10"
    # equal natural keys fall back to the name, not to hashing or history
    assert L.var(xvar("1")).add(L.var(xvar("01"))).canonical_text() == \
        "x01 + x1"


# -- the renderer against the straightforward one -----------------------------
#
# both kinds, names whose natural order differs from their string order, and
# names that tie under it ("1" and "01")

TEXT_VARS = [make(n) for make in (xvar, yvar)
             for n in ("1", "01", "10", "a2", "a10")]


@st.composite
def text_polys(draw):
    out = L.zero()
    for c, exps in draw(st.lists(
            st.tuples(st.integers(-5, 5),
                      st.dictionaries(st.sampled_from(TEXT_VARS),
                                      st.integers(-3, 3), max_size=6)),
            max_size=8)):
        out = out.add(L.monomial(c, exps))
    return out


@given(text_polys())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_canonical_text_matches_the_straightforward_renderer(p):
    assert p.canonical_text() == text_oracle.canonical_text(p)


# 19 x and 17 y variables: the ring's factor strings come in runs of
# several digits, a run ends part-way through each kind and the y runs end
# at an odd digit, next to the first x; exponents reach the packed range's
# ends

RUN_VARS = [xvar(f"r{i}") for i in range(19)] + \
    [yvar(f"r{i}") for i in range(17)]
EXTREME = 2 ** 31 - 1


def _y_degree_fits(exps):
    return abs(sum(e for v, e in exps.items() if v.kind == "y")) < 2 ** 31


@st.composite
def run_polys(draw):
    out = L.const(draw(st.integers(-3, 3)))
    for c, exps in draw(st.lists(st.tuples(
            st.integers(-5, 5),
            st.dictionaries(st.sampled_from(RUN_VARS),
                            st.integers(-3, 3) | st.sampled_from(
                                [EXTREME, -EXTREME]),
                            max_size=10).filter(_y_degree_fits)),
            max_size=8)):
        out = out.add(L.monomial(c, exps))
    return widened(out, draw(st.sampled_from([(), RUN_VARS])))


@given(run_polys())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_canonical_text_across_runs_matches_the_straightforward_renderer(p):
    assert p.canonical_text() == text_oracle.canonical_text(p)


@pytest.mark.parametrize("p", [
    L.zero(), L.const(1), L.const(-7), L.var(xvar("a10"), -2),
    L.const(-3).mul(L.var(yvar("01"))), L.one().add(L.var(xvar("10"))),
    L.const(2).sub(L.var(xvar("1")).mul(L.var(xvar("01"), -1))),
    add_all(L.var(yvar("a2")), L.var(yvar("a10")), L.var(xvar("a2"), 3)),
])
def test_canonical_text_edge_cases(p):
    assert p.canonical_text() == text_oracle.canonical_text(p)


# -- randomized ring laws ----------------------------------------------------
#
# Operands come from variable sets that are subsets, supersets or disjoint
# from one another, each kept in its own ring or in a wider one, and some
# are constants, so the laws hold across rings.

VARS = [xvar("1"), xvar("2"), yvar("1"), yvar("2")]
OTHER = [xvar("3"), yvar("3")]
POOLS = [VARS, VARS[:2], VARS[2:], [VARS[0], VARS[3]], OTHER]


@st.composite
def in_some_ring(draw, p, pool, everything):
    """p in its own ring, that of its pool, or that of every variable; or
    else a constant."""
    if draw(st.integers(0, 7)) == 0:
        return L.const(draw(st.integers(-3, 3)))
    return widened(p, draw(st.sampled_from([(), pool, everything])))


@st.composite
def polys(draw, max_terms=4):
    pool = draw(st.sampled_from(POOLS))
    terms = draw(st.lists(
        st.tuples(st.integers(-4, 4),
                  st.lists(st.tuples(st.sampled_from(pool),
                                     st.integers(-2, 2)),
                           max_size=3)),
        max_size=max_terms))
    out = L.zero()
    for c, exps in terms:
        m = {}
        for v, e in exps:
            m[v] = m.get(v, 0) + e
        out = out.add(L.monomial(c, m))
    return draw(in_some_ring(out, pool, VARS + OTHER))


@given(polys(), polys(), polys())
@settings(max_examples=150, deadline=None)
def test_ring_axioms(a, b, c):
    assert a.add(b) == b.add(a)
    assert a.add(b).add(c) == a.add(b.add(c))
    assert a.mul(b) == b.mul(a)
    assert a.mul(b).mul(c) == a.mul(b.mul(c))
    assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))


@given(polys(), polys())
@settings(max_examples=150, deadline=None)
def test_div_mul_roundtrip(a, b):
    if b.is_zero():
        return
    assert a.mul(b).div_exact(b) == a


@given(polys(), polys())
@settings(max_examples=150, deadline=None)
def test_canonical_text_injective(a, b):
    if a.canonical_text() == b.canonical_text():
        assert a == b
    else:
        assert a != b


def test_hash_and_equality():
    assert hash(x1.add(y1)) == hash(y1.add(x1))
    assert x1.add(y1) == y1.add(x1)
    assert {x1.add(y1), y1.add(x1)} == {x1.add(y1)}


def test_equal_polynomials_of_two_rings_are_one_set_element():
    p = x1.add(y1)
    # the same polynomial by way of x2: its ring keeps x2
    q = x1.mul(x2).add(y1.mul(x2)).div_exact(x2)
    assert p._ring is not q._ring
    assert p == q and q == p and hash(p) == hash(q)
    assert len({p, q}) == 1
    assert p.canonical_text() == q.canonical_text()


def test_varid_ordering_total():
    vs = [yvar("2"), xvar("10"), xvar("2"), yvar("10")]
    ranked = sorted(vs)
    assert [v.text() for v in ranked] == ["x2", "x10", "y2", "y10"]
    with pytest.raises(ValueError):
        VarId("h", "3")


def test_variables_are_interned_and_hashed_by_identity():
    import copy
    import pickle
    import random
    v = VarId("x", "a")
    assert v is xvar("a") and VarId("y", "a") is yvar("a") is not v
    assert hash(v) == object.__hash__(v)
    assert VarId.__hash__ is object.__hash__
    # a copy or an unpickled variable is the interned one, so it stays equal
    assert copy.deepcopy(v) is v and pickle.loads(pickle.dumps(v)) is v
    names = ["1", "01", "2", "10", "a", "a2z", "a10b", "r~p", "Z", ""]
    vs = [make(name) for name in names for make in (xvar, yvar)]
    random.Random(5).shuffle(vs)
    # kind first, then the natural order of the name, the name breaking ties
    assert [f"{v.kind}:{v.name}" for v in sorted(vs)] == [
        f"{kind}:{name}" for kind in "xy"
        for name in ["", "01", "1", "2", "10", "Z", "a", "a2z", "a10b", "r~p"]]


# -- the packed kernel ---------------------------------------------------------
#
# 48 variables and exponents up to 2**20 of either sign: neighbouring digits
# of a key borrow from each other, which the 4-variable strategy never does.

WIDE = [xvar(f"w{i}") for i in range(24)] + [yvar(f"w{i}") for i in range(24)]
WIDE_POOLS = [WIDE, WIDE[:24], WIDE[24:], WIDE[::2], WIDE[:6] + WIDE[40:]]
BIG = 2 ** 20


@st.composite
def wide_exps(draw, pool=WIDE):
    return dict(draw(st.lists(
        st.tuples(st.sampled_from(pool), st.integers(-BIG, BIG)),
        max_size=6, unique_by=lambda t: t[0])))


@st.composite
def wide_polys(draw, max_terms=5):
    pool = draw(st.sampled_from(WIDE_POOLS))
    out = L.zero()
    for c, exps in draw(st.lists(st.tuples(st.integers(-4, 4),
                                           wide_exps(pool)),
                                 max_size=max_terms)):
        out = out.add(L.monomial(c, exps))
    return draw(in_some_ring(out, pool, WIDE))


@given(wide_polys(), wide_polys(), wide_polys())
@settings(max_examples=150, deadline=None)
def test_wide_ring_axioms_and_division(a, b, c):
    assert a.mul(b) == b.mul(a)
    assert a.mul(b).mul(c) == a.mul(b.mul(c))
    assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))
    if not b.is_zero():
        q = a.mul(b).div_exact(b)
        assert q == a
        # the cached bound, taken first, covers the quotient's digits
        assert q._max_exp() >= q._max_exp(exact=True)


def _copy(p):
    """p as a distinct object, so that `mul` takes its general route."""
    return L.from_packed(dict(p._terms), p._bound, p._ring)


@given(st.one_of(polys(max_terms=8), wide_polys(max_terms=8)))
@settings(max_examples=150, deadline=None)
def test_square_equals_the_product_with_a_copy(a):
    assert a.mul(a) == a.mul(_copy(a))


@given(st.one_of(polys(max_terms=6), wide_polys()))
@settings(max_examples=100, deadline=None)
def test_pow_equals_repeated_mul(a):
    assert a.pow(1) is a
    power = L.one()
    for n in range(5):
        assert a.pow(n) == power
        power = power.mul(_copy(a))


@given(wide_polys())
@settings(max_examples=150, deadline=None)
def test_terms_round_trip(p):
    assert from_terms(dict(p.terms())) == p
    for ev, _ in p.terms():
        assert list(ev) == sorted(ev) and all(e for _, e in ev)


@given(wide_polys(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_substitution_by_unit_monomials_equals_the_reference(p, rng):
    names = sorted(p.variables())
    shuffled = rng.sample(names, len(names))
    cases = [
        {v: L.var(w) for v, w in zip(names, shuffled)},             # swaps
        {v: L.var(VarId(v.kind, v.name + "'")) for v in names},     # fresh
    ] + [{v: L.one() for v in names if v.kind == kind} for kind in "xy"]
    for bind in cases:
        assert p.substitute(bind) == reference_substitute(p, bind)


@given(wide_exps(), wide_exps())
@settings(max_examples=300, deadline=None)
def test_key_order_is_lex_order(a, b):
    # minus the total y-degree is the most significant digit, then the
    # variables in VarId order
    ring = ring_of(WIDE)
    assert ring is ring_of(reversed(WIDE))

    def lex(m):
        return [-sum(e for v, e in m.items() if v.kind == "y")] + \
            [m.get(v, 0) for v in sorted(WIDE)]

    assert (ring.pack(a) < ring.pack(b)) == (lex(a) < lex(b))
    assert (ring.pack(a) == ring.pack(b)) == (lex(a) == lex(b))
    ab = {v: a.get(v, 0) + b.get(v, 0) for v in set(a) | set(b)}
    assert ring.pack(a) + ring.pack(b) == ring.pack(ab)


@given(wide_polys(), wide_polys(max_terms=3), wide_exps())
@settings(max_examples=150, deadline=None)
def test_inexact_division_by_a_non_monomial_raises(a, b, m):
    # a monomial is a unit, so only a monomial divides it: a*b + m is not a
    # multiple of a b with two or more terms
    if b.num_terms() < 2:
        return
    with pytest.raises(NotDivisible):
        a.mul(b).add(L.monomial(1, m)).div_exact(b)


def test_inexact_laurent_division_examples():
    w0, w1 = L.var(WIDE[0]), L.var(WIDE[1])
    inv = L.var(WIDE[0], -BIG)
    with pytest.raises(NotDivisible):
        w0.mul(inv).add(w1).div_exact(w0.add(inv))
    with pytest.raises(NotDivisible):
        L.const(2).mul(w0.add(w1)).div_exact(L.const(3).mul(w0).add(w1))
    assert w0.mul(w0).sub(inv.mul(inv)).div_exact(w0.sub(inv)) == w0.add(inv)


# -- the Newton box ----------------------------------------------------------
# Long division decodes keys for the quotient's Newton box only when a
# product would add a key to the remainder.


def _count_columns(monkeypatch):
    """A list that gets the caller's name for each `Ring.columns` call from
    now on."""
    calls = []
    real = poly.Ring.columns
    monkeypatch.setattr(poly.Ring, "columns", lambda ring, keys: calls.append(
        sys._getframe(1).f_code.co_name) or real(ring, keys))
    return calls


def test_loop_identity_division_builds_no_newton_box(monkeypatch):
    # x_l / x_gamma of a singly-notched arc: every product of the division
    # lands on a pending remainder key
    from surfcluster.cli import parse_arc, parse_surface
    from surfcluster.expand import _notched_sides, _ordinary, expand_arc
    from surfcluster.snake import build_loop_path
    data = Path(__file__).resolve().parent / "data"
    T = parse_surface((data / "three_punctures.json").read_bytes())
    _, ref, orientation = parse_arc((data / "notched_arc.json").read_bytes(),
                                    T)
    (gamma, p), = _notched_sides(T, ref, orientation, ())
    loop = _ordinary(T, build_loop_path(T, gamma, p)).poly
    x = _ordinary(T, gamma).poly
    calls = _count_columns(monkeypatch)
    single = loop.div_exact(x)
    assert calls == []
    assert single.mul(x) == loop
    assert single == expand_arc(T, ref, orientation).poly


def test_kronecker_step_builds_no_newton_box(monkeypatch):
    # the exchange x_k' = (plus + minus) / x_k, exact by the Laurent
    # phenomenon, on the fourth step of the chain 1, 2, 1, 2, ...
    from surfcluster.mutation import mutate_seed, principal_seed, run_sequence
    seed = run_sequence(principal_seed([[0, 2], [-2, 0]], ["1", "2"]),
                        [0, 1, 0])
    calls = _count_columns(monkeypatch)
    step = mutate_seed(seed, 1)
    assert calls == []
    assert step.cluster[1].num_terms() > 1
    assert mutate_seed(step, 1).cluster == seed.cluster


def test_divisions_that_add_keys_build_the_box_once(monkeypatch):
    x = L.var(xvar("1"))
    w0 = L.var(WIDE[0])
    inv = L.var(WIDE[0], -BIG)
    for num, den, want, bound in (
            (x.pow(5).sub(L.one()), x.sub(L.one()),
             add_all(*(x.pow(i) for i in range(5))), 4),
            (w0.mul(w0).sub(inv.mul(inv)), w0.sub(inv), w0.add(inv), BIG)):
        calls = _count_columns(monkeypatch)
        q = num.div_exact(den)
        # num's and den's columns, once; a bound past 2**15 also makes
        # `_product_bound` recompute both operands' exact bounds
        assert calls.count("_long_division") == 2
        assert q == want
        assert q._bound == bound == q._max_exp(exact=True)
        monkeypatch.undo()


def test_inexact_division_raises_at_its_first_added_key(monkeypatch):
    # (x + 1)**30 + x**31 leaves -1 at x = -1; each product lands on a key
    # of the dividend until the last lead, x**0, would add x**-1
    x = L.var(xvar("1"))
    num = x.add(L.one()).pow(30).add(x.pow(31))
    calls = _count_columns(monkeypatch)
    with pytest.raises(NotDivisible):
        num.div_exact(x.add(L.one()))
    assert calls == ["_long_division"] * 2


def test_exponent_overflow_is_refused():
    x = xvar("1")
    top = L.var(x, 2 ** 31 - 1)
    with pytest.raises(ExponentOverflow):
        L.var(x, 2 ** 31)
    with pytest.raises(ExponentOverflow):
        L.monomial(1, {x: -2 ** 31})
    with pytest.raises(ExponentOverflow):
        top.mul(L.var(x))
    with pytest.raises(ExponentOverflow):
        top.div_exact(L.var(x, -1))
    with pytest.raises(ExponentOverflow):
        L.var(x, 2 ** 30).pow(2)
    with pytest.raises(ValueError):
        L.var(x, 2 ** 30).pow(-2)
    assert issubclass(ExponentOverflow, ArithmeticError)


def test_total_y_degree_overflow_is_refused():
    # every exponent stays below 2**31, but the top digit of a key holds
    # the total y-degree, and it would reach 2**31
    ya, yb, yc, x = yvar("1"), yvar("2"), yvar("3"), xvar("1")
    half = 2 ** 30
    with pytest.raises(ExponentOverflow):
        L.monomial(1, {ya: half, yb: half})
    big = L.monomial(1, {ya: half, yb: half - 1})       # y-degree 2**31 - 1
    with pytest.raises(ExponentOverflow):
        big.mul(L.var(yc))
    with pytest.raises(ExponentOverflow):
        big.div_exact(L.var(yc, -1))
    with pytest.raises(ExponentOverflow):
        L.monomial(1, {ya: half, yb: half - 1, x: 1}).substitute(
            {x: L.var(yc)})


def test_overestimated_bound_does_not_refuse_a_representable_product():
    x = xvar("1")
    one = L.var(x, 2 ** 29).mul(L.var(x, -2 ** 29))   # bound 2**30, exponent 0
    assert one == L.one()
    assert one.mul(L.var(x, 2 ** 30)) == L.var(x, 2 ** 30)


def test_substitution_near_the_limit_returns_representable_results():
    # the operand bounds, 2**30 and 1, allow exponents up to 2**31, but
    # the result's digits are what must fit
    x1, x2 = xvar("1"), xvar("2")
    p = L.monomial(1, {x1: 2 ** 30, x2: -2 ** 30})
    assert p.substitute({x2: L.var(x1)}) == L.one()
    q = L.monomial(1, {x1: 2 ** 30 - 1, x2: 2 ** 30}).add(
        L.const(3).mul(L.var(x1, -5)))
    assert q.substitute({x1: L.var(x2), x2: L.var(x1, -1)}) == \
        L.monomial(1, {x1: -2 ** 30, x2: 2 ** 30 - 1}).add(
            L.const(3).mul(L.var(x2, -5)))


def test_substitution_past_the_limit_is_refused():
    x1, x2 = xvar("1"), xvar("2")
    p = L.monomial(1, {x1: 2 ** 30, x2: 2 ** 30})
    with pytest.raises(ExponentOverflow):
        p.substitute({x2: L.var(x1)})
    with pytest.raises(ExponentOverflow):
        L.var(x2, -2 ** 30).substitute({x2: L.var(x1, 2)})


def test_mul_and_div_exact_are_reached_on_the_class(monkeypatch):
    # the benchmark's per-layer tracer wraps these two on the class; the
    # mutation oracle and the expansions must keep calling them there
    from conftest import gamma3, square, square_other_diagonal, twice_punctured
    from surfcluster.expand import expand_double_notch, expand_ordinary
    from surfcluster.mutation import mutate_seed, principal_seed

    calls = {"mul": 0, "div_exact": 0}
    for name in calls:
        original = getattr(L, name)

        def counted(a, b, _name=name, _original=original):
            calls[_name] += 1
            return _original(a, b)
        monkeypatch.setattr(L, name, counted)

    # column 0 holds two positive entries, so the exchange's plus side is
    # the product x2 * x3 * y1
    mutate_seed(principal_seed([[0, -1, -1], [1, 0, 0], [1, 0, 0]],
                               ["1", "2", "3"]), 0)
    assert calls["mul"] > 0 and calls["div_exact"] > 0
    calls.update(mul=0, div_exact=0)
    T = square()
    expand_ordinary(T, square_other_diagonal(T))
    assert calls["div_exact"] > 0
    # a plain arc's crossing monomial is built in one step; the two-notch
    # identity multiplies
    calls.update(mul=0, div_exact=0)
    T = twice_punctured()
    expand_double_notch(T, gamma3(T))
    assert calls["mul"] > 0 and calls["div_exact"] > 0


# -- rings -------------------------------------------------------------------
# Each polynomial is drawn twice: in the ring that `polys` gives it, and in
# the ring of every variable, where the other operands are too.

ALL = VARS + OTHER


@st.composite
def two_rings(draw):
    p = draw(polys())
    return p, widened(p, ALL)


def _same(p, q):
    assert p == q and q == p
    assert hash(p) == hash(q)
    assert p.canonical_text() == q.canonical_text()


@given(two_rings(), two_rings(), two_rings())
@settings(max_examples=150, deadline=None)
def test_mixed_rings_agree_with_one_ring(a, b, c):
    (a, ra), (b, rb), (c, rc) = a, b, c
    _same(a, ra)
    _same(a.add(b), ra.add(rb))
    _same(a.sub(b), ra.sub(rb))
    _same(a.mul(b), ra.mul(rb))
    _same(a.mul(b), b.mul(a))
    _same(a.mul(b).mul(c), ra.mul(rb.mul(rc)))
    _same(a.mul(b.add(c)), ra.mul(rb).add(ra.mul(rc)))
    _same(a.pow(3), ra.pow(3))
    if not b.is_zero():
        _same(a.mul(b).div_exact(b), ra)
        _same(ra.mul(rb).div_exact(b), a)
    assert lowest_exponents(a, b, c) == lowest_exponents(ra, rb, rc)
    # bindings from rings of their own, and from the ring of every variable
    bind = {v: L.var(OTHER[0], -1) if v in VARS[:2] else L.var(VARS[3])
            for v in ALL}
    bind[VARS[2]] = L.one()
    _same(a.substitute(bind),
          ra.substitute({v: widened(m, ALL) for v, m in bind.items()}))


# -- digit widths ----------------------------------------------------------
# A 16-bit ring holds what the hot producers make; a result whose bound
# reaches 2**15 lies in the 32-bit ring of the same set, and only 2**31
# raises.


@given(polys(), polys())
@settings(max_examples=100, deadline=None)
def test_narrow_and_wide_copies_agree(a, b):
    na, nb = widened(a, (), 16), widened(b, (), 16)
    _same(na, a)
    _same(na.add(nb), a.add(b))
    _same(na.mul(nb), a.mul(b))
    _same(na.pow(2), a.pow(2))
    if not b.is_zero():
        _same(na.mul(nb).div_exact(nb), a)
    assert lowest_exponents(na, nb) == lowest_exponents(a, b)
    # small results of narrow operands stay narrow; a wide operand with
    # variables widens the result, its narrow partner re-packed
    for got, bits in ((na.mul(nb), 16), (na.add(nb), 16),
                      (na.mul(b), 32 if b._ring.vars else 16)):
        assert not got._ring.vars or got._ring.bits == bits
    _same(na.mul(b), a.mul(b))


def test_ring_monomial_with_coefficient_zero_is_zero():
    x = xvar("1")
    for bits in (16, 32):
        z = ring_of([x], bits).monomial({x: 1}, 0)
        assert z.is_zero() and z == L.zero() and z.num_terms() == 0
        assert z.canonical_text() == "0" and hash(z) == hash(L.zero())


def test_results_past_2_to_15_move_to_the_wide_ring():
    x, y, w = xvar("1"), yvar("1"), xvar("2")
    half = 2 ** 14
    a_w = L.var(x, half).add(L.monomial(2, {y: 3, w: -2}))
    b_w = L.monomial(1, {x: half - 1, w: 5}).add(L.const(7))
    a, b = widened(a_w, [x, y, w], 16), widened(b_w, [x, y, w], 16)
    N = a._ring
    assert N is b._ring and N.bits == 16
    # bound 2**15 - 1 stays narrow, 2**15 moves
    ab = a.mul(b)
    assert ab._ring is N
    _same(ab, a_w.mul(b_w))
    with pytest.raises(NotDivisible):
        a.div_exact(b)
    square = a.mul(a)
    assert square._ring is ring_of(N.set)
    _same(square, a_w.mul(a_w))
    # a quotient: (2**15 - 1) + (2**14 - 1), by long division
    q = ab.div_exact(b)
    assert q._ring is ring_of(N.set)
    _same(q, a_w)
    _same(square.div_exact(a), a_w)
    # a substitution: 200 * (1 + 1 + 200) bounds x**200 with x = w**200
    p = widened(L.var(x, 200).add(L.one()), [w], 16)
    small = p.substitute({x: L.var(w)})
    assert small._ring is ring_of([x, w], 16)
    _same(small, L.var(w, 200).add(L.one()))
    big = p.substitute({x: L.var(w, 200)})
    assert big._ring is ring_of([x, w])
    _same(big, L.var(w, 40000).add(L.one()))


def test_narrow_rings_raise_only_at_2_to_31():
    x, y, z = xvar("1"), yvar("1"), yvar("2")
    N = ring_of([x, y, z], 16)
    assert N.monomial({x: 2 ** 15 - 1})._ring is N
    assert N.monomial({x: 2 ** 15})._ring is ring_of([x, y, z])
    assert N.monomial({y: -2 ** 31 + 1}) == L.var(y, -2 ** 31 + 1)
    with pytest.raises(ExponentOverflow):
        N.monomial({x: 2 ** 31})
    with pytest.raises(ExponentOverflow):
        N.monomial({y: 2 ** 30, z: 2 ** 30})        # the total y-degree
    # pack gives only keys of its own ring; the wide ring takes |e| < 2**31
    with pytest.raises(ExponentOverflow):
        N.pack({x: 2 ** 15})
    assert N.expvec(N.pack({x: 2 ** 15 - 1})) == ((x, 2 ** 15 - 1),)
    W = ring_of([x, y, z])
    assert W.expvec(W.pack({x: 2 ** 31 - 1})) == ((x, 2 ** 31 - 1),)
    m = N.monomial({x: 2 ** 14})
    assert m.pow(2 ** 17 - 1) == L.var(x, 2 ** 31 - 2 ** 14)
    with pytest.raises(ExponentOverflow):
        m.pow(2 ** 17)
    with pytest.raises(ExponentOverflow):
        m.mul(L.var(x, 2 ** 31 - 2 ** 14))


# Run in a fresh interpreter, in which 50 unrelated variables are made
# before the surface's and the seed's; the surface makes x2 and y2 among
# its 16 variables, and the seed adds x1 and y1 after them.  Every
# polynomial made along the way is recorded with the bit length of its
# widest key.
_KEY_WIDTHS = """
import json
from conftest import gamma3, twice_punctured
from surfcluster.expand import expand_double_notch
from surfcluster.mutation import mutate_seed, principal_seed
from surfcluster.poly import LaurentPoly, xvar

for i in range(50):
    xvar(f"unrelated{i}")
made = []
wrapped = LaurentPoly.from_packed.__func__


def recorded(cls, *args, **kw):
    made.append(wrapped(cls, *args, **kw))
    return made[-1]


LaurentPoly.from_packed = classmethod(recorded)


def widths():
    out = [max(abs(k).bit_length() for k in p._terms) for p in made
           if p._terms]
    made.clear()
    return out


T = twice_punctured()
expand_double_notch(T, gamma3(T))
arc = widths()
seed = principal_seed([[0, 2], [-2, 0]], ["1", "2"])
for k in range(20):
    seed = mutate_seed(seed, k % 2)
print(json.dumps({"arc": arc, "chain": widths(),
                  "surface": 2 * len(T.tagged_names())}))
"""


def test_keys_span_their_own_variables_only():
    here = Path(__file__).resolve().parent
    run = subprocess.run(
        [sys.executable, "-c", _KEY_WIDTHS], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(here.parent / "src"), str(here)])})
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert got["chain"] and got["arc"]
    # a key has one digit of at most 32 bits (16 in these narrow rings) per
    # variable of its ring and a top digit, whatever was made before: a
    # seed over x1, x2, y1 and y2 reads at most 5 digits (a layout by
    # creation order spans the surface's variables between x2 and x1,
    # about 550 bits), and a triangulation's strip sums its tagged names'
    # x and y digits and the top one
    assert max(got["chain"]) <= 160
    assert max(got["arc"]) <= 32 * (got["surface"] + 1)
