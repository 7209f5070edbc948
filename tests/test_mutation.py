import random

import pytest

from conftest import polygon, square, square_other_diagonal
from surfcluster.poly import LaurentPoly as L, xvar, yvar
from surfcluster.surface import signed_adjacency
from surfcluster.mutation import (
    NonMonomialDenominator,
    _mutate_matrix,
    f_from_x,
    geometric_seed,
    mutate_seed,
    principal_seed,
    run_sequence,
    specialize_geometric,
    tropical_coeffs,
)
from surfcluster.expand import expand_ordinary, f_polynomial
from conftest import polygon_arc


def random_skew(n, rng, big=False):
    B = [[0] * n for _ in range(n)]
    placed_big = False
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.choice((-1, 0, 0, 1))
            if big and not placed_big and rng.random() < 0.3:
                v = rng.choice((-2, 2))
                placed_big = True
            B[i][j] = v
            B[j][i] = -v
    return B


def dense_mutate(rows, k):
    """Fomin-Zelevinsky's matrix mutation entry by entry: the reference
    for `_mutate_matrix`."""
    out = []
    for i, row in enumerate(rows):
        new = []
        for j, b in enumerate(row):
            if i == k or j == k:
                new.append(-b)
            else:
                bik, bkj = row[k], rows[k][j]
                sgn = (bik > 0) - (bik < 0)
                new.append(b + sgn * max(bik * bkj, 0))
        out.append(tuple(new))
    return tuple(out)


def random_extended(rng):
    """A skew-symmetric n x n top block, n <= 6, and up to 6 coefficient
    rows, entries in -3..3."""
    n = rng.randint(1, 6)
    top = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            top[i][j] = rng.randint(-3, 3)
            top[j][i] = -top[i][j]
    bottom = [[rng.randint(-3, 3) for _ in range(n)]
              for _ in range(rng.randint(0, 6))]
    return tuple(map(tuple, top + bottom))


def test_sparse_matrix_mutation_equals_the_dense_rule():
    rng = random.Random(11)
    for _ in range(300):
        rows = random_extended(rng)
        for k in range(len(rows[0])):
            new = _mutate_matrix(rows, k)
            assert new == dense_mutate(rows, k)
            assert _mutate_matrix(new, k) == rows
            # a row with b_ik = 0 is kept as it is
            assert all(new[i] is row for i, row in enumerate(rows)
                       if i != k and not row[k])


def test_mutation_involution_random():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 4)
        s = principal_seed(random_skew(n, rng), [str(i + 1) for i in range(n)])
        s = run_sequence(s, [rng.randrange(n) for _ in range(rng.randint(0, 4))])
        for k in range(n):
            assert mutate_seed(mutate_seed(s, k), k) == s


def test_rank2_periodicity():
    s0 = principal_seed([[0, 1], [-1, 0]], ["1", "2"])
    s = run_sequence(s0, [0, 1, 0, 1, 0])
    # type A2: after five alternating mutations the cluster returns swapped
    assert set(s.cluster) == set(s0.cluster)
    assert s.cluster == (s0.cluster[1], s0.cluster[0])


def test_square_one_step_exchange():
    T = square()
    seed = principal_seed(signed_adjacency(T), T.tagged_names())
    out = mutate_seed(seed, 0).cluster[0]
    xd, yd = L.var(xvar("d")), L.var(yvar("d"))
    assert out.mul(xd) == L.one().add(yd)
    assert out == expand_ordinary(T, square_other_diagonal(T)).poly


def test_run_sequence_identity_and_reverse():
    s = principal_seed([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], ["1", "2", "3"])
    assert run_sequence(s, []) == s
    seq = [0, 2, 1, 0]
    assert run_sequence(run_sequence(s, seq), seq[::-1]) == s


def test_top_block_stays_skew_and_coeffs_monomial():
    rng = random.Random(1)
    s = principal_seed(random_skew(4, rng), ["1", "2", "3", "4"])
    for k in (0, 1, 2, 3, 2, 1):
        s = mutate_seed(s, k)
        top = s.ext_matrix[:s.n]
        for i in range(4):
            for j in range(4):
                assert top[i][j] == -top[j][i]
        for c in tropical_coeffs(s):
            assert c.is_monomial()
            assert c._ring is s.cluster[0]._ring       # the seed's ring


def test_f_from_x():
    xd, yd = L.var(xvar("d")), L.var(yvar("d"))
    e = L.one().add(yd).mul(L.var(xvar("d"), -1))
    assert f_from_x(e) == L.one().add(yd)
    assert f_from_x(xd) == L.one()


def test_oracle_f_constant_term_one():
    T = polygon(6)
    seed = principal_seed(signed_adjacency(T), T.tagged_names())
    for seq in ([0], [0, 1], [0, 1, 2], [2, 1, 0], [1, 0, 2, 1]):
        s = run_sequence(seed, seq)
        for x in s.cluster:
            f = f_from_x(x)
            assert dict(f.terms()).get((), 0) == 1


def test_specialize_geometric_trivial_and_principal():
    T = polygon(6)
    names = T.tagged_names()
    seed = principal_seed(signed_adjacency(T), names)
    X = run_sequence(seed, [0, 1]).cluster[1]
    F = f_from_x(X)
    # all coefficients set to one: the coefficient-free expansion
    ystar1 = {yvar(n): L.one() for n in names}
    free = specialize_geometric(X, F, ystar1)
    assert free == X.substitute(ystar1)
    # principal generators map to themselves
    ystar2 = {yvar(n): L.var(yvar(n)) for n in names}
    assert specialize_geometric(X, F, ystar2) == X


def boundary_coefficient_seed(T):
    """Hexagon with one frozen variable per boundary segment."""
    B = signed_adjacency(T)
    n = len(B)
    index = {a: i for i, a in enumerate(T.arcs)}
    rows = [list(r) for r in B]
    frozen = list(T.boundary)
    for b in frozen:
        row = [0] * n
        for t in T.triangles:
            s = t.sides
            cw = (s[2], s[1], s[0])
            for a in range(3):
                u, v = cw[a], cw[(a + 1) % 3]
                if u == b and v in index:
                    row[index[v]] += 1
                if v == b and u in index:
                    row[index[u]] -= 1
        rows.append(row)
    return geometric_seed(rows, T.tagged_names(), frozen), rows


def test_specialize_geometric_boundary_system():
    T = polygon(6)
    names = T.tagged_names()
    geo, rows = boundary_coefficient_seed(T)
    n = len(names)
    ystar = {}
    for j, nm in enumerate(names):
        exps = {yvar(f): rows[n + i][j] for i, f in enumerate(T.boundary)
                if rows[n + i][j]}
        ystar[yvar(nm)] = L.monomial(1, exps)
    prin = principal_seed(signed_adjacency(T), names)
    for seq in ([0], [1, 2], [0, 1, 2], [2, 0, 1]):
        a = run_sequence(prin, seq)
        b = run_sequence(geo, seq)
        for k in range(n):
            X = a.cluster[k]
            F = f_from_x(X)
            assert specialize_geometric(X, F, ystar) == b.cluster[k]


def test_a_step_shifts_no_keys(monkeypatch):
    # a seed's cluster variables and frozen monomials share one ring, so no
    # ring operation of a mutation step re-packs an operand's keys into
    # another ring
    from surfcluster import poly
    repack, repacked = poly._repack, []

    def counted(p, ring, image):
        repacked.append(p)
        return repack(p, ring, image)

    monkeypatch.setattr(poly, "_repack", counted)
    T = polygon(6)
    seq = [0, 1, 2, 0, 2, 1]
    run_sequence(principal_seed(signed_adjacency(T), T.tagged_names()), seq)
    run_sequence(boundary_coefficient_seed(T)[0], seq)
    assert repacked == []
    # the count sees a re-pack: x1 and y1 lie in rings of their own
    L.var(xvar("1")).add(L.var(yvar("1")))
    assert len(repacked) == 2


def test_specialize_geometric_rejects_polynomials():
    X = L.var(xvar("1"))
    F = L.one()
    with pytest.raises(NonMonomialDenominator):
        specialize_geometric(X, F, {yvar("1"): L.one().add(L.var(yvar("2")))})


@pytest.mark.parametrize("value", [L.const(2).mul(L.var(yvar("2"))),
                                   L.var(yvar("2")).neg()])
def test_specialize_geometric_refuses_all_but_unit_monomials(value):
    y1 = L.var(yvar("1"))
    X = L.one().add(y1).mul(L.var(xvar("1"), -1))
    with pytest.raises(NonMonomialDenominator):
        specialize_geometric(X, f_from_x(X), {yvar("1"): value})


def test_tropical_evaluation_refusals():
    y1, y2 = L.var(yvar("1")), L.var(yvar("2"))
    X = L.one().add(y1).mul(L.var(xvar("1"), -1))
    # y2 of F is unbound
    with pytest.raises(NonMonomialDenominator):
        specialize_geometric(X, L.one().add(y1).add(y2), {yvar("1"): y2})
    # tropical evaluation is defined for subtraction-free F only
    with pytest.raises(NonMonomialDenominator):
        specialize_geometric(X, L.one().sub(y1), {yvar("1"): y2})
    with pytest.raises(NonMonomialDenominator):
        specialize_geometric(X, L.zero(), {yvar("1"): y2})


def test_expansion_f_agrees_with_oracle_f():
    T = polygon(6)
    seed = principal_seed(signed_adjacency(T), T.tagged_names())
    arc = polygon_arc(T, 2, 5)
    e = expand_ordinary(T, arc)
    oracle = run_sequence(seed, [0, 1]).cluster[1]
    assert f_polynomial(e) == f_from_x(oracle)
