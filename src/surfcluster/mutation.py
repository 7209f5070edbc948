"""Seed mutation with principal (or any geometric) coefficients.

A seed is an extended exchange matrix whose top square block is
skew-symmetric, together with the cluster of Laurent polynomials in the
initial variables.  Coefficients live in the bottom rows only; the tropical
coefficient tuple is derived from them, never stored.  Everything is exact:
the new cluster variable is computed by polynomial arithmetic and exact
division, which the Laurent phenomenon guarantees to succeed (a failure
raises DivisionFailed and indicates a bug).

One step does work in proportion to what changes.  Fomin-Zelevinsky's
rule negates row and column k and changes b_ij (i, j != k) only where
b_ik * b_kj > 0, by |b_ik| * b_kj: so row k is negated, every other row
with b_ik = 0 is kept as the same tuple, and the rest touch only column k
and the support of row k.  Each side of the exchange relation is a product
of cluster-variable powers times one frozen monomial; it is assembled from
those factors alone, never by multiplying from one, so a side with a single
factor is that factor.  A seed's cluster variables and frozen monomials lie
in one ring, that of its x and y variables (see `poly`), so no step
re-packs an operand.

Other geometric coefficients come from principal ones by Fomin-Zelevinsky's
separation formula (Cluster algebras IV, Thm 3.7): bind each y to its
tropical monomial in the principal expansion and divide by the tropical
value of the F-polynomial.  Both are substitutions by monomials with
coefficient 1, as is setting the x's to 1 to get the F-polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import itemgetter, neg
from typing import Dict, List, Sequence, Tuple

from .poly import (LaurentPoly, NotDivisible, Ring, VarId, lowest_exponents,
                   ring_of, xvar, yvar)

__all__ = [
    "Seed",
    "DivisionFailed",
    "NonMonomialDenominator",
    "principal_seed",
    "mutate_seed",
    "run_sequence",
    "tropical_coeffs",
    "f_from_x",
    "specialize_geometric",
]


class DivisionFailed(ArithmeticError):
    pass


class NonMonomialDenominator(ArithmeticError):
    pass


@dataclass(frozen=True)
class Seed:
    ext_matrix: Tuple[Tuple[int, ...], ...]   # (n+m) x n, top n x n skew-symmetric
    cluster: Tuple[LaurentPoly, ...]          # n Laurent polynomials
    frozen: Tuple[VarId, ...]                 # variables of the bottom rows

    @property
    def n(self) -> int:
        return len(self.cluster)


def principal_seed(B: Sequence[Sequence[int]], names: Sequence[str]) -> Seed:
    """Seed with principal coefficients: extended matrix [B; I]."""
    n = len(B)
    rows = [tuple(row[:n]) for row in B]
    if rows != [tuple(map(neg, col)) for col in zip(*rows)]:
        raise ValueError("top block must be skew-symmetric")
    zero = (0,) * n
    rows += [zero[:i] + (1,) + zero[i + 1:] for i in range(n)]
    return geometric_seed(rows, names, names)


def geometric_seed(ext: Sequence[Sequence[int]], names: Sequence[str],
                   frozen_names: Sequence[str]) -> Seed:
    """Seed with the extended matrix ext, the cluster variables x_name and
    the frozen variables y_name, all in one narrow ring (see `poly`)."""
    xs = [xvar(nm) for nm in names]
    frozen = tuple(yvar(nm) for nm in frozen_names)
    ring = ring_of(xs + list(frozen), 16)
    cluster = tuple(LaurentPoly.from_packed({ring.units[x]: 1}, 1, ring)
                    for x in xs)
    return Seed(tuple(tuple(r) for r in ext), cluster, frozen)


def _mutate_matrix(rows: Sequence[Tuple[int, ...]], k: int):
    """mu_k of an extended matrix (see the module docstring)."""
    rk = rows[k]
    plus = [(j, b) for j, b in enumerate(rk) if b > 0 and j != k]
    minus = [(j, b) for j, b in enumerate(rk) if b < 0 and j != k]
    out = list(rows)
    out[k] = tuple(map(neg, rk))
    for i in compress(range(len(rows)), map(itemgetter(k), rows)):
        if i != k:
            row = rows[i]
            bik = row[k]
            new = list(row)
            new[k] = -bik
            a = abs(bik)
            for j, b in plus if bik > 0 else minus:
                new[j] += a * b
            out[i] = tuple(new)
    return tuple(out)


def _side(factors: List[LaurentPoly], frozen: Dict[VarId, int],
          ring: Ring) -> LaurentPoly:
    """The product of the factors and the frozen monomial, in the ring."""
    if frozen:
        factors.append(ring.monomial(frozen))
    out = factors[0] if factors else LaurentPoly.one()
    for f in factors[1:]:
        out = out.mul(f)
    return out


def mutate_seed(s: Seed, k: int) -> Seed:
    """Mutation in direction k (0-based)."""
    n = s.n
    if not 0 <= k < n:
        raise IndexError(f"mutation index {k} out of range")
    rows, cluster = s.ext_matrix, s.cluster
    # plus side first: cluster-variable powers, and frozen exponents
    powers: Tuple[List[LaurentPoly], ...] = ([], [])
    frozen: Tuple[Dict[VarId, int], ...] = ({}, {})
    col = [row[k] for row in rows]
    for i in compress(range(len(rows)), col):
        side, e = col[i] < 0, abs(col[i])
        if i < n:
            powers[side].append(cluster[i].pow(e))
        else:
            u = s.frozen[i - n]
            frozen[side][u] = frozen[side].get(u, 0) + e
    ring = cluster[k]._ring               # the ring of the whole seed
    plus, minus = (_side(p, f, ring) for p, f in zip(powers, frozen))
    try:
        newvar = plus.add(minus).div_exact(cluster[k])
    except NotDivisible as exc:
        raise DivisionFailed(f"exchange at {k} is not exact: {exc}") from exc
    return Seed(_mutate_matrix(rows, k),
                cluster[:k] + (newvar,) + cluster[k + 1:], s.frozen)


def run_sequence(s: Seed, ks: Sequence[int]) -> Seed:
    for k in ks:
        s = mutate_seed(s, k)
    return s


def tropical_coeffs(s: Seed) -> Tuple[LaurentPoly, ...]:
    """The coefficient tuple encoded by the bottom rows, in the seed's ring."""
    n = s.n
    out = []
    for j in range(n):
        exps: Dict[VarId, int] = {}
        for i, u in enumerate(s.frozen):
            b = s.ext_matrix[n + i][j]
            if b:
                exps[u] = b
        out.append(s.cluster[j]._ring.monomial(exps))
    return tuple(out)


def f_from_x(X: LaurentPoly) -> LaurentPoly:
    """The F-polynomial of a principal-coefficient cluster variable: every
    cluster variable bound to 1."""
    one = LaurentPoly.one()
    return X.substitute({v: one for v in X.variables() if v.kind == "x"})


def _tropical_eval(F: LaurentPoly, ystar: Dict[VarId, LaurentPoly]) -> LaurentPoly:
    """F evaluated in the tropical semifield of the frozen variables: the
    monomial of the least exponents of F with the y's bound by `ystar`.
    F must be a nonzero subtraction-free y-polynomial; then the terms that
    the substitution merges never cancel, so the least exponents are taken
    over the images of all of F's terms."""
    if F.is_zero():
        raise NonMonomialDenominator("tropical evaluation of zero")
    unbound = F.variables() - ystar.keys()
    if unbound:
        raise NonMonomialDenominator(
            f"unbound coefficient {min(unbound).text()}")
    if any(c < 0 for c in F.coefficients()):
        raise NonMonomialDenominator(
            "tropical evaluation of a polynomial with a negative coefficient")
    return LaurentPoly.monomial(1, lowest_exponents(F.substitute(ystar)))


def specialize_geometric(X: LaurentPoly, F: LaurentPoly,
                         ystar: Dict[VarId, LaurentPoly]) -> LaurentPoly:
    """Cluster variable for an arbitrary geometric coefficient tuple:
    substitute the tropical monomials into the principal expansion and divide
    by the tropical evaluation of the F-polynomial."""
    for v, val in ystar.items():
        if list(val.coefficients()) != [1]:
            raise NonMonomialDenominator(
                f"{v.text()} is not bound to a monomial with coefficient 1")
    return X.substitute(ystar).div_exact(_tropical_eval(F, ystar))
