"""Seed mutation with principal (or any geometric) coefficients.

A seed is an extended exchange matrix whose top square block is
skew-symmetric, together with the cluster of Laurent polynomials in the
initial variables.  Coefficients live in the bottom rows only; the tropical
coefficient tuple is derived from them, never stored.  Everything is exact:
the new cluster variable is computed by polynomial arithmetic and exact
division, which the Laurent phenomenon guarantees to succeed (a failure
raises DivisionFailed and indicates a bug).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .poly import LaurentPoly, NotDivisible, VarId, xvar, yvar

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

    def top_block(self) -> List[List[int]]:
        n = self.n
        return [list(self.ext_matrix[i]) for i in range(n)]


def principal_seed(B: Sequence[Sequence[int]],
                   names: Optional[Sequence[str]] = None) -> Seed:
    """Seed with principal coefficients: extended matrix [B; I]."""
    n = len(B)
    if names is None:
        names = [str(i + 1) for i in range(n)]
    for i in range(n):
        for j in range(n):
            if B[i][j] != -B[j][i]:
                raise ValueError("top block must be skew-symmetric")
    rows = [tuple(B[i][j] for j in range(n)) for i in range(n)]
    rows += [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    cluster = tuple(LaurentPoly.var(xvar(nm)) for nm in names)
    frozen = tuple(yvar(nm) for nm in names)
    return Seed(tuple(rows), cluster, frozen)


def geometric_seed(ext: Sequence[Sequence[int]], names: Sequence[str],
                   frozen_names: Sequence[str]) -> Seed:
    n = len(names)
    rows = tuple(tuple(r) for r in ext)
    cluster = tuple(LaurentPoly.var(xvar(nm)) for nm in names)
    frozen = tuple(yvar(nm) for nm in frozen_names)
    return Seed(rows, cluster, frozen)


def _mutate_matrix(rows: Sequence[Sequence[int]], k: int, n: int):
    out = []
    for i, row in enumerate(rows):
        new = []
        for j in range(n):
            b = row[j]
            if i == k or j == k:
                new.append(-b)
            else:
                bik, bkj = row[k], rows[k][j]
                sgn = (bik > 0) - (bik < 0)
                new.append(b + sgn * max(bik * bkj, 0))
        out.append(tuple(new))
    return tuple(out)


def mutate_seed(s: Seed, k: int) -> Seed:
    """Mutation in direction k (0-based)."""
    n = s.n
    if not 0 <= k < n:
        raise IndexError(f"mutation index {k} out of range")
    plus = LaurentPoly.one()
    minus = LaurentPoly.one()
    for i in range(n):
        b = s.ext_matrix[i][k]
        if b > 0:
            plus = plus.mul(s.cluster[i].pow(b))
        elif b < 0:
            minus = minus.mul(s.cluster[i].pow(-b))
    for i, u in enumerate(s.frozen):
        b = s.ext_matrix[n + i][k]
        if b > 0:
            plus = plus.mul(LaurentPoly.var(u, b))
        elif b < 0:
            minus = minus.mul(LaurentPoly.var(u, -b))
    try:
        newvar = plus.add(minus).div_exact(s.cluster[k])
    except NotDivisible as exc:
        raise DivisionFailed(f"exchange at {k} is not exact: {exc}") from exc
    cluster = list(s.cluster)
    cluster[k] = newvar
    return Seed(_mutate_matrix(s.ext_matrix, k, n), tuple(cluster), s.frozen)


def run_sequence(s: Seed, ks: Sequence[int]) -> Seed:
    for k in ks:
        s = mutate_seed(s, k)
    return s


def tropical_coeffs(s: Seed) -> Tuple[LaurentPoly, ...]:
    """The coefficient tuple encoded by the bottom rows."""
    n = s.n
    out = []
    for j in range(n):
        exps: Dict[VarId, int] = {}
        for i, u in enumerate(s.frozen):
            b = s.ext_matrix[n + i][j]
            if b:
                exps[u] = b
        out.append(LaurentPoly.monomial(1, exps))
    return tuple(out)


def f_from_x(X: LaurentPoly) -> LaurentPoly:
    """Substitute every cluster variable by 1."""
    return X.at_one("x")


def _tropical_eval(F: LaurentPoly, ystar: Dict[VarId, LaurentPoly]) -> LaurentPoly:
    """Evaluate a y-polynomial in the tropical semifield of the frozen
    variables; the result is a monomial."""
    mins: Dict[VarId, int] = {}
    first = True
    for ev, _ in F.terms():
        exps: Dict[VarId, int] = {}
        for v, e in ev:
            val = ystar.get(v)
            if val is None:
                raise NonMonomialDenominator(f"unbound coefficient {v.text()}")
            c, vex = val.monomial_parts()
            if c != 1:
                raise NonMonomialDenominator("tropical values must be monomials")
            for u, eu in vex.items():
                exps[u] = exps.get(u, 0) + e * eu
        if first:
            mins = dict(exps)
            first = False
        else:
            for u in set(mins) | set(exps):
                mins[u] = min(mins.get(u, 0), exps.get(u, 0))
    if first:
        raise NonMonomialDenominator("tropical evaluation of zero")
    return LaurentPoly.monomial(1, {u: e for u, e in mins.items() if e})


def specialize_geometric(X: LaurentPoly, F: LaurentPoly,
                         ystar: Dict[VarId, LaurentPoly]) -> LaurentPoly:
    """Cluster variable for an arbitrary geometric coefficient tuple:
    substitute the tropical monomials into the principal expansion and divide
    by the tropical evaluation of the F-polynomial."""
    for v, val in ystar.items():
        if not val.is_monomial():
            raise NonMonomialDenominator(
                f"{v.text()} is bound to a non-monomial")
    sub = X.substitute(ystar)
    den = _tropical_eval(F, ystar)
    return sub.div_exact(den)
