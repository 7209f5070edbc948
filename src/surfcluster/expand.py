"""Laurent expansions of cluster variables attached to tagged arcs.

`expand_arc` is the one entry point; `expand_ordinary`,
`expand_single_notch`, `expand_double_notch` and `expand_notched_loop` are
thin wrappers around it.

Ordinary arcs sum weight times specialized height over the perfect
matchings of the snake graph without listing them, building the graph or
placing its tiles: heights are linear in the matching, so each rule of
each tile carries one packed monomial, looked up by the tile's two strip
triangles in T's transfer table (`matchings.strip_transfers`), and the
tile-by-tile matching DP carries one polynomial per state (`strip_sum`).

Notched arcs come from ordinary transfer sums through two identities, with
no loop-graph matching listed:

- the loop identity x_l = x_gamma * x_gamma^(p) (Fomin-Shapiro-Thurston),
  where the loop l (`snake.build_loop_path`) follows gamma to the puncture
  p, circles p and comes back: around a self-folded radius at its own
  puncture, the triangulation's loop;
- the two-notch identity x_gamma * x_gamma^(pq) = x_gamma^(p) * x_gamma^(q)
  * y_chi + (1 - Y_p)(1 - Y_q) * phi(y^cross), Y_p being the specialized
  product of y over the arc ends at p.  For a path y_chi = 1 and
  phi(y^cross) specializes its crossed arcs; for an arc of the
  triangulation y_chi is its own y and phi(y^cross) = 1.  A notched loop at
  p takes q = p and the reversed loop as the second side.

The paper's sums over the symmetric matchings and compatible pairs of loop
graphs are the oracle the tests check both identities against.

An `Expansion` is its exact Laurent polynomial `poly`, with the crossing
monomial `cross` (extended by the arc ends at each notched puncture) and
`matchings_used`, the number of summands of the matching formula.  At
x = y = 1 every expansion is its matching count and (1 - Y) vanishes, so
the identities give F_l(1) / F_gamma(1) symmetric matchings for one notch
and F_p(1) * F_q(1) / F_gamma(1) compatible pairs for two.  The polynomial
quotients are exact whenever the identities hold (a remainder raises
`NotDivisible`), so a notched arc's count is its own value at x = y = 1,
the sum of its coefficients.  The closed form of a doubly-notched arc of
the triangulation sums no matchings and reports 0.  `f_polynomial` sets
every x to 1 in `poly`.  The z factors that relate an arc to its notched
version and the Euler tables that count matchings by height are kept with
the tests (`tests/helpers.py`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .poly import LaurentPoly, VarId, lowest_exponents, yvar
from .matchings import (
    _keys,
    matching_count,
    phi_specialize,
    strip_sum,
    strip_transfers,
    x_of_labels,
)
from .mutation import f_from_x
from .snake import EndpointNotPuncture, build_loop_path, build_strip
from .surface import (
    CrossingPath,
    SurfaceError,
    TaggedArcRef,
    Triangulation,
    arcs_around_puncture,
)

__all__ = [
    "Expansion",
    "expand_arc",
    "ForbiddenSurface",
    "InhomogeneousExpansion",
    "crossing_monomial",
    "expand_ordinary",
    "expand_single_notch",
    "expand_double_notch",
    "expand_notched_loop",
    "f_polynomial",
    "g_vector",
    "retag_expansion",
]


class ForbiddenSurface(SurfaceError):
    pass


class InhomogeneousExpansion(ArithmeticError):
    pass


@dataclass
class Expansion:
    poly: LaurentPoly
    cross: LaurentPoly                    # a monomial with coefficient 1
    matchings_used: int                   # summands: matchings or pairs

    @property
    def numerator(self) -> LaurentPoly:
        """`poly * cross`, the sum over matchings before the division."""
        return self.poly.mul(self.cross)

    def display(self) -> str:
        """Canonical text of `poly` over the least monomial, in its ring,
        that clears its negative exponents: numerator over `cross`, reduced."""
        den = self.poly._ring.monomial({v: -e for v, e in lowest_exponents(
            self.poly).items() if e < 0})
        if den.is_one():
            return self.poly.canonical_text()
        num = self.poly.mul(den)
        return f"({num.canonical_text()}) / ({den.canonical_text()})"


def _puncture_at(T: Triangulation, spot: Tuple[int, str]) -> Optional[str]:
    name = T.vertex_name(*spot)
    return name if name in T.punctures else None


def crossing_monomial(T: Triangulation, path: Union[CrossingPath, str],
                      punctures: Sequence[str] = ()) -> LaurentPoly:
    """Product of the crossed-arc weights, extended by the arc ends at each
    notched puncture."""
    labels = list(path.crossed_arcs()) if isinstance(path, CrossingPath) else []
    for p in punctures:
        labels.extend(arcs_around_puncture(T, p))
    return x_of_labels(T, labels)


def _ordinary(T: Triangulation, gamma: Union[CrossingPath, str]) -> Expansion:
    """The transfer sum of an ordinary arc; an arc of the triangulation is
    its own variable."""
    if isinstance(gamma, str):
        return Expansion(x_of_labels(T, [gamma]), LaurentPoly.one(), 1)
    strip = build_strip(T, gamma)
    start, rules, turns = strip_transfers(T, strip)
    # every perfect matching adds one monomial with coefficient 1
    acc = strip_sum(start, rules)
    count = matching_count(turns)
    if sum(acc.values()) != count:
        raise ArithmeticError(f"the transfer sum counts {sum(acc.values())} "
                              f"matchings, the continuant {count}")
    # a matching has d + 1 edges, each adding at most 1 to an x exponent,
    # and each of the d tiles moves a y exponent by at most 1
    num = LaurentPoly.from_packed(acc, len(strip), _keys(T, len(strip))[0])
    cross = crossing_monomial(T, gamma)
    return Expansion(num.div_exact(cross), cross, count)


def expand_arc(T: Triangulation, ref: TaggedArcRef, orientation: str = "ccw",
               punctures: Sequence[Optional[str]] = ()) -> Expansion:
    """The expansion of a tagged arc: the transfer sum when no end is
    notched, the loop identity for one notch, the two-notch identity for
    two.

    `ref.base` is a crossing path or an arc of the triangulation.  A path
    notched only at its start is read backwards.  A path that begins and
    ends at one puncture is a loop, followed in the given orientation ("cw"
    reverses it) whichever end is notched; any orientation other than
    "ccw" and "cw" raises ValueError.  `punctures` names the notched
    punctures, the one at the end first and then the one at the start; a
    path's own ends are used where a name is missing, and a name that is
    not at that end is rejected.  For an arc of the triangulation they pick
    the notched ends: each given name must be one of the arc's ends, and a
    missing one is the other end for two notches and, for one, the
    enclosed puncture of a self-folded radius or else the arc's one
    puncture end.  Every loop path is built, and so checked for minimal
    position, before the first transfer sum runs.
    """
    if orientation not in ("ccw", "cw"):
        raise ValueError(f"orientation must be 'ccw' or 'cw', not "
                         f"{orientation!r}")
    if not (ref.notch_start or ref.notch_end):
        return _ordinary(T, ref.base)
    sides = _notched_sides(T, ref, orientation, punctures)
    gamma = sides[0][0]
    # the loop l that follows g to p, circles p and comes back
    loop_paths = [build_loop_path(T, g, p) for g, p in sides]
    loops = [_ordinary(T, loop) for loop in loop_paths]
    x = _ordinary(T, gamma)
    # x_l = x_gamma * x_gamma^(p)
    singles = [l.poly.div_exact(x.poly) for l in loops]
    p = sides[0][1]
    q = sides[1][1] if len(sides) == 2 else None
    if q is None:
        poly = singles[0]
    else:
        one, ring = LaurentPoly.one(), _keys(T)[0]
        if isinstance(gamma, str):
            y_chi, phi = ring.monomial({yvar(T.tagged_name(gamma)): 1}), one
        else:
            y_chi, phi = one, phi_specialize(Counter(gamma.crossed_arcs()), T)
        ends = [one.sub(phi_specialize(Counter(arcs_around_puncture(T, r)), T))
                for r in (p, q)]
        num = singles[0].mul(singles[1]).mul(y_chi).add(
            ends[0].mul(ends[1]).mul(phi))
        poly = num.div_exact(x.poly)
    # the identities divide matching counts at x = y = 1; the closed form
    # for an arc of the triangulation sums no matchings
    closed = q is not None and isinstance(gamma, str)
    count = 0 if closed else sum(poly.coefficients())
    return Expansion(poly, crossing_monomial(T, gamma, [p for _, p in sides]),
                     count)


def _notched_sides(T: Triangulation, ref: TaggedArcRef, orientation: str,
                   punctures: Sequence[Optional[str]]
                   ) -> List[Tuple[Union[CrossingPath, str], str]]:
    """The arc read toward each notched puncture: [(gamma, p)] for one
    notch, [(gamma, p), (gamma reversed, q)] for two (see `expand_arc`)."""
    gamma, two = ref.base, ref.notch_start and ref.notch_end
    p, q = (tuple(punctures) + (None, None))[:2]
    if isinstance(gamma, str):
        ends = T._arc_ends.get(gamma, [])
        if two:
            _check_not_two_marked_closed(T)
            if len(ends) != 2:
                raise EndpointNotPuncture(
                    f"arc {gamma!r} does not join two punctures")
        given = [r for r in (p, q)[:1 + two] if r is not None]
        rest = list(ends)
        for r in given:
            if r not in rest:
                raise EndpointNotPuncture(f"arc {gamma!r} does not join "
                                          + " and ".join(map(repr, given)))
            rest.remove(r)
        if two:
            p = rest.pop(0) if p is None else p
            q = rest.pop(0) if q is None else q
            return [(gamma, p), (gamma, q)]
        if p is None:
            sf = T.radius_triangle(gamma)
            if sf is None and len(set(ends)) != 1:
                raise EndpointNotPuncture(
                    f"cannot infer the notched puncture of {gamma!r}")
            p = ends[0] if sf is None else sf.puncture
        return [(gamma, p)]
    start, end = _puncture_at(T, gamma.start), _puncture_at(T, gamma.end)
    loop = end is not None and start == end
    if loop:
        reverse = orientation == "cw"
    else:
        reverse = not ref.notch_end       # notched at its start only
    if reverse:
        gamma, start, end = gamma.reversed(), end, start
    p = end if p is None else p
    if not two:
        if p is None:
            raise EndpointNotPuncture("path does not end at a puncture")
        return [(gamma, p)]
    if not loop:
        _check_not_two_marked_closed(T)
    q = start if q is None else q
    if p is None or q is None:
        raise EndpointNotPuncture("both endpoints must be punctures")
    return [(gamma, p), (gamma.reversed(), q)]


def expand_ordinary(T: Triangulation,
                    gamma: Union[CrossingPath, str]) -> Expansion:
    """Matching-sum expansion of an ordinary arc (or an arc of the
    triangulation, which is its own variable)."""
    return expand_arc(T, TaggedArcRef(gamma))


def expand_single_notch(T: Triangulation, gamma: Union[CrossingPath, str],
                        p: Optional[str] = None) -> Expansion:
    """Expansion of the arc notched at the puncture its path ends at (for
    an arc of the triangulation: at p)."""
    return expand_arc(T, TaggedArcRef(gamma, notch_end=True), punctures=(p,))


def expand_double_notch(T: Triangulation, gamma: Union[CrossingPath, str],
                        p: Optional[str] = None,
                        q: Optional[str] = None) -> Expansion:
    """Expansion of the arc between punctures p (its end) and q (its start)
    notched at both."""
    return expand_arc(T, TaggedArcRef(gamma, True, True), punctures=(p, q))


def expand_notched_loop(T: Triangulation, rho: CrossingPath, notches: int,
                        orientation: str = "ccw") -> Expansion:
    """Notched versions of a loop based at a puncture.

    The singly-notched loop is not a cluster variable; it is the formal
    matching sum over the self-intersecting loop graph obtained by following
    the loop, circling the puncture and doubling back.  The orientation
    selects which of the two such elements is computed ("cw" uses the
    reversed loop); the doubly-notched loop pairs both and is
    orientation-independent.
    """
    if notches not in (1, 2):
        raise ValueError("notches must be 1 or 2")
    p = _puncture_at(T, rho.end)
    if p is None or _puncture_at(T, rho.start) != p:
        raise EndpointNotPuncture("notched loops must begin and end at one puncture")
    return expand_arc(T, TaggedArcRef(rho, notches == 2, True), orientation)


def _check_not_two_marked_closed(T: Triangulation) -> None:
    topo = T.topology
    if topo.boundary_components == 0 and \
            topo.punctures + topo.boundary_marked == 2:
        raise ForbiddenSurface(
            "closed surface with exactly two marked points is not supported")


# ---------------------------------------------------------------------------
# F-polynomials, g-vectors, retagging


def f_polynomial(e: Expansion) -> LaurentPoly:
    """Set every cluster variable to 1."""
    return f_from_x(e.poly)


def _term_degree(ev, index: Dict[str, int], B: Sequence[Sequence[int]]):
    # deg(x_i) = e_i; deg(y_j) reads off row j of the signed adjacency
    # matrix, which is what makes the hatted coefficients degree zero under
    # the clockwise-pair sign convention used by signed_adjacency.
    n = len(B)
    deg = [0] * n
    for v, exp in ev:
        if v.name not in index:
            raise InhomogeneousExpansion(f"unknown variable {v.text()}")
        i = index[v.name]
        if v.kind == "x":
            deg[i] += exp
        elif v.kind == "y":
            for r in range(n):
                deg[r] += B[i][r] * exp
    return tuple(deg)


def g_vector(e: Expansion, B: Sequence[Sequence[int]],
             arc_names: Sequence[str]) -> List[int]:
    """Common degree vector under deg(x_i)=e_i, deg(y_i)=B e_i."""
    index = {name: i for i, name in enumerate(arc_names)}
    degs = {_term_degree(ev, index, B) for ev, _ in e.poly.terms()}
    if len(degs) != 1:
        raise InhomogeneousExpansion(
            f"expansion has {len(degs)} distinct degrees")
    return list(degs.pop())


def retag_expansion(e: Expansion, T: Triangulation,
                    punctures: Sequence[str]) -> Expansion:
    """Swap every variable with its notched twin at the given punctures."""
    mapping: Dict[str, str] = {}
    for p in punctures:
        sf = T._folded_at.get(p)
        for arc in set(arcs_around_puncture(T, p)):
            a = T.tagged_name(arc)
            b = (T.notched_twin(arc) if sf is not None and arc == sf.radius
                 else _toggle_notch_name(a, p))
            mapping[a], mapping[b] = b, a

    def rename(poly: LaurentPoly) -> LaurentPoly:
        bind = {}
        for v in poly.variables():
            if v.name in mapping:
                bind[v] = LaurentPoly.var(VarId(v.kind, mapping[v.name]))
        return poly.substitute(bind)

    return Expansion(rename(e.poly), rename(e.cross), e.matchings_used)


def _toggle_notch_name(name: str, p: str) -> str:
    suffix = f"^({p})"
    if name.endswith(suffix):
        return name[: -len(suffix)]
    return name + suffix
