"""Laurent expansions of cluster variables attached to tagged arcs.

Ordinary arcs sum weight times specialized height over the perfect
matchings of the snake graph without listing them: heights are linear in
the matching, so each edge carries one packed monomial and the tile-by-tile
matching DP carries one polynomial per state (`matchings.transfer_sum`).
Arcs notched at one puncture sum over symmetric matchings of the loop graph
around that puncture; arcs notched at both ends sum over compatible pairs of
matchings of the two loop graphs.  Those two enumerate matchings and add
one monomial per summand (`_sum`).  Initial arcs and arcs of the
triangulation are dispatched to their closed forms automatically.

An `Expansion` carries `poly`, the exact quotient numerator/cross (a
Laurent polynomial, since the denominator is a monomial), the unreduced
`numerator` and crossing monomial `cross`, the tagged `arc`, and
`matchings_used`, the number of summands (matchings or compatible pairs; 0
for the closed form of a doubly-notched arc of the triangulation).  Equality
testing uses `poly`.  `f_polynomial` sets every x to 1 in `poly`;
`euler_table` reads the F-polynomial's coefficients, so it counts matchings
by height for every kind of arc.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .poly import LaurentPoly, VarId, lowest_exponents, pack, xvar, yvar
from .matchings import (
    Matching,
    _tile_heights,
    compatible_pairs,
    edge_keys,
    enumerate_matchings,
    gamma_symmetric_filter,
    height_exponents,
    minimal_maximal,
    perfect_end_restriction,
    phi_exps,
    phi_specialize,
    transfer_sum,
    weight_exps,
    x_of_label,
)
from .mutation import f_from_x
from .snake import (
    EndpointNotPuncture,
    LoopGraph,
    NotchedTrianglePresent,
    _has_notch_at,
    build_loop_graph,
    build_snake,
)
from .surface import (
    Crossing,
    CrossingPath,
    PathInvalid,
    SelfFolded,
    SurfaceError,
    TaggedArcRef,
    Triangulation,
    arcs_around_puncture,
    corner_walk,
    puncture_corner,
    third_arc,
)

__all__ = [
    "Expansion",
    "ForbiddenSurface",
    "InhomogeneousExpansion",
    "crossing_monomial",
    "expand_ordinary",
    "expand_single_notch",
    "expand_double_notch",
    "expand_notched_loop",
    "z_factor",
    "f_polynomial",
    "g_vector",
    "euler_table",
    "retag_expansion",
]


class ForbiddenSurface(SurfaceError):
    pass


class InhomogeneousExpansion(ArithmeticError):
    pass


@dataclass
class Expansion:
    poly: LaurentPoly                     # exact quotient numerator/cross
    numerator: LaurentPoly
    cross: LaurentPoly                    # a monomial
    arc: TaggedArcRef
    matchings_used: int                   # summands: matchings or pairs

    def __eq__(self, other) -> bool:
        if isinstance(other, Expansion):
            return self.poly == other.poly
        if isinstance(other, LaurentPoly):
            return self.poly == other
        return NotImplemented

    def __hash__(self):
        return hash(self.poly)

    def display(self) -> str:
        """Canonical text with the common monomial factor cancelled."""
        num, den = reduced_fraction(self.numerator, self.cross)
        if den.is_one():
            return num.canonical_text()
        return f"({num.canonical_text()}) / ({den.canonical_text()})"


def reduced_fraction(num: LaurentPoly, den: LaurentPoly) -> Tuple[LaurentPoly, LaurentPoly]:
    """Cancel the largest common monomial factor of a monomial-denominator
    fraction."""
    if not den.is_monomial():
        raise ValueError("not a monomial")
    common = lowest_exponents(num, den)
    if not common:
        return num, den
    shift = LaurentPoly.monomial(1, {v: -e for v, e in common.items()})
    return num.mul(shift), den.mul(shift)


def _puncture_at(T: Triangulation, spot: Tuple[int, str]) -> Optional[str]:
    name = T.vertex_name(*spot)
    return name if name in T.punctures else None


def _ends_product(T: Triangulation, p: str) -> LaurentPoly:
    out = LaurentPoly.one()
    for arc in arcs_around_puncture(T, p):
        out = out.mul(x_of_label(T, arc))
    return out


def crossing_monomial(T: Triangulation, path: Union[CrossingPath, str],
                      notches: int = 0, p: Optional[str] = None,
                      q: Optional[str] = None) -> LaurentPoly:
    """Product of the crossed-arc weights, extended by the arc ends at each
    notched puncture."""
    out = LaurentPoly.one()
    if isinstance(path, CrossingPath):
        for arc in path.crossed_arcs():
            out = out.mul(x_of_label(T, arc))
        if notches >= 1 and p is None:
            p = _puncture_at(T, path.end)
        if notches == 2 and q is None:
            q = _puncture_at(T, path.start)
    if notches >= 1:
        if p is None:
            raise EndpointNotPuncture("notched end is not at a puncture")
        out = out.mul(_ends_product(T, p))
    if notches == 2:
        if q is None:
            raise EndpointNotPuncture("second notched end is not at a puncture")
        out = out.mul(_ends_product(T, q))
    return out


def _merge(*exp_maps) -> Dict:
    out: Dict = {}
    for exps in exp_maps:
        for v, e in exps.items():
            ne = out.get(v, 0) + e
            if ne:
                out[v] = ne
            else:
                del out[v]
    return out


def _scale(exps: Dict, k: int) -> Dict:
    return {v: k * e for v, e in exps.items()}


def _expansion(acc: Dict[int, int], cross: LaurentPoly, ref: TaggedArcRef,
               count: int) -> Expansion:
    """The expansion with packed numerator `acc`, divided once by the
    crossing monomial, over `count` summands."""
    num = LaurentPoly.from_packed(acc)
    return Expansion(num.div_exact(cross), num, cross, ref, count)


def _sum(terms: Iterable[Tuple[Dict, Dict]], cross: LaurentPoly,
         ref: TaggedArcRef) -> Expansion:
    """The matching sum over listed summands: add up one monomial per
    summand from its (x, y) exponent maps.  The two maps hold x and y
    variables apart, so their packed keys add without one digit reaching
    another."""
    acc: Dict[int, int] = {}
    count = 0
    for x, y in terms:
        key = pack(x) + pack(y)
        acc[key] = acc.get(key, 0) + 1
        count += 1
    return _expansion(acc, cross, ref, count)


def expand_ordinary(T: Triangulation, gamma: Union[CrossingPath, str],
                    mirror: bool = False) -> Expansion:
    """Matching-sum expansion of an ordinary arc (or an arc of the
    triangulation, which is its own variable)."""
    if isinstance(gamma, str):
        x = x_of_label(T, gamma)
        return Expansion(x, x, LaurentPoly.one(), TaggedArcRef(gamma), 1)
    g = build_snake(T, gamma, mirror=mirror)
    minus, _ = minimal_maximal(g)
    # every perfect matching adds one monomial with coefficient 1
    acc = transfer_sum(g, *edge_keys(g, T, minus))
    return _expansion(acc, crossing_monomial(T, gamma), TaggedArcRef(gamma),
                      sum(acc.values()))


def _symmetric_terms(T: Triangulation, lg: LoopGraph, power: int
                     ) -> Tuple[Dict[Matching, Tuple[Dict, Dict]],
                                Dict[Matching, Dict]]:
    """The symmetric matchings of a loop graph, in enumeration order, each
    with its weight and height exponent maps divided `power` times by those
    of its perfect end restriction; and the roles of each restriction."""
    minus, _ = minimal_maximal(lg.graph)
    # the end-1 sub-snake's minimal matching agrees with `minus` on the
    # outer edges of the first d tiles: both alternate along the same
    # boundary path from tile 0, so its heights are read against `minus`
    end1 = {r: e for e, r in lg.end_roles[1].items()}
    out, restrictions = {}, {}
    for P in gamma_symmetric_filter(lg, enumerate_matchings(lg.graph)):
        _, roles = perfect_end_restriction(lg, P)
        restrictions[P] = roles
        w = weight_exps(lg.graph, P, T)
        w_restr = weight_exps(lg.graph, roles.values(), T)
        m = height_exponents(lg.graph, P, minus)
        m_restr = _tile_heights(lg.graph, frozenset(end1[r] for r in roles),
                                minus, lg.d)
        out[P] = (_merge(w, _scale(w_restr, -power)),
                  phi_exps(_merge(m, _scale(m_restr, -power)), T))
    return out, restrictions


def expand_single_notch(T: Triangulation, gamma: Union[CrossingPath, str],
                        p: Optional[str] = None,
                        mirror: bool = False) -> Expansion:
    """Expansion of the arc notched at the puncture its path ends at."""
    if isinstance(gamma, str):
        return _single_notch_initial(T, gamma, p)
    if p is None:
        p = _puncture_at(T, gamma.end)
    if p is None:
        raise EndpointNotPuncture("path does not end at a puncture")
    lg = build_loop_graph(T, gamma, p, mirror=mirror)
    terms = _symmetric_terms(T, lg, 1)[0].values()
    return _sum(terms, crossing_monomial(T, gamma, notches=1, p=p),
                TaggedArcRef(gamma, notch_end=True))


def _single_notch_initial(T: Triangulation, arc: str, p: Optional[str]) -> Expansion:
    """Notched version of an arc of the triangulation: the loop expansion
    divided by the arc's own variable."""
    ref = TaggedArcRef(arc, notch_end=True)
    sf = T.radius_triangle(arc)
    if sf is not None and (p is None or sf.puncture == p):
        # the enclosing loop is already an arc of the triangulation
        twin = LaurentPoly.var(xvar(T.notched_twin(arc)))
        return Expansion(twin, twin, LaurentPoly.one(), ref, 1)
    if p is None:
        ends = _arc_puncture_ends(T, arc)
        if len(set(ends)) != 1:
            raise EndpointNotPuncture(
                f"cannot infer the notched puncture of {arc!r}")
        p = ends[0]
    e = expand_ordinary(T, _loop_path_around(T, p, arc))
    cross = e.cross.mul(LaurentPoly.var(xvar(arc)))
    return Expansion(e.numerator.div_exact(cross), e.numerator, cross, ref,
                     e.matchings_used)


def _loop_path_around(T: Triangulation, p: str, arc: str) -> CrossingPath:
    """Crossing path of the loop based at the far end of `arc` that cuts out
    a once-punctured monogon around p (for arcs of the triangulation)."""
    if _has_notch_at(T, p):
        raise NotchedTrianglePresent(
            f"an arc of the triangulation is notched at {p!r}")
    walk = corner_walk(T, puncture_corner(T, p))
    e_p = len(walk)
    pos = [i for i, (_, a) in enumerate(walk) if a == arc]
    if not pos:
        raise EndpointNotPuncture(f"arc {arc!r} has no end at {p!r}")
    i = pos[0]
    seq = [walk[(i + 1 + s) % e_p] for s in range(e_p - 1)]
    if len(seq) < 1:
        raise PathInvalid("loop around the puncture crosses nothing")
    start_tri = seq[0][0][0]
    # start vertex: opposite the first crossed arc in the start triangle
    first_arc = seq[0][1]
    crossings = []
    for s, (corner, a) in enumerate(seq):
        nxt = seq[s + 1][0][0] if s + 1 < len(seq) else walk[i][0][0]
        wind = "ccw" if T.radius_triangle(a) is not None else None
        crossings.append(Crossing(a, nxt, wind))
    end_tri = walk[i][0][0]
    last_arc = seq[-1][1]
    return CrossingPath((start_tri, first_arc), tuple(crossings),
                        (end_tri, last_arc))


def _check_not_two_marked_closed(T: Triangulation) -> None:
    topo = T.topology
    if topo.boundary_components == 0 and \
            topo.punctures + topo.boundary_marked == 2:
        raise ForbiddenSurface(
            "closed surface with exactly two marked points is not supported")


def expand_double_notch(T: Triangulation, gamma: Union[CrossingPath, str],
                        p: Optional[str] = None, q: Optional[str] = None,
                        mirror: bool = False) -> Expansion:
    """Expansion of the arc between punctures p and q notched at both."""
    _check_not_two_marked_closed(T)
    if isinstance(gamma, str):
        return _double_notch_initial(T, gamma, p, q)
    if p is None:
        p = _puncture_at(T, gamma.end)
    if q is None:
        q = _puncture_at(T, gamma.start)
    if p is None or q is None:
        raise EndpointNotPuncture("both endpoints must be punctures")
    if p == q:
        return expand_notched_loop(T, gamma, notches=2, mirror=mirror)
    return _pair_sum(T, gamma, p, q, mirror)


def _pair_sum(T: Triangulation, gamma: CrossingPath, p: str, q: str,
              mirror: bool) -> Expansion:
    """Sum over compatible pairs of symmetric matchings of the loop graphs at
    the two ends; on the q side the restriction divides twice (so three
    times in all)."""
    lp = build_loop_graph(T, gamma, p, mirror=mirror)
    lq = build_loop_graph(T, gamma.reversed(), q, mirror=mirror)
    terms_p, roles_p = _symmetric_terms(T, lp, 1)
    terms_q, roles_q = _symmetric_terms(T, lq, 2)
    pairs = compatible_pairs(lp, lq, list(terms_p), list(terms_q),
                             roles_p=roles_p, roles_q=roles_q)
    terms = ((_merge(terms_p[P][0], terms_q[Q][0]),
              _merge(terms_p[P][1], terms_q[Q][1])) for P, Q in pairs)
    return _sum(terms, crossing_monomial(T, gamma, notches=2, p=p, q=q),
                TaggedArcRef(gamma, notch_start=True, notch_end=True))


def _y_ends_product(T: Triangulation, p: str) -> LaurentPoly:
    """Product of y over arc ends at p, with self-folded substitutions."""
    m: Dict[str, int] = {}
    for arc in arcs_around_puncture(T, p):
        m[arc] = m.get(arc, 0) + 1
    return phi_specialize(m, T)


def _double_notch_initial(T: Triangulation, arc: str, p: Optional[str],
                          q: Optional[str]) -> Expansion:
    """Closed form for an arc of the triangulation joining two punctures."""
    if p is None or q is None:
        ends = _arc_puncture_ends(T, arc)
        if len(ends) != 2:
            raise EndpointNotPuncture(
                f"arc {arc!r} does not join two punctures")
        p, q = ends
    xp = expand_single_notch(T, arc, p).poly
    xq = expand_single_notch(T, arc, q).poly
    y_arc = LaurentPoly.var(yvar(T.tagged_name(arc)))
    one = LaurentPoly.one()
    num = xp.mul(xq).mul(y_arc).add(
        one.sub(_y_ends_product(T, p)).mul(one.sub(_y_ends_product(T, q))))
    poly = num.div_exact(LaurentPoly.var(xvar(arc)))
    ref = TaggedArcRef(arc, notch_start=True, notch_end=True)
    return Expansion(poly, poly, LaurentPoly.one(), ref, 0)


def _arc_puncture_ends(T: Triangulation, arc: str) -> List[str]:
    out = []
    for pp in T.punctures:
        out.extend(pp for a in arcs_around_puncture(T, pp) if a == arc)
    return out


def expand_notched_loop(T: Triangulation, rho: CrossingPath, notches: int,
                        orientation: str = "ccw",
                        mirror: bool = False) -> Expansion:
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
    p0 = _puncture_at(T, rho.start)
    if p is None or p0 != p:
        raise EndpointNotPuncture("notched loops must begin and end at one puncture")
    oriented = rho if orientation == "ccw" else rho.reversed()
    if notches == 1:
        e = expand_single_notch(T, oriented, p, mirror=mirror)
        return replace(e, arc=TaggedArcRef(rho, notch_end=True))
    return _pair_sum(T, oriented, p, p, mirror)


# ---------------------------------------------------------------------------
# z factors, F-polynomials, g-vectors, tables


def z_factor(T: Triangulation, p: str) -> LaurentPoly:
    """The coefficient-free factor relating an arc to its notched version."""
    walk = corner_walk(T, puncture_corner(T, p))
    h = len(walk)
    if h == 1:
        (corner, arc) = walk[0]
        sf = T.radius_triangle(arc)
        if sf is None or sf.puncture != p:
            raise SurfaceError("single incident arc is not a self-folded radius")
        return LaurentPoly.monomial(
            1, {xvar(T.notched_twin(arc)): 1, xvar(arc): -1})
    arcs = [a for _, a in walk]
    corners = [c for c, _ in walk]
    num = LaurentPoly.zero()
    for i in range(h):
        # bracket of (arcs[i], arcs[i+1]): third side of the corner triangle
        corner = corners[(i + 1) % h]
        tri = corner[0]
        bracket = third_arc(T, arcs[i], arcs[(i + 1) % h], tri)
        term = x_of_label(T, bracket)
        for j in range(h):
            if j != i and j != (i + 1) % h:
                term = term.mul(x_of_label(T, arcs[j]))
        num = num.add(term)
    den = LaurentPoly.one()
    for a in arcs:
        den = den.mul(x_of_label(T, a))
    return num.div_exact(den)


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


def euler_table(e: Expansion, arc_names: Sequence[str]) -> Dict[Tuple[int, ...], int]:
    """Count matchings by the exponent vector of their height monomial:
    the coefficients of the F-polynomial, keyed by their y exponents."""
    ys = [yvar(name) for name in arc_names]
    out: Dict[Tuple[int, ...], int] = {}
    for ev, c in f_polynomial(e).terms():
        exps = dict(ev)
        key = tuple(exps.get(y, 0) for y in ys)
        out[key] = out.get(key, 0) + c
    return out


def retag_expansion(e: Expansion, T: Triangulation,
                    punctures: Sequence[str]) -> Expansion:
    """Swap every variable with its notched twin at the given punctures."""
    mapping: Dict[str, str] = {}
    for p in punctures:
        for arc in set(arcs_around_puncture(T, p)):
            sf = T.radius_triangle(arc)
            if sf is not None and sf.puncture == p:
                continue
            a = T.tagged_name(arc)
            b = _toggle_notch_name(a, p)
            mapping[a], mapping[b] = b, a
        for t in T.triangles:
            if isinstance(t, SelfFolded) and t.puncture == p:
                a, b = t.radius, T.notched_twin(t.radius)
                mapping[a], mapping[b] = b, a

    def rename(poly: LaurentPoly) -> LaurentPoly:
        bind = {}
        for v in poly.variables():
            if v.name in mapping:
                bind[v] = LaurentPoly.var(VarId(v.kind, mapping[v.name]))
        return poly.substitute(bind)

    return Expansion(rename(e.poly), rename(e.numerator), rename(e.cross),
                     e.arc, e.matchings_used)


def _toggle_notch_name(name: str, p: str) -> str:
    suffix = f"^({p})"
    if name.endswith(suffix):
        return name[: -len(suffix)]
    return name + suffix
