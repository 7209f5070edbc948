"""The paper's loop-graph formulas for notched arcs, kept as a test oracle.

An arc notched at the puncture p its path ends at sums, over the
γ-symmetric matchings P of the loop graph around p, the weight and height
of P divided by those of its perfect end restriction.  An arc notched at
both ends sums over compatible pairs of symmetric matchings of the two loop
graphs; on the second side the restriction divides twice.  Every summand is
one monomial, so the sums enumerate matchings: exponential, but independent
of the loop identity and the two-notch identity that `surfcluster.expand`
uses instead.

`single_notch`, `double_notch` and `notched_loop` take the arguments of the
matching `expand_*` functions (crossing paths only) and raise the same
errors on the same walks.
"""

from typing import Dict, Iterable, Tuple

from surfcluster.expand import (
    Expansion,
    _check_not_two_marked_closed,
    _puncture_at,
    crossing_monomial,
)
from surfcluster.matchings import (
    Matching,
    _tile_heights,
    compatible_pairs,
    enumerate_matchings,
    gamma_symmetric_filter,
    height_exponents,
    perfect_end_restriction,
    phi_exps,
    weight_exps,
)
from surfcluster.poly import LaurentPoly
from surfcluster.snake import EndpointNotPuncture, LoopGraph, build_loop_graph


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


def _sum(terms: Iterable[Tuple[Dict, Dict]],
         cross: LaurentPoly) -> Expansion:
    """The matching sum over listed summands: one monomial per summand from
    its (x, y) exponent maps, packed in the crossing monomial's ring (the
    triangulation's), divided once by the crossing monomial."""
    ring = cross._ring
    acc: Dict[int, int] = {}
    count = 0
    for x, y in terms:
        key = ring.pack(x) + ring.pack(y)
        acc[key] = acc.get(key, 0) + 1
        count += 1
    num = LaurentPoly.from_packed(acc, None, ring)
    return Expansion(num.div_exact(cross), cross, count)


def _symmetric_terms(T, lg: LoopGraph, power: int
                     ) -> Tuple[Dict[Matching, Tuple[Dict, Dict]],
                                Dict[Matching, Dict]]:
    """The symmetric matchings of a loop graph, in enumeration order, each
    with its weight and height exponent maps divided `power` times by those
    of its perfect end restriction; and the roles of each restriction."""
    # the end-1 sub-snake's minimal matching agrees with P- on the outer
    # edges of the first d tiles: both alternate along the same boundary
    # path from tile 0, so its heights are read against P-
    end1 = {r: e for e, r in lg.end_roles[1].items()}
    out, restrictions = {}, {}
    for P in gamma_symmetric_filter(lg, enumerate_matchings(lg.graph)):
        _, roles = perfect_end_restriction(lg, P)
        restrictions[P] = roles
        w = weight_exps(lg.graph, P, T)
        w_restr = weight_exps(lg.graph, roles.values(), T)
        m = height_exponents(lg.graph, P)
        m_restr = _tile_heights(lg.graph, frozenset(end1[r] for r in roles),
                                lg.d)
        out[P] = (_merge(w, _scale(w_restr, -power)),
                  phi_exps(_merge(m, _scale(m_restr, -power)), T))
    return out, restrictions


def _pair_sum(T, gamma, p: str, q: str) -> Expansion:
    """Sum over compatible pairs of symmetric matchings of the loop graphs at
    the two ends; on the q side the restriction divides twice (so three
    times in all)."""
    lp = build_loop_graph(T, gamma, p)
    lq = build_loop_graph(T, gamma.reversed(), q)
    terms_p, roles_p = _symmetric_terms(T, lp, 1)
    terms_q, roles_q = _symmetric_terms(T, lq, 2)
    pairs = compatible_pairs(lp, lq, roles_p, roles_q)
    terms = ((_merge(terms_p[P][0], terms_q[Q][0]),
              _merge(terms_p[P][1], terms_q[Q][1])) for P, Q in pairs)
    return _sum(terms, crossing_monomial(T, gamma, (p, q)))


def single_notch(T, gamma, p=None) -> Expansion:
    """The arc notched at the puncture its path ends at: a sum over the
    symmetric matchings of the loop graph around it."""
    if p is None:
        p = _puncture_at(T, gamma.end)
    if p is None:
        raise EndpointNotPuncture("path does not end at a puncture")
    lg = build_loop_graph(T, gamma, p)
    terms = _symmetric_terms(T, lg, 1)[0].values()
    return _sum(terms, crossing_monomial(T, gamma, (p,)))


def double_notch(T, gamma, p=None, q=None) -> Expansion:
    """The arc between punctures p (its end) and q (its start) notched at
    both: a sum over compatible pairs."""
    end, start = _puncture_at(T, gamma.end), _puncture_at(T, gamma.start)
    if end is None or end != start:
        _check_not_two_marked_closed(T)   # loops are exempt, as in expand
    p = end if p is None else p
    q = start if q is None else q
    if p is None or q is None:
        raise EndpointNotPuncture("both endpoints must be punctures")
    if p == q:
        return notched_loop(T, gamma, 2)
    return _pair_sum(T, gamma, p, q)


def notched_loop(T, rho, notches, orientation="ccw") -> Expansion:
    """A loop based at a puncture, notched once (following the loop in the
    given orientation) or at both ends."""
    p = _puncture_at(T, rho.end)
    if p is None or _puncture_at(T, rho.start) != p:
        raise EndpointNotPuncture("notched loops must begin and end at one puncture")
    oriented = rho if orientation == "ccw" else rho.reversed()
    if notches == 1:
        return single_notch(T, oriented, p)
    return _pair_sum(T, oriented, p, p)
