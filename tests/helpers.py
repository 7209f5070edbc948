"""Helpers that only the tests use.

`render_surface` writes a triangulation back out as the JSON that
`surfcluster.cli.parse_surface` reads.  `z_factor` is the coefficient-free
factor relating an arc to its notched version, built from the brackets of
consecutive arc ends around a puncture (`third_arc`); `y_ends` is the
specialized product of y over the arc ends at a puncture, which the
two-notch identity subtracts from 1.  `euler_table` counts
matchings by height, read off an expansion's F-polynomial.
"""

from collections import Counter
from typing import Dict, Sequence, Tuple

from surfcluster.expand import Expansion, f_polynomial
from surfcluster.matchings import phi_specialize, x_of_labels
from surfcluster.poly import LaurentPoly, xvar, yvar
from surfcluster.surface import (SelfFolded, SurfaceError, Triangulation,
                                 arcs_around_puncture, corner_walk,
                                 puncture_corner)


class NotASide(SurfaceError):
    pass


def render_surface(T: Triangulation) -> dict:
    """Inverse of parse_surface: a JSON-ready description of the surface."""
    tris = []
    for t in T.triangles:
        if isinstance(t, SelfFolded):
            sf = {"loop": t.loop, "radius": t.radius, "puncture": t.puncture}
            if t.base is not None:
                sf["base"] = t.base
            if t.notched_label is not None:
                sf["notched_label"] = t.notched_label
            tris.append({"self_folded": sf})
        else:
            entry = {"sides": list(t.sides)}
            if t.vertices is not None:
                entry["vertices"] = list(t.vertices)
            tris.append(entry)
    topo = T.topology
    return {
        "schema": 1,
        "topology": {"genus": topo.genus,
                     "boundary_components": topo.boundary_components,
                     "punctures": topo.punctures,
                     "boundary_marked": topo.boundary_marked},
        "arcs": list(T.arcs),
        "boundary": list(T.boundary),
        "punctures": list(T.punctures),
        "triangles": tris,
    }


def third_arc(T: Triangulation, a: str, b: str, tri: int) -> str:
    """Remaining side of an ordinary triangle, or the radius of a self-folded one."""
    t = T.triangles[tri]
    if isinstance(t, SelfFolded):
        if {a, b} - {t.loop, t.radius}:
            raise NotASide(f"{a!r},{b!r} are not sides of self-folded triangle {tri}")
        return t.radius
    sides = list(t.sides)
    for lab in (a, b):
        if lab not in sides:
            raise NotASide(f"{lab!r} is not a side of triangle {tri}")
        sides.remove(lab)
    if len(sides) != 1:
        raise NotASide(f"{a!r},{b!r} do not determine a third side in triangle {tri}")
    return sides[0]


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
        term = x_of_labels(T, [bracket])
        for j in range(h):
            if j != i and j != (i + 1) % h:
                term = term.mul(x_of_labels(T, [arcs[j]]))
        num = num.add(term)
    den = LaurentPoly.one()
    for a in arcs:
        den = den.mul(x_of_labels(T, [a]))
    return num.div_exact(den)


def y_ends(T: Triangulation, p: str) -> LaurentPoly:
    """Product of y over the arc ends at p, with self-folded substitutions."""
    return phi_specialize(Counter(arcs_around_puncture(T, p)), T)


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
