"""The scanning lookups that `surfcluster.surface.Triangulation` now reads
from tables built with it, kept as a test oracle.

Each scans the triangles, or the corner walk of every puncture, on every
call: the vertex name of a corner, the first corner that names a puncture,
the triangles that have a side, the punctures at the ends of an arc of T
and whether a self-folded triangle encloses a puncture.
"""

from typing import List, Optional

from surfcluster.surface import (
    NotAPuncture,
    Ordinary,
    SelfFolded,
    Triangulation,
    corner_walk,
)


def vertex_of_corner(T: Triangulation, corner) -> Optional[str]:
    tri, k = corner
    t = T.triangles[tri]
    if isinstance(t, SelfFolded):
        return t.puncture if k == 0 else t.base
    if t.vertices is None:
        return None
    return t.vertices[(k + 2) % 3]


def puncture_corner(T: Triangulation, p: str):
    """Some corner whose vertex is the puncture p."""
    if p not in T.punctures:
        raise NotAPuncture(f"{p!r} is not a puncture")
    for i, t in enumerate(T.triangles):
        if isinstance(t, SelfFolded) and t.puncture == p:
            return (i, 0)
        if isinstance(t, Ordinary) and t.vertices is not None and p in t.vertices:
            k = t.vertices.index(p)          # opposite sides[k]
            return (i, (k + 1) % 3)          # corner between sides[k+1], sides[k+2]
    raise NotAPuncture(f"puncture {p!r} is not located by any triangle vertex")


def arcs_around_puncture(T: Triangulation, p: str) -> List[str]:
    """Arc ends incident to p in clockwise order (loops at p appear twice)."""
    return [arc for _, arc in corner_walk(T, puncture_corner(T, p))]


def triangles_with_side(T: Triangulation, label: str) -> List[int]:
    out = []
    for i, t in enumerate(T.triangles):
        if label in T.triangle_sides(i):
            out.append(i)
    return out


def arc_puncture_ends(T: Triangulation, arc: str) -> List[str]:
    out = []
    for pp in T.punctures:
        out.extend(pp for a in arcs_around_puncture(T, pp) if a == arc)
    return out


def has_notch_at(T: Triangulation, p: str) -> bool:
    return any(isinstance(t, SelfFolded) and t.puncture == p for t in T.triangles)
