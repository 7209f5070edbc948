"""The single-pass `surfcluster.surface.validate_path`'s predecessor, kept
as a test oracle.

It walks the path three times: the triangle indices, the crossings, then
the immediate re-entries, and checks each crossing against the side tuple
of `Triangulation.triangle_sides` and each end slot through `vertex_name`.
It returns the same messages in the same order as `validate_path`.
"""

from typing import List

from surfcluster.surface import (
    CrossingPath,
    SelfFolded,
    SurfaceError,
    Triangulation,
)


def validate_path(T: Triangulation, path: CrossingPath) -> List[str]:
    """Check local validity of a crossing path; empty list when ok."""
    v: List[str] = []
    tris = path.triangle_sequence()
    ntri = len(T.triangles)
    for idx in tris + (path.end[0],):
        if not (0 <= idx < ntri):
            return [f"triangle index {idx} out of range"]

    # start/end vertex slots must be resolvable
    for (tri, slot), what in ((path.start, "start"), (path.end, "end")):
        try:
            T.vertex_name(tri, slot)
        except SurfaceError as exc:
            v.append(f"{what}: {exc}")

    if path.end[0] != tris[-1]:
        v.append("end triangle differs from the last entered triangle")

    arcs = path.crossed_arcs()
    for j, c in enumerate(path.crossings):
        if T.is_boundary(c.arc):
            v.append(f"crossing {j}: boundary segment {c.arc!r} cannot be crossed")
            continue
        if not T.is_arc(c.arc):
            v.append(f"crossing {j}: unknown arc {c.arc!r}")
            continue
        before, after = tris[j], c.to_triangle
        for tri, what in ((before, "leaves"), (after, "enters")):
            if c.arc not in T.triangle_sides(tri):
                v.append(f"crossing {j}: {c.arc!r} is not a side of triangle {tri} it {what}")
        if j + 1 < len(arcs) and arcs[j] == arcs[j + 1]:
            v.append(f"crossings {j},{j+1}: consecutive crossed arcs must differ")

    # each visited triangle is entered and left through different sides
    for j in range(1, len(path.crossings)):
        tri = path.crossings[j - 1].to_triangle
        if path.crossings[j].to_triangle == tri and not isinstance(
                T.triangles[tri], SelfFolded):
            v.append(f"crossing {j}: re-enters ordinary triangle {tri} immediately")

    v.extend(_check_self_folded_patterns(T, path))
    return v


def _check_self_folded_patterns(T: Triangulation, path: CrossingPath) -> List[str]:
    """Radius crossings must sit inside loop-radius-loop passes and carry a
    wind, no other crossing may; a bare loop crossing must continue to (or
    come from) the enclosed puncture."""
    v: List[str] = []
    arcs = path.crossed_arcs()
    d = len(arcs)
    for j, c in enumerate(path.crossings):
        sf = T.radius_triangle(c.arc)
        if sf is not None:
            prev_ok = j > 0 and arcs[j - 1] == sf.loop
            next_ok = j + 1 < d and arcs[j + 1] == sf.loop
            if not (prev_ok and next_ok):
                v.append(f"crossing {j}: radius {c.arc!r} not flanked by loop crossings")
            if c.wind not in ("ccw", "cw"):
                v.append(f"crossing {j}: radius crossing needs wind 'ccw' or 'cw'")
        elif c.wind is not None:
            v.append(f"crossing {j}: wind on {c.arc!r}, which is not a radius")
        sf = T.loop_triangle(c.arc)
        if sf is not None:
            # after crossing the loop inward we must either cross the radius
            # next or terminate at the enclosed puncture (and symmetrically).
            inward_next = j + 1 < d and arcs[j + 1] == sf.radius
            inward_prev = j > 0 and arcs[j - 1] == sf.radius
            if not (inward_next or inward_prev):
                idx = T.triangles.index(sf)
                ends_here = (j == d - 1 and path.end[0] == idx
                             and path.end[1] == "puncture")
                starts_here = (j == 0 and path.start[0] == idx
                               and path.start[1] == "puncture")
                if not (ends_here or starts_here):
                    v.append(
                        f"crossing {j}: loop {c.arc!r} crossed without radius "
                        "or terminal puncture (self-folded pattern)")
    return v
