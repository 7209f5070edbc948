"""Tile placement by pair-pattern tables, and the unfolding of a crossing
path into strip triangles by a stateful walk, kept as test oracles.

Each triangle copy of a tile fills one of four named slot pairs.  Tile 0's
earlier copy takes (S, E); every later tile tries the two pairs holding its
entry slot until the side glued to the previous tile lands there, and the
later copy takes the complementary pair.  Glue directions may come out as
any of U, R, D, L; the finished drawing is then turned by whole quarter
turns until every step goes up or right, remapping every tile.  It knows
nothing of the slot numbering `surfcluster.snake` places tiles by.

`place` takes the strip of `surfcluster.snake.build_strip` and returns, per
tile, (rel, [(slot, label)] in placement order, lower slots, upper slots,
position), and the glue directions: what `build_tiles` should return.

`unfold` walks the path's triangles, spots a loop-radius-loop pass at its
first visit to the self-folded triangle and emits both fan copies at once:
what `build_strip` should return, which reads each strip triangle off one
step of the path alone.
"""

from typing import Dict, List, Optional, Tuple

from surfcluster.surface import Ordinary, PathInvalid, validate_path

# drawn cyclic order (diag, a, b) for each triangle position in an embedding
_PAIR_PATTERN = {
    "A_lower": ("S", "E"),
    "A_upper": ("N", "W"),
    "B_left": ("W", "S"),
    "B_right": ("E", "N"),
}
_COMPLEMENT = {"A_lower": "A_upper", "A_upper": "A_lower",
               "B_left": "B_right", "B_right": "B_left"}
# pair patterns containing a given slot (candidate homes for the entry copy)
_PAIRS_WITH = {
    "S": ("A_lower", "B_left"),
    "W": ("A_upper", "B_left"),
    "N": ("A_upper", "B_right"),
    "E": ("A_lower", "B_right"),
}
_DIR_OF_SLOT = {"N": "U", "E": "R", "S": "D", "W": "L"}
_ENTRY_OF_DIR = {"U": "S", "R": "W", "D": "N", "L": "E"}
_DIR_VEC = {"U": (0, 1), "R": (1, 0), "D": (0, -1), "L": (-1, 0)}


def _turned(step: Dict[str, str]) -> List[Dict[str, str]]:
    """The maps of 0, 1, 2 and 3 steps."""
    out = [{k: k for k in step}]
    for _ in range(3):
        out.append({k: step[v] for k, v in out[-1].items()})
    return out


# 0..3 counterclockwise quarter turns of the drawing
_ROT_SLOTS = _turned({"S": "E", "E": "N", "N": "W", "W": "S"})
_ROT_DIRS = _turned({"U": "L", "L": "D", "D": "R", "R": "U"})


def _place_pair(pattern: str, rel: int, pair) -> Dict[str, Tuple[int, int]]:
    a, b = _PAIR_PATTERN[pattern]
    u, v = pair if rel == 1 else (pair[1], pair[0])
    return {a: u, b: v}


def place(strip):
    """The tiles and glue of the strip's snake graph (see the module
    docstring).  A side is named (strip triangle, index) until the end, so
    the glued side is found by identity, not by label."""
    def third(k: int) -> Tuple[int, int]:
        _, en, ex = strip[k]
        return k, next(i for i in range(3) if i not in (en, ex))

    def after(k: int, side: int):
        return (k, (side + 1) % 3), (k, (side + 2) % 3)

    d = len(strip) - 1
    rel = 1
    placed, glue = [], []
    for k in range(d):
        lower_pair, upper_pair = after(k, strip[k][2]), after(k + 1, strip[k + 1][1])
        if k == 0:
            low_pat = "A_lower"
        else:
            rel = -rel
            entry = _ENTRY_OF_DIR[glue[-1]]
            low_pat = next(p for p in _PAIRS_WITH[entry]
                           if _place_pair(p, rel, lower_pair)[entry] == third(k))
        low = _place_pair(low_pat, rel, lower_pair)
        up = _place_pair(_COMPLEMENT[low_pat], rel, upper_pair)
        placed.append((rel, {**low, **up}, tuple(low), tuple(up)))
        if k < d - 1:
            slot = next(s for s, side in up.items() if side == third(k + 1))
            glue.append(_DIR_OF_SLOT[slot])

    turns = next(t for t in range(4)
                 if all(_ROT_DIRS[t][g] in "UR" for g in glue))
    rot, rot_dir = _ROT_SLOTS[turns], _ROT_DIRS[turns]
    glue = [rot_dir[g] for g in glue]
    tiles, pos = [], (0, 0)
    for k, (rel, slots, low, up) in enumerate(placed):
        if k:
            dx, dy = _DIR_VEC[glue[k - 1]]
            pos = (pos[0] + dx, pos[1] + dy)
        tiles.append((rel, [(rot[s], strip[i][0][j]) for s, (i, j) in slots.items()],
                      tuple(rot[s] for s in low), tuple(rot[s] for s in up), pos))
    return tiles, glue


def unfold(T, path):
    """The strip triangles (labels, enter, exit) of a crossing path, by a
    walk over its triangles (see the module docstring)."""
    problems = validate_path(T, path)
    if problems:
        raise PathInvalid("; ".join(problems))
    d = path.d
    if d < 1:
        raise PathInvalid("a snake graph needs at least one crossing")
    tris = path.triangle_sequence()
    arcs = path.crossed_arcs()
    strip: List[Tuple[Tuple[str, ...], Optional[int], Optional[int]]] = []

    j = 0
    while j <= d:
        tri = T.triangles[tris[j]]
        enter = arcs[j - 1] if j > 0 else None
        exit_ = arcs[j] if j < d else None
        if isinstance(tri, Ordinary):
            en = None if enter is None else tri.sides.index(enter)
            ex = next((i for i, lab in enumerate(tri.sides)
                       if lab == exit_ and i != en), None)
            strip.append((tri.sides, en, ex))
            j += 1
            continue
        # the fan around the enclosed puncture: radius, loop, radius
        fan = (tri.radius, tri.loop, tri.radius)
        if exit_ == tri.radius:
            # this visit and the next form the fan pass.  The first copy is
            # entered through the loop and left through the radius after it
            # (ccw) or before it (cw); the second is entered through that
            # radius and left through its loop.
            if path.crossings[j].wind == "ccw":
                strip += [(fan, 1, 2), (fan, 0, 1)]
            else:
                strip += [(fan, 1, 0), (fan, 2, 1)]
            j += 2
        else:
            # the path ends (or, read backwards, starts) at the enclosed
            # puncture, crossing the loop
            strip.append((fan, None if enter is None else 1,
                          None if exit_ is None else 1))
            j += 1
    return strip
