"""Command-line front end.

Commands: expand | fpoly | gvector | matchings | snake | mutate | verify.
Surfaces, arcs and seeds are JSON files with documented schemas (below);
output is the canonical polynomial text, or structured JSON with --json
(expand, fpoly, gvector).  `--notch p` or `--notch p,q` notches an arc at the
named punctures, matched to either end of a path in any order; it is the
only way to pick the notched end of an arc of the triangulation whose ends
are two different punctures.  `mutate --sequence` and the bundle's
`sequence`/`index` are 1-based.  On a mismatch `verify` prints the
canonical text of expansion - oracle under the DIFFER line.

Exit codes: 0 ok, 1 parse error (unreadable file, bad JSON, wrong field or
type), 2 validation error (including an index out of range), 3 computation
error, 4 verification mismatch; errors print one line to stderr.

Surface schema::

    {"schema": 1,
     "topology": {"genus": 0, "boundary_components": 1,
                  "punctures": 1, "boundary_marked": 4},
     "arcs": ["1", "2"], "boundary": ["b1"], "punctures": ["P"],
     "triangles": [
       {"sides": ["1", "2", "b1"], "vertices": ["m1", "m2", "P"]},
       {"self_folded": {"loop": "l", "radius": "2", "puncture": "P",
                        "base": "m1", "notched_label": "1"}}]}

Ordinary triangles list their sides counterclockwise; vertices[i] names the
vertex opposite sides[i].  Arc schema::

    {"schema": 1,
     "start": {"triangle": 0, "vertex": "d"},
     "crossings": [{"arc": "d", "to_triangle": 1, "wind": "ccw"}],
     "end": {"triangle": 1, "vertex": "d"},
     "notch_start": false, "notch_end": false, "orientation": "ccw"}

or, for an arc of the triangulation, {"schema": 1, "arc": "2", ...notches}.
A "wind" entry is required exactly on radius crossings.  Types are strict:
"schema" is the integer 1, integer fields take JSON integers only (no
float, bool or digit string), the notch flags JSON booleans, and "wind"
null or a string.  Seed schema::

    {"schema": 1, "matrix": [[0, 1], [-1, 0]], "names": ["1", "2"]}

where "matrix" is the full extended matrix (2n x n for principal
coefficients) or the top square block, in which case principal coefficient
rows are appended.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .poly import LaurentPoly
from .surface import (
    Crossing,
    CrossingPath,
    Ordinary,
    SelfFolded,
    SurfaceError,
    TaggedArcRef,
    Topology,
    Triangulation,
    signed_adjacency,
    validate_path,
    validate_surface,
)
from .snake import build_snake, dump_snake
from .matchings import (
    enumerate_matchings,
    height_exponents,
    matching_weight,
    minimal_maximal,
    phi_specialize,
)
from .expand import Expansion, expand_arc, f_polynomial, g_vector
from .mutation import principal_seed, run_sequence, tropical_coeffs

__all__ = ["main", "parse_surface", "parse_arc", "ParseError", "ValidationError"]

EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_COMPUTE = 3
EXIT_VERIFY = 4


class ParseError(ValueError):
    pass


class ValidationError(ValueError):
    pass


def _require_keys(obj: dict, allowed: set, what: str) -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"{what}: expected a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"{what}: unknown fields {sorted(unknown)}")


def _json(data: bytes, what: str):
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} is not valid JSON: {exc}") from exc


def _field(obj: dict, key: str, what: str):
    if key not in obj:
        raise ParseError(f"{what}: missing field {key!r}")
    return obj[key]


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{what}: expected a JSON list")
    return value


def _int(value, what: str) -> int:
    """A JSON integer: no bool, float or string is read as one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what}: {value!r} is not an integer")
    return value


def _bool(obj: dict, key: str, what: str) -> bool:
    value = obj.get(key, False)
    if not isinstance(value, bool):
        raise ParseError(f"{what}: {key} must be true or false")
    return value


def _schema(obj: dict, what: str) -> None:
    """The schema field must be the JSON integer 1."""
    try:
        if _int(obj.get("schema"), what) == 1:
            return
    except ParseError:
        pass
    raise ParseError(f"{what}: unsupported schema version")


def _index(k: int, n: int, what: str) -> int:
    """A 1-based index from a file or the command line, made 0-based."""
    if not 1 <= k <= n:
        raise ValidationError(f"{what}: index {k} is not in 1..{n}")
    return k - 1


def parse_surface(data: bytes) -> Triangulation:
    obj = _json(data, "surface file")
    _require_keys(obj, {"schema", "topology", "arcs", "boundary", "punctures",
                        "triangles"}, "surface")
    _schema(obj, "surface")
    topo = obj.get("topology", {})
    _require_keys(topo, {"genus", "boundary_components", "punctures",
                         "boundary_marked"}, "topology")
    topology = Topology(*(_int(_field(topo, k, "topology"), f"topology {k}")
                          for k in ("genus", "boundary_components",
                                    "punctures", "boundary_marked")))
    arcs = [str(a) for a in _list(obj.get("arcs", []), "surface arcs")]
    boundary = [str(a) for a in _list(obj.get("boundary", []),
                                      "surface boundary")]
    punctures = [str(a) for a in _list(obj.get("punctures", []),
                                       "surface punctures")]
    known = set(arcs) | set(boundary)
    triangles = []
    for i, t in enumerate(_list(obj.get("triangles", []), "surface triangles")):
        _require_keys(t, {"self_folded", "sides", "vertices"}, f"triangle {i}")
        if "self_folded" in t:
            _require_keys(t, {"self_folded"}, f"triangle {i}")
            sf = t["self_folded"]
            _require_keys(sf, {"loop", "radius", "puncture", "base",
                               "notched_label"}, f"triangle {i}")
            for key in ("loop", "radius"):
                label = sf.get(key)
                if not isinstance(label, str) or label not in known:
                    raise ParseError(f"triangle {i}: unknown label {label!r}")
            for key in ("base", "notched_label"):
                if key in sf and not isinstance(sf[key], str):
                    raise ParseError(
                        f"triangle {i}: self-folded {key} must be a string")
            triangles.append(SelfFolded(
                sf["loop"], sf["radius"],
                str(_field(sf, "puncture", f"triangle {i}")),
                sf.get("base"), sf.get("notched_label")))
        else:
            sides = tuple(str(s) for s in _list(t.get("sides", []),
                                                f"triangle {i} sides"))
            if len(sides) != 3:
                raise ParseError(f"triangle {i}: needs three sides")
            for s in sides:
                if s not in known:
                    raise ParseError(f"triangle {i}: unknown label {s!r}")
            verts = t.get("vertices")
            if verts:
                verts = tuple(str(v) for v in _list(verts,
                                                    f"triangle {i} vertices"))
            triangles.append(Ordinary(sides, verts or None))
    T = Triangulation(tuple(arcs), tuple(boundary), tuple(punctures),
                      tuple(triangles), topology)
    problems = validate_surface(T)
    if problems:
        raise ValidationError("; ".join(problems))
    return T


def _spot(obj, what: str):
    """(triangle, vertex slot) of an arc end."""
    _require_keys(obj, {"triangle", "vertex"}, what)
    return (_int(_field(obj, "triangle", what), what),
            str(_field(obj, "vertex", what)))


def parse_arc(data: bytes, T: Triangulation):
    """Returns (path-or-label, TaggedArcRef, orientation)."""
    obj = _json(data, "arc file")
    _require_keys(obj, {"schema", "arc", "start", "crossings", "end",
                        "notch_start", "notch_end", "orientation"}, "arc")
    _schema(obj, "arc")
    notch_start = _bool(obj, "notch_start", "arc")
    notch_end = _bool(obj, "notch_end", "arc")
    orientation = obj.get("orientation", "ccw")
    if orientation not in ("ccw", "cw"):
        raise ParseError("arc: orientation must be 'ccw' or 'cw'")
    if "arc" in obj:
        label = str(obj["arc"])
        if not T.is_arc(label):
            raise ParseError(f"arc: {label!r} is not an arc of the surface")
        ref = TaggedArcRef(label, notch_start, notch_end)
        return label, ref, orientation
    start = _spot(_field(obj, "start", "arc"), "arc start")
    end = _spot(_field(obj, "end", "arc"), "arc end")
    crossings = []
    for i, c in enumerate(_list(obj.get("crossings", []), "arc crossings")):
        _require_keys(c, {"arc", "to_triangle", "wind"}, f"crossing {i}")
        if not T.is_arc(str(c.get("arc"))):
            raise ParseError(f"crossing {i}: unknown arc {c.get('arc')!r}")
        wind = c.get("wind")
        if wind is not None and not isinstance(wind, str):
            raise ParseError(f"crossing {i}: wind must be null or a string")
        crossings.append(Crossing(
            str(c["arc"]), _int(_field(c, "to_triangle", f"crossing {i}"),
                                f"crossing {i}"), wind))
    path = CrossingPath(start, tuple(crossings), end)
    problems = validate_path(T, path)
    if problems:
        raise ValidationError("; ".join(problems))
    for spot, notched, what in ((path.start, notch_start, "start"),
                                (path.end, notch_end, "end")):
        if notched:
            name = T.vertex_name(*spot)
            if name not in T.punctures:
                raise ValidationError(f"notched {what} is not at a puncture")
    ref = TaggedArcRef(path, notch_start, notch_end)
    return path, ref, orientation


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


def parse_seed(data: bytes):
    obj = _json(data, "seed file")
    _require_keys(obj, {"schema", "matrix", "names"}, "seed")
    _schema(obj, "seed")
    matrix = obj.get("matrix")
    if not isinstance(matrix, list) or not matrix or \
            any(not isinstance(r, list) for r in matrix):
        raise ParseError("seed: matrix must be a list of rows")
    n = len(matrix[0])
    default = [str(i + 1) for i in range(n)]
    names = [str(x) for x in _list(obj.get("names", default), "seed names")]
    if len(names) != n:
        raise ValidationError(f"seed: {len(names)} names for {n} columns")
    rows = [[_int(x, "seed matrix") for x in r] for r in matrix]
    if len(rows) == n:
        return principal_seed(rows, names)
    if len(rows) < n:
        raise ParseError("seed: matrix must be n x n or (n+m) x n")
    B = rows[:n]
    for i in range(n):
        for j in range(n):
            if B[i][j] != -B[j][i]:
                raise ValidationError("seed: top block is not skew-symmetric")
    m = len(rows) - n
    frozen = names if m == n else [f"u{i+1}" for i in range(m)]
    from .mutation import geometric_seed
    return geometric_seed(rows, names, frozen)


def _notch(T: Triangulation, arc, names: List[str]):
    """(ref, punctures) for the arc notched at the `--notch` punctures.  On
    a path each name notches the end at that puncture, in either order; an
    arc of the triangulation passes the names on to pick its ends."""
    if not isinstance(arc, CrossingPath):
        return TaggedArcRef(arc, len(names) == 2, True), names
    ends = [T.vertex_name(*arc.end), T.vertex_name(*arc.start)]
    notched = [False, False]
    for name in names:
        free = [i for i in (0, 1) if not notched[i] and ends[i] == name]
        if name not in T.punctures or not free:
            raise ValidationError(f"--notch: no end of the arc is at puncture "
                                  f"{name!r}")
        notched[free[0]] = True
    return TaggedArcRef(arc, notch_start=notched[1], notch_end=notched[0]), ()


def _poly_terms(p: LaurentPoly) -> list:
    return [{"coeff": c, "exponents": {v.text(): e for v, e in ev}}
            for ev, c in sorted(p.terms())]


def _expansion_json(e: Expansion) -> dict:
    return {"poly": _poly_terms(e.poly),
            "numerator": _poly_terms(e.numerator),
            "crossing": _poly_terms(e.cross),
            "matchings": e.matchings_used}


def _load(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc


def _cmd_expand(args) -> int:
    punctures = [] if args.notch is None else args.notch.split(",")
    if len(punctures) > 2 or not all(punctures):
        raise ParseError(f"--notch takes p or p,q, not {args.notch!r}")
    T = parse_surface(_load(args.surface))
    arc, ref, orientation = parse_arc(_load(args.arc), T)
    names = ()
    if punctures:
        ref, names = _notch(T, arc, punctures)
    e = expand_arc(T, ref, orientation, punctures=names)
    if args.command == "fpoly":
        out = f_polynomial(e)
        print(json.dumps({"fpoly": _poly_terms(out)})
              if args.json else out.canonical_text())
    elif args.command == "gvector":
        B = signed_adjacency(T)
        vec = g_vector(e, B, T.tagged_names())
        print(json.dumps(vec) if args.json else " ".join(map(str, vec)))
    else:
        print(json.dumps(_expansion_json(e), sort_keys=True)
              if args.json else e.display())
    return 0


def _cmd_matchings(args) -> int:
    T = parse_surface(_load(args.surface))
    arc, _, _ = parse_arc(_load(args.arc), T)
    if not isinstance(arc, CrossingPath):
        raise ValidationError("matchings needs a crossing path")
    g = build_snake(T, arc)
    minus, _ = minimal_maximal(g)
    for P in enumerate_matchings(g):
        edges = ",".join(str(e) for e in sorted(P))
        w = matching_weight(g, P, T)
        m = height_exponents(g, P, minus)
        h = " ".join(f"h_{k}^{v}" for k, v in sorted(m.items())) or "1"
        y = phi_specialize(m, T)
        print(f"{edges}\t{w.canonical_text()}\t{h}\t{y.canonical_text()}")
    return 0


def _cmd_snake(args) -> int:
    T = parse_surface(_load(args.surface))
    arc, _, _ = parse_arc(_load(args.arc), T)
    if not isinstance(arc, CrossingPath):
        raise ValidationError("snake needs a crossing path")
    g = build_snake(T, arc)
    if args.dot:
        print(_dot(g))
    else:
        print(dump_snake(g))
    return 0


def _dot(g) -> str:
    lines = ["graph snake {"]
    for e in g.edges:
        a, b = g.edge_vertices(e)
        lines.append(f'  v{a} -- v{b} [label="{e.label}"];')
    for k, t in enumerate(g.tiles):
        lines.append(f'  // tile {k} diag={t.diagonal} rel={t.rel:+d} '
                     f'pos=({t.pos[0]},{t.pos[1]})')
    lines.append("}")
    return "\n".join(lines)


def _cmd_mutate(args) -> int:
    seed = parse_seed(_load(args.seed))
    try:
        ks = [int(x) for x in args.sequence.split(",")] if args.sequence else []
    except ValueError:
        raise ParseError(f"--sequence: {args.sequence!r} is not a list of "
                         "integers") from None
    ks = [_index(k, seed.n, "--sequence") for k in ks]
    out = run_sequence(seed, ks)
    for i, x in enumerate(out.cluster):
        print(f"x{i+1} = {x.canonical_text()}")
    for i, y in enumerate(tropical_coeffs(out)):
        print(f"y{i+1} = {y.canonical_text()}")
    return 0


def _cmd_verify(args) -> int:
    obj = _json(_load(args.bundle), "bundle")
    _require_keys(obj, {"schema", "surface", "cases"}, "bundle")
    _schema(obj, "bundle")
    T = parse_surface(json.dumps(_field(obj, "surface", "bundle")).encode())
    B = signed_adjacency(T)
    names = T.tagged_names()
    seed0 = principal_seed(B, names)
    failures = 0
    for i, case in enumerate(_list(obj.get("cases", []), "bundle cases")):
        what = f"case {i}"
        _require_keys(case, {"arc", "sequence", "index", "name"}, what)
        _, ref, orientation = parse_arc(
            json.dumps(_field(case, "arc", what)).encode(), T)
        e = expand_arc(T, ref, orientation)
        seq = [_index(_int(k, what), seed0.n, what)
               for k in _list(_field(case, "sequence", what), what)]
        idx = _index(_int(_field(case, "index", what), what), seed0.n, what)
        oracle = run_sequence(seed0, seq).cluster[idx]
        name = case.get("name", what)
        if e.poly == oracle:
            print(f"{name}: EQUAL")
        else:
            print(f"{name}: DIFFER")
            print(f"  expansion - oracle = {e.poly.sub(oracle).canonical_text()}")
            failures += 1
    return EXIT_VERIFY if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(prog="surfcluster")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("expand", "fpoly", "gvector"):
        p = sub.add_parser(name)
        p.add_argument("--surface", required=True)
        p.add_argument("--arc", required=True)
        p.add_argument("--notch", default=None,
                       help="puncture (or p,q) to notch at")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=_cmd_expand)
    p = sub.add_parser("matchings")
    p.add_argument("--surface", required=True)
    p.add_argument("--arc", required=True)
    p.set_defaults(func=_cmd_matchings)
    p = sub.add_parser("snake")
    p.add_argument("--surface", required=True)
    p.add_argument("--arc", required=True)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=_cmd_snake)
    p = sub.add_parser("mutate")
    p.add_argument("--seed", required=True)
    p.add_argument("--sequence", default="")
    p.set_defaults(func=_cmd_mutate)
    p = sub.add_parser("verify")
    p.add_argument("--bundle", required=True)
    p.set_defaults(func=_cmd_verify)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValidationError, SurfaceError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ArithmeticError, ValueError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
