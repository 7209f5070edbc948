"""Command-line front end.

Commands: expand | fpoly | gvector | matchings | snake | mutate | verify.
Surfaces, arcs and seeds are JSON files; output is the canonical polynomial
text, or structured JSON with --json (expand, fpoly, gvector).  `--notch p`
or `--notch p,q` notches an arc at the named punctures, matched to either
end of a path in any order; it is the only way to pick the notched end of
an arc of the triangulation whose ends are two different punctures.
`mutate --sequence` (ASCII integers, comma-separated) and the bundle's
`sequence`/`index` are 1-based.  On a mismatch `verify` prints the canonical
text of expansion - oracle under the DIFFER line.

Exit codes: 0 ok, 1 parse error (bad options, unreadable file, bad JSON,
wrong field or type), 2 validation error (including an index out of range),
3 computation error, 4 verification mismatch, each with one line on stderr.

Each file kind has one schema table, `_SURFACE`, `_ARC`, `_SEED` or
`_BUNDLE`, that states every JSON type rule; `_check` checks a file against
it before anything is built.  The tables are compiled once, at import, and
the path of a bad value is spelled out only when the check fails.  Surface::

    {"schema": 1,
     "topology": {"genus": 0, "boundary_components": 1,
                  "punctures": 1, "boundary_marked": 4},
     "arcs": ["1", "2"], "boundary": ["b1"], "punctures": ["P"],
     "triangles": [
       {"sides": ["1", "2", "b1"], "vertices": ["m1", "m2", "P"]},
       {"self_folded": {"loop": "l", "radius": "2", "puncture": "P",
                        "base": "m1", "notched_label": "1"}}]}

Ordinary triangles list their three sides counterclockwise; vertices[i]
names the vertex opposite sides[i].  Arc::

    {"schema": 1,
     "start": {"triangle": 0, "vertex": "d"},
     "crossings": [{"arc": "d", "to_triangle": 1, "wind": "ccw"}],
     "end": {"triangle": 1, "vertex": "d"},
     "notch_start": false, "notch_end": false, "orientation": "ccw"}

or, for an arc of the triangulation, {"schema": 1, "arc": "2", ...notches}.
A "wind" entry is required exactly on radius crossings.  Seed::

    {"schema": 1, "matrix": [[0, 1], [-1, 0]], "names": ["1", "2"]}

where "matrix" is the full extended matrix (2n x n for principal
coefficients) or the top square block, in which case principal coefficient
rows are appended.  Each row has one entry per name, the names are
distinct, and the top block is skew-symmetric.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from operator import neg
from reprlib import repr as _show
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
    phi_specialize,
    x_of_labels,
)
from .expand import Expansion, expand_arc, f_polynomial, g_vector
from .mutation import (
    geometric_seed,
    principal_seed,
    run_sequence,
    tropical_coeffs,
)

__all__ = ["main", "parse_surface", "parse_arc", "ParseError", "ValidationError"]

EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_COMPUTE = 3
EXIT_VERIFY = 4


class ParseError(ValueError):
    pass


class ValidationError(ValueError):
    pass


def _compile(schema):
    """A schema table in the form `_check` reads, made once at import: the
    fields of each object keyed by plain name, each with its schema and
    whether it is required."""
    if type(schema) is dict:
        return {key.rstrip("?"): (_compile(sub), not key.endswith("?"))
                for key, sub in schema.items()}
    if type(schema) in (list, tuple):
        return type(schema)(map(_compile, schema))
    return schema


_TOPOLOGY = {"genus": int, "boundary_components": int, "punctures": int,
             "boundary_marked": int}
_SELF_FOLDED = {"loop": str, "radius": str, "puncture": str, "base?": str,
                "notched_label?": str}
_SURFACE = {"schema": {1}, "topology": _TOPOLOGY, "arcs?": [str],
            "boundary?": [str], "punctures?": [str],
            "triangles?": [({"self_folded": _SELF_FOLDED},
                            {"sides": [str], "vertices?": [str]})]}
_END = {"triangle": int, "vertex": str}
_TAGS = {"schema": {1}, "notch_start?": bool, "notch_end?": bool,
         "orientation?": {"ccw", "cw"}}
_ARC = ({"arc": str, **_TAGS},
        {"start": _END, "crossings?": [{"arc": str, "to_triangle": int,
                                        "wind?": str}],
         "end": _END, **_TAGS})
_SEED = {"schema": {1}, "matrix": [[int]], "names?": [str]}
_BUNDLE = {"schema": {1}, "surface": _SURFACE,
           "cases?": [{"arc": _ARC, "sequence": [int], "index": int,
                       "name?": str}]}
_SURFACE, _ARC, _SEED, _BUNDLE = map(_compile, (_SURFACE, _ARC, _SEED,
                                                _BUNDLE))


class _Mismatch(Exception):
    """A value that breaks its schema.  Its path is spelled out only on the
    way up, once the check has failed: each enclosing list or object puts
    its step in front."""

    def __init__(self, problem: str):
        super().__init__(problem)
        self.path = ""


def _not_a(value, kind: str) -> _Mismatch:
    return _Mismatch(f"{_show(value)} is not a JSON {kind}")


def _check(value, schema) -> None:
    """Check a decoded JSON value against a schema that `_compile` made,
    or raise _Mismatch for the first bad value.

    A schema table is a JSON type (str, int or bool; a bool is no int), a
    set of the values allowed, [item] for a list of items, or a dict of
    fields: a key ending in "?" is optional and no unnamed key is allowed.
    A tuple lists the forms of an object: a value takes the first form
    whose first field it holds, else the last.  A list of JSON types is
    checked in its own loop, with no call per item; recursion is as deep as
    the schema."""
    if type(schema) is type:
        if type(value) is not schema:
            raise _not_a(value, schema.__name__)
    elif type(schema) is set:
        if not any(type(value) is type(v) and value == v for v in schema):
            raise _Mismatch(f"{_show(value)} is not one of {sorted(schema)}")
    elif type(schema) is list:
        if type(value) is not list:
            raise _not_a(value, "list")
        item = schema[0]
        scalar = type(item) is type
        for i, v in enumerate(value):
            try:
                if not scalar:
                    _check(v, item)
                elif type(v) is not item:
                    raise _not_a(v, item.__name__)
            except _Mismatch as bad:
                bad.path = f"[{i}]{bad.path}"
                raise
    else:
        if type(schema) is tuple:
            schema = next((form for form in schema if type(value) is dict
                           and next(iter(form)) in value), schema[-1])
        if type(value) is not dict:
            raise _not_a(value, "object")
        for name in value:
            if name not in schema:
                raise _Mismatch(f"unknown field {_show(name)}")
        for name, (sub, required) in schema.items():
            if name in value:
                try:
                    _check(value[name], sub)
                except _Mismatch as bad:
                    bad.path = f" {name}{bad.path}"
                    raise
            elif required:
                raise _Mismatch(f"missing field {name!r}")


def _json(data: bytes, schema, what: str):
    """The decoded file, checked against its schema."""
    try:
        obj = json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{what} is not valid JSON: {exc}") from None
    try:
        _check(obj, schema)
    except _Mismatch as bad:
        raise ParseError(f"{what}{bad.path}: {bad.args[0]}") from None
    return obj


def _printable(names, what: str) -> None:
    """Refuse a name with a control character: commands print names raw."""
    bad = next((name for name in names if not name.isprintable()), None)
    if bad is not None:
        raise ValidationError(f"{what}: name {_show(bad)} is not printable")


def _index(k: int, n: int, what: str) -> int:
    """A 1-based index from a file or the command line, made 0-based."""
    if not 1 <= k <= n:
        raise ValidationError(f"{what}: index {k} is not in 1..{n}")
    return k - 1


def parse_surface(data: bytes) -> Triangulation:
    return _surface(_json(data, _SURFACE, "surface"), "surface")


def _surface(obj: dict, what: str) -> Triangulation:
    """The validated triangulation of a checked surface object."""
    arcs, boundary, punctures = (tuple(obj.get(key, ())) for key in
                                 ("arcs", "boundary", "punctures"))
    known = set(arcs) | set(boundary)
    names, triangles = [*arcs, *boundary, *punctures], []
    for i, t in enumerate(obj.get("triangles", ())):
        if "self_folded" in t:
            triangle = SelfFolded(**t["self_folded"])
            labels = (triangle.loop, triangle.radius)
            names += t["self_folded"].values()
        else:
            labels = tuple(t["sides"])
            vertices = tuple(t.get("vertices", labels))
            if len(labels) != 3 or len(vertices) != 3:
                raise ParseError(f"{what} triangles[{i}]: needs three sides "
                                 "and three vertices")
            triangle = Ordinary(labels, vertices if "vertices" in t else None)
            names += vertices
        for label in labels:
            if label not in known:
                raise ParseError(f"{what} triangles[{i}]: unknown label "
                                 f"{_show(label)}")
        triangles.append(triangle)
    _printable(names, what)
    T = Triangulation(arcs, boundary, punctures, tuple(triangles),
                      Topology(**obj["topology"]))
    problems = validate_surface(T)
    if problems:
        raise ValidationError("; ".join(problems))
    return T


def parse_arc(data: bytes, T: Triangulation):
    """Returns (path-or-label, TaggedArcRef, orientation)."""
    return _arc(_json(data, _ARC, "arc"), T, "arc")


def _arc(obj: dict, T: Triangulation, what: str):
    """parse_arc of a checked arc object."""
    notch_start = obj.get("notch_start", False)
    notch_end = obj.get("notch_end", False)
    orientation = obj.get("orientation", "ccw")
    if "arc" in obj:
        label = obj["arc"]
        if not T.is_arc(label):
            raise ParseError(f"{what}: {_show(label)} is not an arc of the "
                             "surface")
        return label, TaggedArcRef(label, notch_start, notch_end), orientation
    crossings = []
    for i, c in enumerate(obj.get("crossings", ())):
        if not T.is_arc(c["arc"]):
            raise ParseError(f"{what} crossings[{i}]: unknown arc "
                             f"{_show(c['arc'])}")
        crossings.append(Crossing(**c))
    start, end = ((obj[k]["triangle"], obj[k]["vertex"])
                  for k in ("start", "end"))
    path = CrossingPath(start, tuple(crossings), end)
    problems = validate_path(T, path)
    if problems:
        raise ValidationError("; ".join(problems))
    for spot, notched, side in ((start, notch_start, "start"),
                                (end, notch_end, "end")):
        if notched and T.vertex_name(*spot) not in T.punctures:
            raise ValidationError(f"{what}: notched {side} is not at a "
                                  "puncture")
    ref = TaggedArcRef(path, notch_start, notch_end)
    return path, ref, orientation


def parse_seed(data: bytes):
    obj = _json(data, _SEED, "seed")
    rows = obj["matrix"]
    n = len(rows[0]) if rows else 0
    if n == 0 or len(rows) < n or any(len(r) != n for r in rows):
        raise ParseError("seed: matrix must be n x n or (n+m) x n, n >= 1")
    names = obj.get("names", [str(i + 1) for i in range(n)])
    _printable(names, "seed")
    if len(names) != n:
        raise ValidationError(f"seed: {len(names)} names for {n} columns")
    if len(set(names)) != n:
        twice = next(a for i, a in enumerate(names) if a in names[:i])
        raise ValidationError(f"seed: name {twice!r} is given twice")
    if rows[:n] != [list(map(neg, col)) for col in zip(*rows[:n])]:
        raise ValidationError("seed: top block is not skew-symmetric")
    if len(rows) == n:
        return principal_seed(rows, names)
    m = len(rows) - n
    return geometric_seed(rows, names,
                          names if m == n else [f"u{i+1}" for i in range(m)])


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


def _snake_of(args):
    """(T, snake graph) of the --arc crossing path on the --surface; the
    arc's tags are not read."""
    T = parse_surface(_load(args.surface))
    arc, _, _ = parse_arc(_load(args.arc), T)
    if not isinstance(arc, CrossingPath):
        raise ValidationError(f"{args.command} needs a crossing path")
    return T, build_snake(T, arc)


def _cmd_matchings(args) -> int:
    T, g = _snake_of(args)
    for P in enumerate_matchings(g):
        edges = ",".join(str(e) for e in sorted(P))
        w = x_of_labels(T, [g.edges[e].label for e in P])
        m = height_exponents(g, P)
        h = " ".join(f"h_{k}^{v}" for k, v in sorted(m.items())) or "1"
        y = phi_specialize(m, T)
        print(f"{edges}\t{w.canonical_text()}\t{h}\t{y.canonical_text()}")
    return 0


def _cmd_snake(args) -> int:
    _, g = _snake_of(args)
    print(_dot(g) if args.dot else dump_snake(g))
    return 0


def _dot_string(text: str) -> str:
    """A DOT quoted string: text with backslash and quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot(g) -> str:
    lines = ["graph snake {"]
    for e in g.edges:
        a, b = g.edge_vertices(e)
        lines.append(f'  v{a} -- v{b} [label={_dot_string(e.label)}];')
    for k, t in enumerate(g.tiles):
        lines.append(f'  // tile {k} diag={t.diagonal} rel={t.rel:+d} '
                     f'pos=({t.pos[0]},{t.pos[1]})')
    lines.append("}")
    return "\n".join(lines)


def _cmd_mutate(args) -> int:
    seed = parse_seed(_load(args.seed))
    items = args.sequence.split(",") if args.sequence else []
    if not all(re.fullmatch(r"-?[0-9]+", x) for x in items):
        raise ParseError(f"--sequence: {args.sequence!r} is not a list of "
                         "integers")
    ks = [_index(int(x), seed.n, "--sequence") for x in items]
    out = run_sequence(seed, ks)
    for i, x in enumerate(out.cluster):
        print(f"x{i+1} = {x.canonical_text()}")
    for i, y in enumerate(tropical_coeffs(out)):
        print(f"y{i+1} = {y.canonical_text()}")
    return 0


def _cmd_verify(args) -> int:
    obj = _json(_load(args.bundle), _BUNDLE, "bundle")
    _printable((c.get("name", "") for c in obj.get("cases", ())), "bundle")
    T = _surface(obj["surface"], "bundle surface")
    B = signed_adjacency(T)
    names = T.tagged_names()
    seed0 = principal_seed(B, names)
    failures = 0
    for i, case in enumerate(obj.get("cases", ())):
        what = f"bundle cases[{i}]"
        _, ref, orientation = _arc(case["arc"], T, f"{what} arc")
        e = expand_arc(T, ref, orientation)
        seq = [_index(k, seed0.n, what) for k in case["sequence"]]
        oracle = run_sequence(seed0, seq).cluster[
            _index(case["index"], seed0.n, what)]
        name = case.get("name", f"case {i}")
        if e.poly == oracle:
            print(f"{name}: EQUAL")
        else:
            print(f"{name}: DIFFER")
            print(f"  expansion - oracle = {e.poly.sub(oracle).canonical_text()}")
            failures += 1
    if failures:
        print(f"verification mismatch: {failures} of {len(obj['cases'])} "
              "cases differ", file=sys.stderr)
    return EXIT_VERIFY if failures else 0


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as a parse error, in one line."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def main(argv: Optional[List[str]] = None) -> int:
    ap = _ArgumentParser(prog="surfcluster")
    sub = ap.add_subparsers(dest="command", required=True)
    on_arc = argparse.ArgumentParser(add_help=False)
    on_arc.add_argument("--surface", required=True)
    on_arc.add_argument("--arc", required=True)
    for name in ("expand", "fpoly", "gvector"):
        p = sub.add_parser(name, parents=[on_arc])
        p.add_argument("--notch", help="puncture (or p,q) to notch at")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=_cmd_expand)
    sub.add_parser("matchings", parents=[on_arc]).set_defaults(
        func=_cmd_matchings)
    p = sub.add_parser("snake", parents=[on_arc])
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=_cmd_snake)
    p = sub.add_parser("mutate")
    p.add_argument("--seed", required=True)
    p.add_argument("--sequence", default="")
    p.set_defaults(func=_cmd_mutate)
    p = sub.add_parser("verify")
    p.add_argument("--bundle", required=True)
    p.set_defaults(func=_cmd_verify)

    try:
        args = ap.parse_args(argv)
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
