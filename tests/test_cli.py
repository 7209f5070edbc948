import contextlib
import io
import json
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (annulus22, digon, example_surface, gamma1, square,
                      twice_punctured, two_punctured_torus)
from surfcluster.cli import (
    EXIT_COMPUTE,
    EXIT_PARSE,
    EXIT_VALIDATION,
    EXIT_VERIFY,
    main,
    parse_surface,
)
from helpers import render_surface


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def square_json():
    return render_surface(square())


def square_arc_json():
    return {"schema": 1,
            "start": {"triangle": 0, "vertex": "d"},
            "crossings": [{"arc": "d", "to_triangle": 1}],
            "end": {"triangle": 1, "vertex": "d"}}


def gamma1_json():
    T = example_surface()
    g = gamma1(T)
    return {"schema": 1,
            "start": {"triangle": g.start[0], "vertex": g.start[1]},
            "crossings": [
                {"arc": c.arc, "to_triangle": c.to_triangle,
                 **({"wind": c.wind} if c.wind else {})}
                for c in g.crossings],
            "end": {"triangle": g.end[0], "vertex": g.end[1]}}


def test_roundtrip_all_fixtures():
    for T in (square(), example_surface(), twice_punctured()):
        data = json.dumps(render_surface(T)).encode()
        assert parse_surface(data) == T


def test_expand_square(tmp_path, capsys):
    s = write(tmp_path, "sq.json", square_json())
    a = write(tmp_path, "arc.json", square_arc_json())
    rc = main(["expand", "--surface", s, "--arc", a])
    out1 = capsys.readouterr().out
    assert rc == 0
    assert out1.strip() == "(1 + y_d) / (x_d)"
    # byte-identical on identical job
    rc = main(["expand", "--surface", s, "--arc", a])
    assert capsys.readouterr().out == out1


def test_expand_json_output(tmp_path, capsys):
    s = write(tmp_path, "sq.json", square_json())
    a = write(tmp_path, "arc.json", square_arc_json())
    rc = main(["expand", "--surface", s, "--arc", a, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["matchings"] == 2
    assert len(out["poly"]) == 2


def test_fpoly_and_gvector(tmp_path, capsys):
    s = write(tmp_path, "sq.json", square_json())
    a = write(tmp_path, "arc.json", square_arc_json())
    assert main(["fpoly", "--surface", s, "--arc", a]) == 0
    assert capsys.readouterr().out.strip() == "1 + y_d"
    assert main(["gvector", "--surface", s, "--arc", a]) == 0
    assert capsys.readouterr().out.strip() == "-1"


def test_matchings_gamma1_19_lines(tmp_path, capsys):
    s = write(tmp_path, "ex.json", render_surface(example_surface()))
    a = write(tmp_path, "g1.json", gamma1_json())
    assert main(["matchings", "--surface", s, "--arc", a]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 19


def test_snake_dump(tmp_path, capsys):
    s = write(tmp_path, "ex.json", render_surface(example_surface()))
    a = write(tmp_path, "g1.json", gamma1_json())
    assert main(["snake", "--surface", s, "--arc", a]) == 0
    out = capsys.readouterr().out
    assert "tiles 7" in out and "triple 0-2" in out
    assert main(["snake", "--surface", s, "--arc", a, "--dot"]) == 0
    assert "graph snake {" in capsys.readouterr().out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    a = write(tmp_path, "arc.json", square_arc_json())
    assert main(["expand", "--surface", str(bad), "--arc", a]) == EXIT_PARSE
    capsys.readouterr()
    obj = square_json()
    obj["unknown_field"] = 1
    s = write(tmp_path, "sq2.json", obj)
    assert main(["expand", "--surface", s, "--arc", a]) == EXIT_PARSE
    capsys.readouterr()


def test_unknown_arc_label_is_parse_error(tmp_path, capsys):
    s = write(tmp_path, "sq.json", square_json())
    arc = square_arc_json()
    arc["crossings"][0]["arc"] = "nope"
    a = write(tmp_path, "arc.json", arc)
    assert main(["expand", "--surface", s, "--arc", a]) == EXIT_PARSE
    capsys.readouterr()


def test_validation_error_exit_code(tmp_path, capsys):
    obj = square_json()
    obj["arcs"] = ["d", "extra"]
    s = write(tmp_path, "sq.json", obj)
    a = write(tmp_path, "arc.json", square_arc_json())
    assert main(["expand", "--surface", s, "--arc", a]) == EXIT_VALIDATION
    capsys.readouterr()


def test_notch_on_boundary_endpoint_rejected(tmp_path, capsys):
    s = write(tmp_path, "sq.json", square_json())
    arc = square_arc_json()
    arc["notch_end"] = True
    a = write(tmp_path, "arc.json", arc)
    assert main(["expand", "--surface", s, "--arc", a]) == EXIT_VALIDATION
    capsys.readouterr()


def test_mutate_command(tmp_path, capsys):
    seed = {"schema": 1, "matrix": [[0, 1], [-1, 0]], "names": ["1", "2"]}
    p = write(tmp_path, "seed.json", seed)
    assert main(["mutate", "--seed", p, "--sequence", "1"]) == 0
    out = capsys.readouterr().out
    assert "x1 = x1^-1*x2 + y1*x1^-1" in out
    assert "y1 = y1^-1" in out


def test_mutate_geometric_seed(capsys):
    # one coefficient row, not a row of I: its frozen variable is u1
    seed = str(DATA / "seed_geometric.json")
    assert main(["mutate", "--seed", seed, "--sequence", "1,2,1"]) == 0
    assert capsys.readouterr().out == (
        "x1 = x1*x2^-1 + y_u1*x2^-1\n"
        "x2 = x2^-1 + x1^-1 + y_u1*x1^-1*x2^-1\n"
        "y1 = y_u1\n"
        "y2 = 1\n")


def test_verify_bundle(tmp_path, capsys):
    T = square()
    bundle = {
        "schema": 1,
        "surface": render_surface(T),
        "cases": [
            {"name": "diagonal", "arc": square_arc_json(),
             "sequence": [1], "index": 1},
        ],
    }
    p = write(tmp_path, "bundle.json", bundle)
    assert main(["verify", "--bundle", p]) == 0
    assert "diagonal: EQUAL" in capsys.readouterr().out
    # a wrong correspondence must DIFFER with exit code 4
    bundle["cases"][0]["sequence"] = []
    p2 = write(tmp_path, "bundle2.json", bundle)
    assert main(["verify", "--bundle", p2]) == EXIT_VERIFY
    assert "DIFFER" in capsys.readouterr().out


def test_arc_orientation_field(tmp_path, capsys):
    s = write(tmp_path, "sq.json", square_json())
    arc = square_arc_json()
    arc["orientation"] = "cw"
    a = write(tmp_path, "arc.json", arc)
    assert main(["expand", "--surface", s, "--arc", a]) == 0
    assert capsys.readouterr().out.strip() == "(1 + y_d) / (x_d)"


def test_shipped_hexagon_bundle(capsys):
    import pathlib
    bundle = pathlib.Path(__file__).parent / "data" / "hexagon_bundle.json"
    assert main(["verify", "--bundle", str(bundle)]) == 0
    out = capsys.readouterr().out
    assert out.count("EQUAL") == 6 and "DIFFER" not in out


def test_shipped_punctured_bundle(capsys):
    # once-punctured square: ordinary arcs and the notched radii
    assert main(["verify", "--bundle", str(DATA / "punctured_bundle.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8 and all(l.endswith(": EQUAL") for l in lines)
    assert sum("notched" in l for l in lines) == 4


def test_notch_flag(tmp_path, capsys):
    import conftest
    T = conftest.example_surface()
    g = conftest.gamma2(T)
    arc = {"schema": 1,
           "start": {"triangle": g.start[0], "vertex": g.start[1]},
           "crossings": [{"arc": c.arc, "to_triangle": c.to_triangle}
                         for c in g.crossings],
           "end": {"triangle": g.end[0], "vertex": g.end[1]}}
    s = write(tmp_path, "s.json", render_surface(T))
    a = write(tmp_path, "a.json", arc)
    assert main(["expand", "--surface", s, "--arc", a, "--notch", "P2",
                 "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["matchings"] == 9


DATA = pathlib.Path(__file__).parent / "data"


def _two_punctures_expand(capsys, names):
    """stdout of `expand` of the shipped doubly-notched arc (a path from q
    to p) with `--notch names`."""
    assert main(["expand", "--surface", str(DATA / "two_punctures.json"),
                 "--arc", str(DATA / "double_notched_arc.json"),
                 "--notch", names]) == 0
    return capsys.readouterr().out


def test_notch_at_the_start_puncture(capsys):
    from surfcluster.cli import parse_arc
    from surfcluster.expand import expand_single_notch
    T = parse_surface((DATA / "two_punctures.json").read_bytes())
    path, _, _ = parse_arc((DATA / "double_notched_arc.json").read_bytes(), T)
    want = expand_single_notch(T, path.reversed(), "q")
    assert want.matchings_used == 6
    assert _two_punctures_expand(capsys, "q") == want.display() + "\n"


def test_two_marked_closed_surface_exits_2(tmp_path, capsys):
    # the torus with punctures P and Q: an arc notched at both is refused
    argv = ["expand", "--surface", write(tmp_path, "s.json", render_surface(
        two_punctured_torus())), "--arc", write(tmp_path, "arc.json", {
            "schema": 1, "arc": "q1"})]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--notch", "P,Q"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "validation error: closed surface with exactly two marked points "
        "is not supported\n")


def test_notch_names_in_either_order(capsys):
    assert _two_punctures_expand(capsys, "q,p") == \
        _two_punctures_expand(capsys, "p,q")
    # on an arc of T as well: arc 9 joins P2 and P3
    key = "three_punctures.json arc9.json expand --notch P2,P3"
    want = json.loads((DATA / "golden.json").read_text())["cli"][key]
    assert main(["expand", "--surface", str(DATA / "three_punctures.json"),
                 "--arc", str(DATA / "arc9.json"), "--notch", "P3,P2"]) == 0
    assert capsys.readouterr().out == want["stdout"]


def test_python_dash_m_runs_the_cli():
    import os
    import subprocess
    import sys
    key = "square.json square_arc.json expand"
    want = json.loads((DATA / "golden.json").read_text())["cli"][key]
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-m", "surfcluster", "expand",
         "--surface", str(DATA / "square.json"),
         "--arc", str(DATA / "square_arc.json")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == want["rc"] == 0
    assert run.stdout == want["stdout"]


def test_fpoly_json_is_the_f_polynomial(tmp_path, capsys):
    s = write(tmp_path, "sq.json", square_json())
    a = write(tmp_path, "arc.json", square_arc_json())
    assert main(["fpoly", "--surface", s, "--arc", a, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"fpoly": [{"coeff": 1, "exponents": {}},
                             {"coeff": 1, "exponents": {"y_d": 1}}]}


def _bad_genus(tmp_path, genus="x"):
    obj = square_json()
    obj["topology"]["genus"] = genus
    return ["expand", "--surface", write(tmp_path, "sq.json", obj),
            "--arc", write(tmp_path, "arc.json", square_arc_json())]


def _bad_seed(tmp_path, matrix, names, sequence, schema=1):
    seed = {"schema": schema, "matrix": matrix, "names": names}
    return ["mutate", "--seed", write(tmp_path, "seed.json", seed),
            "--sequence", sequence]


def _mutate(tmp_path, seed):
    return ["mutate", "--seed", write(tmp_path, "seed.json", seed),
            "--sequence", "1"]


def _raw_surface(tmp_path, data: bytes):
    """`expand` of the square's arc on a surface file holding `data`."""
    p = tmp_path / "raw.json"
    p.write_bytes(data)
    return ["expand", "--surface", str(p),
            "--arc", str(DATA / "square_arc.json")]


def _hexagon_index(tmp_path, index):
    bundle = json.loads((DATA / "hexagon_bundle.json").read_text())
    bundle["cases"][0]["index"] = index
    return ["verify", "--bundle", write(tmp_path, "bundle.json", bundle)]


def _hexagon_bundle(tmp_path, **fields):
    bundle = json.loads((DATA / "hexagon_bundle.json").read_text())
    return ["verify", "--bundle",
            write(tmp_path, "bundle.json", {**bundle, **fields})]


def _notched_expand(tmp_path, **arc_fields):
    """`expand` of the shipped notched arc, which exits 0, with fields of
    the arc file replaced."""
    arc = json.loads((DATA / "notched_arc.json").read_text())
    return ["expand", "--surface", str(DATA / "three_punctures.json"),
            "--arc", write(tmp_path, "arc.json", {**arc, **arc_fields})]


def _square_expand(tmp_path, surface=None, **arc_fields):
    """`expand` on the square, with the surface file given and the arc file
    changed field by field."""
    return ["expand",
            "--surface", write(tmp_path, "sq.json", surface or square_json()),
            "--arc", write(tmp_path, "arc.json",
                           {**square_arc_json(), **arc_fields})]


def _square_surface(**fields):
    return {**square_json(), **fields}


def _square_topology(tmp_path, **fields):
    """`expand` on the square with fields of its topology replaced."""
    obj = square_json()
    obj["topology"].update(fields)
    return _square_expand(tmp_path, obj)


def _first_triangle(**fields):
    tris = square_json()["triangles"]
    return _square_surface(triangles=[{**tris[0], **fields}, *tris[1:]])


def _self_folded(drop=(), **fields):
    """The digon's surface file with fields of its self-folded triangle
    replaced or dropped."""
    obj = render_surface(digon())
    for t in obj["triangles"]:
        if "self_folded" in t:
            t["self_folded"].update(fields)
            for key in drop:
                del t["self_folded"][key]
    return obj


def _digon_expand(tmp_path, surface):
    """`expand` of the digon's loop, which exits 0 on the shipped digon."""
    return ["expand", "--surface", write(tmp_path, "digon.json", surface),
            "--arc", write(tmp_path, "arc.json", {"schema": 1, "arc": "l"})]


def test_digon_expand_baseline(tmp_path):
    assert main(_digon_expand(tmp_path, _self_folded())) == 0


SEED = str(DATA / "seed_rank2.json")


def _arc9_notch(names):
    """`expand` of arc 9 of three_punctures, which joins P2 and P3, with
    `--notch names`."""
    return ["expand", "--surface", str(DATA / "three_punctures.json"),
            "--arc", str(DATA / "arc9.json"), "--notch", names]


def _two_punctures_notch(names):
    """`expand` of the shipped doubly-notched arc with `--notch names`."""
    return lambda tmp: ["expand", "--surface", str(DATA / "two_punctures.json"),
                        "--arc", str(DATA / "double_notched_arc.json"),
                        "--notch", names]


def _puncture_on_boundary(tmp):
    """`expand` of arc 9 on the two-punctures surface with the vertex names
    p and m5 swapped, so the declared puncture p names a boundary vertex."""
    surface = json.loads((DATA / "two_punctures.json").read_text())
    swap = {"p": "m5", "m5": "p"}
    for t in surface["triangles"]:
        t["vertices"] = [swap.get(v, v) for v in t["vertices"]]
    return ["expand", "--surface", write(tmp, "s.json", surface),
            "--arc", write(tmp, "arc.json", {"schema": 1, "arc": "9"})]


def _annulus_as_torus(tmp):
    """`expand` of arc t1 on the annulus relabelled genus 1, no boundary
    components: both count formulas still hold."""
    surface = render_surface(annulus22())
    surface["topology"].update(genus=1, boundary_components=0)
    return ["expand", "--surface", write(tmp, "s.json", surface),
            "--arc", write(tmp, "arc.json", {"schema": 1, "arc": "t1"})]


def _sphere_as_torus(tmp):
    """`expand` across arc c of two triangles that glue into a sphere with
    three vertices, declared a once-punctured torus with every corner
    named P."""
    surface = {
        "schema": 1, "topology": {"genus": 1, "boundary_components": 0,
                                  "punctures": 1, "boundary_marked": 0},
        "arcs": ["a", "b", "c"], "boundary": [], "punctures": ["P"],
        "triangles": [{"sides": sides, "vertices": ["P", "P", "P"]}
                      for sides in (["a", "b", "c"], ["c", "b", "a"])]}
    arc = {"schema": 1, "start": {"triangle": 0, "vertex": "c"},
           "crossings": [{"arc": "c", "to_triangle": 1}],
           "end": {"triangle": 1, "vertex": "c"}}
    return ["expand", "--surface", write(tmp, "s.json", surface),
            "--arc", write(tmp, "arc.json", arc)]


BAD_INPUTS = {
    # parse layer: exit 1
    "surface is a list": (EXIT_PARSE, lambda tmp: [
        "expand", "--surface", write(tmp, "sq.json", []),
        "--arc", write(tmp, "arc.json", square_arc_json())]),
    "missing file": (EXIT_PARSE, lambda tmp: [
        "expand", "--surface", str(tmp / "nope.json"),
        "--arc", write(tmp, "arc.json", square_arc_json())]),
    "bundle without surface": (EXIT_PARSE, lambda tmp: [
        "verify", "--bundle", write(tmp, "b.json", {"schema": 1, "cases": []})]),
    "non-integer genus": (EXIT_PARSE, _bad_genus),
    "non-integer to_triangle": (EXIT_PARSE, lambda tmp: [
        "expand", "--surface", write(tmp, "sq.json", square_json()),
        "--arc", write(tmp, "arc.json", {**square_arc_json(), "crossings": [
            {"arc": "d", "to_triangle": "x"}]})]),
    "genus is true": (EXIT_PARSE, lambda tmp: _bad_genus(tmp, True)),
    "triangle is a float": (EXIT_PARSE, lambda tmp: _square_expand(
        tmp, start={"triangle": 0.9, "vertex": "d"})),
    "to_triangle is a digit string": (EXIT_PARSE, lambda tmp: _square_expand(
        tmp, crossings=[{"arc": "d", "to_triangle": "1"}])),
    "arc schema is true": (EXIT_PARSE, lambda tmp: _square_expand(
        tmp, schema=True)),
    "surface schema is 1.0": (EXIT_PARSE, lambda tmp: _square_expand(
        tmp, _square_surface(schema=1.0))),
    "seed schema is true": (EXIT_PARSE, lambda tmp: _bad_seed(
        tmp, [[0, 1], [-1, 0]], ["1", "2"], "1", schema=True)),
    "bundle schema is true": (EXIT_PARSE, lambda tmp: _hexagon_bundle(
        tmp, schema=True)),
    "notch_end is a string": (EXIT_PARSE, lambda tmp: _notched_expand(
        tmp, notch_end="no")),
    "notch_start is 0": (EXIT_PARSE, lambda tmp: _notched_expand(
        tmp, notch_start=0)),
    "wind is a number": (EXIT_PARSE, lambda tmp: _square_expand(
        tmp, crossings=[{"arc": "d", "to_triangle": 1, "wind": 1}])),
    "triangle is not an object": (EXIT_PARSE, lambda tmp: _square_expand(
        tmp, _square_surface(triangles=[5, *square_json()["triangles"][1:]]))),
    "arcs is not a list": (EXIT_PARSE, lambda tmp: _square_expand(
        tmp, _square_surface(arcs=5))),
    "sides is not a list": (EXIT_PARSE, lambda tmp: _square_expand(
        tmp, _first_triangle(sides=5))),
    "self-folded loop is a list": (EXIT_PARSE, lambda tmp: _digon_expand(
        tmp, _self_folded(loop=["l"]))),
    "self-folded base is a list": (EXIT_PARSE, lambda tmp: _digon_expand(
        tmp, _self_folded(base=["m"]))),
    "self-folded notched_label is a list": (EXIT_PARSE, lambda tmp: _digon_expand(
        tmp, _self_folded(notched_label=[1]))),
    "self-folded base is null": (EXIT_PARSE, lambda tmp: _digon_expand(
        tmp, _self_folded(base=None))),
    "self-folded puncture is missing": (EXIT_PARSE, lambda tmp: _digon_expand(
        tmp, _self_folded(drop=["puncture"]))),
    "arc start is not an object": (EXIT_PARSE, lambda tmp: _square_expand(
        tmp, start=5)),
    "crossings is not a list": (EXIT_PARSE, lambda tmp: _square_expand(
        tmp, crossings=5)),
    "bundle cases is not a list": (EXIT_PARSE, lambda tmp: [
        "verify", "--bundle", write(tmp, "b.json", {
            "schema": 1, "surface": square_json(), "cases": 5})]),
    "seed names is not a list": (EXIT_PARSE, lambda tmp: _bad_seed(
        tmp, [[0, 1], [-1, 0]], 5, "1")),
    "non-integer seed entry": (EXIT_PARSE, lambda tmp: _bad_seed(
        tmp, [[0, "x"], [-1, 0]], ["1", "2"], "1")),
    "non-integer sequence entry": (EXIT_PARSE, lambda tmp: [
        "mutate", "--seed", SEED, "--sequence", "1,a"]),
    "Arabic-Indic digit in the sequence": (EXIT_PARSE, lambda tmp: [
        "mutate", "--seed", SEED, "--sequence", "\u0661"]),
    "underscore in a sequence entry": (EXIT_PARSE, lambda tmp: [
        "mutate", "--seed", SEED, "--sequence", "1_0"]),
    "vertices are not strings": (EXIT_PARSE, lambda tmp: _square_expand(
        tmp, _first_triangle(vertices=[{"a": 1}, [2], None]))),
    "one vertex name": (EXIT_PARSE, lambda tmp: _square_expand(
        tmp, _first_triangle(vertices=["3"]))),
    "arc label is an integer": (EXIT_PARSE, lambda tmp: [
        "expand", "--surface", str(DATA / "three_punctures.json"),
        "--arc", write(tmp, "arc.json", {"schema": 1, "arc": 2})]),
    "ragged seed matrix": (EXIT_PARSE, lambda tmp: _mutate(
        tmp, {"schema": 1, "matrix": [[0, 1], [-1]]})),
    "ragged coefficient row": (EXIT_PARSE, lambda tmp: _mutate(
        tmp, {"schema": 1, "matrix": [[0, 1], [-1, 0], [1]]})),
    "seed with no columns": (EXIT_PARSE, lambda tmp: _mutate(
        tmp, {"schema": 1, "matrix": [[]]})),
    "seed with two empty rows": (EXIT_PARSE, lambda tmp: _mutate(
        tmp, {"schema": 1, "matrix": [[], []]})),
    "100 000 nested lists": (EXIT_PARSE, lambda tmp: _raw_surface(
        tmp, b"[" * 100_000)),
    "bytes that decode in no UTF": (EXIT_PARSE, lambda tmp: _raw_surface(
        tmp, b"\xff\xfe{")),
    "three notch names": (EXIT_PARSE, _two_punctures_notch("p,q,zzz")),
    "empty notch names": (EXIT_PARSE, _two_punctures_notch(",")),
    "empty notch": (EXIT_PARSE, _two_punctures_notch("")),
    "no command": (EXIT_PARSE, lambda tmp: []),
    "expand without --arc": (EXIT_PARSE, lambda tmp: [
        "expand", "--surface", str(DATA / "square.json")]),
    "unknown flag": (EXIT_PARSE, lambda tmp: [
        "expand", "--surface", str(DATA / "square.json"),
        "--arc", str(DATA / "square_arc.json"), "--bogus"]),
    # indices: exit 2
    "sequence 0": (EXIT_VALIDATION, lambda tmp: [
        "mutate", "--seed", SEED, "--sequence", "0"]),
    "sequence 3": (EXIT_VALIDATION, lambda tmp: [
        "mutate", "--seed", SEED, "--sequence", "3"]),
    "square seed is not skew-symmetric": (EXIT_VALIDATION, lambda tmp: _mutate(
        tmp, {"schema": 1, "matrix": [[0, 1], [1, 0]]})),
    "too few seed names": (EXIT_VALIDATION, lambda tmp: _bad_seed(
        tmp, [[0, 1], [-1, 0]], ["1"], "2")),
    "verify index out of range": (EXIT_VALIDATION,
                                  lambda tmp: _hexagon_index(tmp, 4)),
    "arc of T notched twice at one end": (EXIT_VALIDATION, lambda tmp: [
        "expand", "--surface", str(DATA / "three_punctures.json"),
        "--arc", str(DATA / "arc9.json"), "--notch", "P2,P2"]),
    "arc of T notched at a puncture it does not reach": (
        EXIT_VALIDATION, lambda tmp: _arc9_notch("P1")),
    # surface rules: exit 2
    "puncture on the boundary": (EXIT_VALIDATION, _puncture_on_boundary),
    "negative genus": (EXIT_VALIDATION, lambda tmp: _square_topology(
        tmp, genus=-1, punctures=2)),
    "negative boundary components": (EXIT_VALIDATION, lambda tmp: _square_topology(
        tmp, boundary_components=-1)),
    "more punctures than listed": (EXIT_VALIDATION, lambda tmp: _square_topology(
        tmp, punctures=1)),
    "more boundary marked points than segments": (
        EXIT_VALIDATION, lambda tmp: _square_topology(tmp, boundary_marked=5)),
    "annulus as a torus with boundary segments": (
        EXIT_VALIDATION, _annulus_as_torus),
    "sphere gluing declared a torus": (EXIT_VALIDATION, _sphere_as_torus),
    # path rules: exit 2
    "wind on a non-radius crossing": (EXIT_VALIDATION, lambda tmp: _square_expand(
        tmp, crossings=[{"arc": "d", "to_triangle": 1, "wind": "ccw"}])),
    # exponents past the packed range: exit 3
    "exponent overflow": (EXIT_COMPUTE, lambda tmp: _bad_seed(
        tmp, [[0, 2 ** 31], [-2 ** 31, 0]], ["1", "2"], "1")),
}


# a fragment of each BAD_INPUTS case's one stderr line that only the error
# the case is about prints, so no case passes for another rule
BAD_MESSAGES = {
    "surface is a list": "surface: [] is not a JSON object",
    "missing file": "cannot read",
    "bundle without surface": "bundle: missing field 'surface'",
    "non-integer genus": "surface topology genus: 'x' is not a JSON int",
    "non-integer to_triangle":
        "arc crossings[0] to_triangle: 'x' is not a JSON int",
    "genus is true": "surface topology genus: True is not a JSON int",
    "triangle is a float": "arc start triangle: 0.9 is not a JSON int",
    "to_triangle is a digit string":
        "arc crossings[0] to_triangle: '1' is not a JSON int",
    "arc schema is true": "arc schema: True is not one of [1]",
    "surface schema is 1.0": "surface schema: 1.0 is not one of [1]",
    "seed schema is true": "seed schema: True is not one of [1]",
    "bundle schema is true": "bundle schema: True is not one of [1]",
    "notch_end is a string": "arc notch_end: 'no' is not a JSON bool",
    "notch_start is 0": "arc notch_start: 0 is not a JSON bool",
    "wind is a number": "arc crossings[0] wind: 1 is not a JSON str",
    "triangle is not an object":
        "surface triangles[0]: 5 is not a JSON object",
    "arcs is not a list": "surface arcs: 5 is not a JSON list",
    "sides is not a list": "surface triangles[0] sides: 5 is not a JSON list",
    "self-folded loop is a list":
        "self_folded loop: ['l'] is not a JSON str",
    "self-folded base is a list":
        "self_folded base: ['m'] is not a JSON str",
    "self-folded notched_label is a list":
        "self_folded notched_label: [1] is not a JSON str",
    "self-folded base is null": "self_folded base: None is not a JSON str",
    "self-folded puncture is missing":
        "self_folded: missing field 'puncture'",
    "arc start is not an object": "arc start: 5 is not a JSON object",
    "crossings is not a list": "arc crossings: 5 is not a JSON list",
    "bundle cases is not a list": "bundle cases: 5 is not a JSON list",
    "seed names is not a list": "seed names: 5 is not a JSON list",
    "non-integer seed entry": "seed matrix[0][1]: 'x' is not a JSON int",
    "non-integer sequence entry":
        "--sequence: '1,a' is not a list of integers",
    "Arabic-Indic digit in the sequence":
        "--sequence: '\u0661' is not a list of integers",
    "underscore in a sequence entry":
        "--sequence: '1_0' is not a list of integers",
    "vertices are not strings":
        "surface triangles[0] vertices[0]: {'a': 1} is not a JSON str",
    "one vertex name": "needs three sides and three vertices",
    "arc label is an integer": "arc arc: 2 is not a JSON str",
    "ragged seed matrix": "matrix must be n x n or (n+m) x n",
    "ragged coefficient row": "matrix must be n x n or (n+m) x n",
    "seed with no columns": "matrix must be n x n or (n+m) x n, n >= 1",
    "seed with two empty rows": "matrix must be n x n or (n+m) x n, n >= 1",
    "100 000 nested lists": "surface is not valid JSON",
    "bytes that decode in no UTF": "surface is not valid JSON",
    "three notch names": "--notch takes p or p,q, not 'p,q,zzz'",
    "empty notch names": "--notch takes p or p,q, not ','",
    "empty notch": "--notch takes p or p,q, not ''",
    "no command": "surfcluster: the following arguments are required: "
                  "command",
    "expand without --arc": "surfcluster expand: the following arguments "
                            "are required: --arc",
    "unknown flag": "surfcluster: unrecognized arguments: --bogus",
    "sequence 0": "--sequence: index 0 is not in 1..2",
    "sequence 3": "--sequence: index 3 is not in 1..2",
    "square seed is not skew-symmetric": "top block is not skew-symmetric",
    "too few seed names": "seed: 1 names for 2 columns",
    "verify index out of range": "bundle cases[0]: index 4 is not in 1..3",
    "arc of T notched twice at one end":
        "arc '9' does not join 'P2' and 'P2'",
    "arc of T notched at a puncture it does not reach":
        "arc '9' does not join 'P1'",
    "puncture on the boundary": "puncture 'p' is on the boundary",
    "negative genus": "genus must not be negative",
    "negative boundary components":
        "boundary_components must not be negative",
    "more punctures than listed": "0 punctures listed, topology has 1",
    "more boundary marked points than segments":
        "4 boundary segments listed, topology has 5 boundary marked points",
    "annulus as a torus with boundary segments":
        "boundary segments close up into 2 cycles, topology has 0 boundary "
        "components",
    "sphere gluing declared a torus":
        "the triangles glue into 3 vertices, topology has 1 marked points",
    "wind on a non-radius crossing": "wind on 'd', which is not a radius",
    "exponent overflow": "leave the packed range |e| < 2**31",
}
BAD_PREFIX = {EXIT_PARSE: "parse error: ",
              EXIT_VALIDATION: "validation error: ",
              EXIT_COMPUTE: "computation error: "}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exit_code_and_one_line_message(case, tmp_path, capsys):
    code, argv = BAD_INPUTS[case]
    assert main(argv(tmp_path)) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(BAD_PREFIX[code]) and BAD_MESSAGES[case] in err


def test_every_bad_input_pins_its_message():
    assert list(BAD_MESSAGES) == list(BAD_INPUTS)


def _square_arc_file(tmp_path, arc):
    return ["expand", "--surface", str(DATA / "square.json"),
            "--arc", write(tmp_path, "arc.json", arc)]


# the whole stderr line of a parse error, which names the path of the first
# bad value
PARSE_MESSAGES = {
    "nested list index": (lambda tmp: _bad_seed(
        tmp, [[0, 1], [-1, "x"]], ["1", "2"], "1"),
        "seed matrix[1][1]: 'x' is not a JSON int"),
    "list of strings": (lambda tmp: _square_expand(
        tmp, _square_surface(arcs=["d", 5])),
        "surface arcs[1]: 5 is not a JSON str"),
    "list item is not an object": (lambda tmp: _square_expand(
        tmp, _square_surface(triangles=[5])),
        "surface triangles[0]: 5 is not a JSON object"),
    "unknown field": (lambda tmp: _mutate(
        tmp, {"schema": 1, "matrix": [[0, 1], [-1, 0]], "nmaes": ["a"]}),
        "seed: unknown field 'nmaes'"),
    "missing field": (lambda tmp: _square_expand(tmp, {
        k: v for k, v in square_json().items() if k != "topology"}),
        "surface: missing field 'topology'"),
    "value outside the allowed set": (lambda tmp: _square_expand(
        tmp, orientation="up"),
        "arc orientation: 'up' is not one of ['ccw', 'cw']"),
    "arc in its tuple form": (lambda tmp: _square_arc_file(
        tmp, {"schema": 1, "arc": "d", "notch_end": 1}),
        "arc notch_end: 1 is not a JSON bool"),
    "field of the other arc form": (lambda tmp: _square_arc_file(
        tmp, {"schema": 1, "arc": "d", "crossings": []}),
        "arc: unknown field 'crossings'"),
    "path arc without its end": (lambda tmp: _square_arc_file(
        tmp, {k: v for k, v in square_arc_json().items() if k != "end"}),
        "arc: missing field 'end'"),
    "deep in a bundle": (lambda tmp: _hexagon_bundle(tmp, cases=[{
        "arc": {**square_arc_json(), "crossings": [
            {"arc": "d", "to_triangle": 1},
            {"arc": "d", "to_triangle": True}]},
        "sequence": [1], "index": 1}]),
        "bundle cases[0] arc crossings[1] to_triangle: True is not a JSON int"),
}


@pytest.mark.parametrize("case", list(PARSE_MESSAGES))
def test_parse_error_message_names_the_path(case, tmp_path, capsys):
    argv, line = PARSE_MESSAGES[case]
    assert main(argv(tmp_path)) == EXIT_PARSE
    assert capsys.readouterr().err == f"parse error: {line}\n"


def test_arc_of_t_notched_where_it_does_not_reach(capsys):
    assert main(_arc9_notch("P1")) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "validation error: arc '9' does not join 'P1'\n")


def test_duplicate_seed_names_are_refused(tmp_path, capsys):
    argv = _bad_seed(tmp_path, [[0, 1], [-1, 0]], ["a", "a"], "1,2")
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "validation error: seed: name 'a' is given twice\n")


# command lines on shipped input files (under tests/data) that exit 0
SHIPPED = [
    ["expand", "--surface", "square.json", "--arc", "square_arc.json"],
    ["expand", "--surface", "three_punctures.json",
     "--arc", "notched_arc.json"],
    ["expand", "--surface", "two_punctures.json",
     "--arc", "double_notched_arc.json"],
    ["mutate", "--seed", "seed_rank2.json", "--sequence", "1"],
    ["verify", "--bundle", "hexagon_bundle.json"],
    ["verify", "--bundle", "punctured_bundle.json"],
]
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=3)),
    max_leaves=6)


def _positions(value, path=()):
    """(path of keys and indices, value) for every position in a JSON tree."""
    yield path, value
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from _positions(item, path + (key,))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_fuzzed_input_exits_with_one_line(tmp_path, data):
    """One value of a shipped input file, or the whole file, replaced by a
    random JSON tree, a small integer or a string of the file: the exit code
    is documented and a nonzero exit prints one stderr line.  A value of
    another JSON type is a parse error."""
    argv = data.draw(st.sampled_from(SHIPPED))
    files = [i for i, a in enumerate(argv) if a.endswith(".json")]
    k = data.draw(st.sampled_from(files))
    obj = json.loads((DATA / argv[k]).read_text())
    spots = list(_positions(obj))
    path, old = data.draw(st.sampled_from(spots))
    strings = sorted({v for _, v in spots if type(v) is str})
    new = data.draw(JSON | st.integers(-1, 12) | st.sampled_from(strings))
    if path:
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = new
    else:
        obj = new
    argv = [write(tmp_path, a, obj) if i == k else
            str(DATA / a) if i in files else a for i, a in enumerate(argv)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in range(5)
    assert len(err.getvalue().splitlines()) == (rc != 0)
    if type(old) is not type(new):
        assert rc == EXIT_PARSE


def test_verify_differ_names_the_differing_terms(tmp_path, capsys):
    from surfcluster.cli import parse_arc, parse_surface as parse
    from surfcluster.expand import expand_ordinary
    from surfcluster.mutation import principal_seed, run_sequence
    from surfcluster.surface import signed_adjacency
    bundle = json.loads((DATA / "hexagon_bundle.json").read_text())
    case = bundle["cases"][0]           # arc 2-4, index 1 after sequence [1]
    case["index"] = 2
    bundle["cases"] = [case]
    p = write(tmp_path, "bundle.json", bundle)
    assert main(["verify", "--bundle", p]) == EXIT_VERIFY
    lines = capsys.readouterr().out.splitlines()
    T = parse(json.dumps(bundle["surface"]).encode())
    path, _, _ = parse_arc(json.dumps(case["arc"]).encode(), T)
    seed = principal_seed(signed_adjacency(T), T.tagged_names())
    diff = expand_ordinary(T, path).poly.sub(run_sequence(seed, [0]).cluster[1])
    assert lines == [f"{case['name']}: DIFFER",
                     f"  expansion - oracle = {diff.canonical_text()}"]


def test_matching_count_mismatch_exits_3(tmp_path, capsys, monkeypatch):
    # a transfer sum whose count disagrees with the continuant is refused
    import surfcluster.expand as expand
    monkeypatch.setattr(expand, "matching_count", lambda g: 0)
    s = write(tmp_path, "sq.json", square_json())
    a = write(tmp_path, "arc.json", square_arc_json())
    assert main(["expand", "--surface", s, "--arc", a]) == EXIT_COMPUTE
    err = capsys.readouterr().err
    assert "continuant" in err and len(err.strip().splitlines()) == 1
