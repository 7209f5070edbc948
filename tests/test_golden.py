"""Golden outputs: CLI text for every shipped arc fixture and the Euler
tables of the paper's three worked examples, pinned byte for byte.

Refactors of the expansion layer must leave these unchanged.  To re-record
after an intended output change, run `PYTHONPATH=src python tests/test_golden.py`
and review the diff of tests/data/golden.json.
"""

import contextlib
import io
import json
from pathlib import Path

from conftest import example_surface, gamma1, gamma2, gamma3, twice_punctured
from surfcluster import matchings, mutation, poly
from surfcluster.cli import main, parse_surface
from surfcluster.poly import xvar, yvar
from helpers import euler_table
from surfcluster.expand import (
    expand_double_notch,
    expand_ordinary,
    expand_single_notch,
)

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden.json"

# (surface fixture, arc fixture) pairs shipped under tests/data
FIXTURES = [
    ("square.json", "square_arc.json"),
    ("three_punctures.json", "ordinary_arc.json"),
    ("three_punctures.json", "notched_arc.json"),
    ("two_punctures.json", "double_notched_arc.json"),
]
COMMANDS = [("expand",), ("expand", "--json"), ("fpoly",), ("gvector",),
            ("matchings",), ("snake",), ("snake", "--dot")]
# arc 9 of the triangulation, which joins P2 and P3: its own variable, each
# notching by name, and both ends notched with the punctures inferred
ARC_OF_T = [("three_punctures.json", arc, cmd) for arc, cmd in (
    ("arc9.json", ("expand",)),
    ("arc9.json", ("expand", "--notch", "P2")),
    ("arc9.json", ("expand", "--notch", "P2,P3")),
    ("arc9_notched.json", ("expand",)))]


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return {"rc": rc, "stdout": buf.getvalue()}


def _table(tab):
    return sorted([list(k), v] for k, v in tab.items())


def snapshot() -> dict:
    cli = {}
    runs = [(surface, arc, cmd) for surface, arc in FIXTURES
            for cmd in COMMANDS] + ARC_OF_T
    for surface, arc, cmd in runs:
        argv = [cmd[0], "--surface", str(DATA / surface),
                "--arc", str(DATA / arc), *cmd[1:]]
        cli[f"{surface} {arc} {' '.join(cmd)}"] = _stdout(argv)
    E, TP = example_surface(), twice_punctured()
    euler = {
        "criterion 1": _table(euler_table(expand_ordinary(E, gamma1(E)),
                                          E.tagged_names())),
        "criterion 2": _table(euler_table(expand_single_notch(E, gamma2(E), "P2"),
                                          E.tagged_names())),
        "criterion 3": _table(euler_table(expand_double_notch(TP, gamma3(TP)),
                                          TP.tagged_names())),
    }
    return {"cli": cli, "euler": euler}


def test_commands_build_in_the_surface_ring(monkeypatch):
    # every polynomial an expand, fpoly, gvector or matchings command makes
    # lies in the 16-bit ring of T's x and y variables or is a constant, so
    # no operation interns a ring of its own or widens to 32-bit digits
    seen = []
    real = poly.ring_of

    def spy(variables, bits=32):
        s = frozenset(variables)
        seen.append((s, bits))
        return real(s, bits)

    for module in (poly, matchings, mutation):
        monkeypatch.setattr(module, "ring_of", spy)
    runs = 0
    for key in json.loads(GOLDEN.read_text())["cli"]:
        surface, arc, cmd, *flags = key.split()
        if cmd not in ("expand", "fpoly", "gvector", "matchings"):
            continue
        T = parse_surface((DATA / surface).read_bytes())
        own = frozenset(make(n) for n in T.tagged_names()
                        for make in (xvar, yvar))
        seen.clear()
        assert _stdout([cmd, "--surface", str(DATA / surface),
                        "--arc", str(DATA / arc), *flags])["rc"] == 0
        assert seen and {s for s, bits in seen if s} == {own}, key
        assert {bits for s, bits in seen if s} == {16}, key
        runs += 1
    assert runs == 24


def test_golden_outputs():
    expected = json.loads(GOLDEN.read_text())
    got = snapshot()
    for key in expected["cli"]:
        assert got["cli"][key] == expected["cli"][key], key
    assert got == expected


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
