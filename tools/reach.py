"""List the functions of src/surfcluster that no command and no benchmark
workload enters, and check that each one is kept on purpose.

    python3 tools/reach.py

Under `sys.setprofile` it runs every CLI command on the shipped fixtures of
tests/data: each (surface, arc, command) run pinned in
tests/data/golden.json, `expand` of the doubly-notched arc with each
`--notch` choice, `mutate` on the rank-2 principal and geometric seeds and
`verify` on both bundles.  Then it runs one pass of each perfbench workload
(seed 7) and checks every outcome against perfbench/expected.json.

It prints each function and method defined in src/surfcluster/*.py whose
code was never entered, with its non-blank line count and the reason
`KEPT` gives for it, then the total.  A function nested in another counts
as part of it and is not listed.  The exit code is 1 when a command exits
non-zero, a workload outcome fails its check, a function outside `KEPT` is
never entered, a name in `KEPT` no longer exists or is entered after all,
or a name kept because the tracer wraps it is not in the `_FUNCTIONS`
table of perfbench/tracing.py, which is read, not imported.  Stdlib only.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "surfcluster"
DATA = ROOT / "tests" / "data"

NOTCHES = ["p", "q", "p,q", "q,p"]
SEED = 7

_PINNED = "the benchmark's tracer wraps it by name (perfbench/tracing.py)"
_LOOP = "the loop-graph oracle that the benchmark pins calls it"
_TESTS = "a protocol method that the tests use"
# function -> why it stays although no command and no workload enters it
KEPT = {
    "cli._Mismatch.__init__": "runs only when a file breaks its schema",
    "cli._not_a": "runs only when a file breaks its schema",
    "cli._ArgumentParser.error": "runs only on a bad command line",
    "expand.retag_expansion": "tag switching, kept for arcs notched at a "
                              "puncture with a self-folded triangle",
    "expand._toggle_notch_name": "retag_expansion calls it",
    "matchings.minimal_maximal": _PINNED,
    "matchings.gamma_symmetric_filter": _PINNED,
    "matchings.perfect_end_restriction": _PINNED,
    "matchings.compatible_pairs": _PINNED,
    "matchings.weight_exps": _PINNED,
    "snake.build_loop_graph": _PINNED,
    "snake.end_subgraphs": _LOOP,
    "snake._end_role_map": _LOOP,
    "mutation.specialize_geometric": "the separation formula: other "
                                     "geometric coefficients from principal",
    "mutation._tropical_eval": "specialize_geometric calls it",
    "poly.LaurentPoly.__bool__": _TESTS,
    "poly.LaurentPoly.__hash__": _TESTS,
    "poly.LaurentPoly.__repr__": "shows a polynomial in a failing test",
    "poly.LaurentPoly.monomial": "a monomial in a ring of its own: var, "
                                 "_tropical_eval and the tests call it",
    "poly.LaurentPoly.num_terms": "the benchmark's tracer counts terms "
                                  "with it",
    "poly.LaurentPoly.zero": "mul and div_exact return it for a zero "
                             "operand; the tests use it",
    "poly.LaurentPoly.var": "retag_expansion and the tests call it",
    "poly.VarId.__reduce__": "keeps a copied or unpickled variable the "
                             "interned one; the tests copy and pickle",
}


def functions():
    """{(file, first line): (qualified name, non-blank lines)} for every
    function and method of the package; the first line is that of the first
    decorator, as in the function's code object."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    body = lines[first - 1:child.end_lineno]
                    out[str(path), first] = (f"{prefix}{child.name}",
                                             sum(1 for line in body if line))

        visit(ast.parse("\n".join(lines)), f"{path.stem}.")
    return out


def commands():
    """argv of every command on the shipped fixtures."""
    # a golden key is "<surface> <arc> <command> [flags]"
    for key in json.loads((DATA / "golden.json").read_text())["cli"]:
        surface, arc, cmd, *flags = key.split()
        yield [cmd, "--surface", str(DATA / surface),
               "--arc", str(DATA / arc), *flags]
    for names in NOTCHES:
        yield ["expand", "--surface", str(DATA / "two_punctures.json"),
               "--arc", str(DATA / "double_notched_arc.json"),
               "--notch", names]
    for seed in ("seed_rank2.json", "seed_geometric.json"):
        yield ["mutate", "--seed", str(DATA / seed), "--sequence", "1,2,1"]
    for bundle in ("hexagon_bundle.json", "punctured_bundle.json"):
        yield ["verify", "--bundle", str(DATA / bundle)]


def run_all():
    """Run the commands and one pass of each workload; returns the
    problems seen."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from surfcluster.cli import main
    import workloads
    problems = []
    for argv in commands():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
        if rc != 0:
            problems.append(f"exit {rc}: {' '.join(argv)}")
    expected = workloads.load_expected()
    for name, make in workloads.WORKLOADS.items():
        workload = make(random.Random(SEED), expected)
        for item in workload.items:
            problem = workload.check(item.id, item.run()[2])
            if problem is not None:
                problems.append(f"{name} {item.id}: {problem}")
    return problems


def traced_names():
    """The functions that perfbench/tracing.py wraps by name, as
    "module.name", read off its `_FUNCTIONS` table."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    table = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and
                 [getattr(t, "id", None) for t in node.targets]
                 == ["_FUNCTIONS"])
    return {f"{module}.{name}" for module, names in table.values()
            for name in names}


def kept_problems(unreached, names, traced):
    """The unreached functions missing from `KEPT`; the names in `KEPT`
    that are not among the defined names, or that are defined and entered;
    and the names kept as `_PINNED` that are not among the traced names."""
    return [f"never entered and not kept: {name}"
            for name in unreached if name not in KEPT] + \
        [f"kept but not defined: {name}"
         for name in KEPT if name not in names] + \
        [f"kept but entered: {name}"
         for name in KEPT if name in names and name not in unreached] + \
        [f"kept as traced but not in tracing._FUNCTIONS: {name}"
         for name, why in KEPT.items()
         if why == _PINNED and name not in traced]


def main() -> int:
    defined = functions()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        problems = run_all()
    finally:
        sys.setprofile(None)
    unreached = sorted(v for k, v in defined.items() if k not in entered)
    width = max((len(name) for name, _ in unreached), default=0)
    for name, count in unreached:
        print(f"{name:<{width}}  {count:>4}  {KEPT.get(name, '')}")
    print(f"{len(unreached)} of {len(defined)} functions never entered, "
          f"{sum(count for _, count in unreached)} non-blank lines")
    problems += kept_problems([name for name, _ in unreached],
                              {name for name, _ in defined.values()},
                              traced_names())
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
