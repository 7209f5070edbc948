"""Smoke tests for the stdlib scripts under tools/."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"tools_{name}", ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_loc_counts_non_empty_lines():
    count = _load("loc")._count
    assert count("") == 0
    assert count("x = 1\n\n\ny = 2\n") == 2
    assert count("def f():\n    pass\n\n# note\n") == 3


def test_loc_against_head_prints_a_totals_row():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "loc.py"),
                          "HEAD"], cwd=ROOT, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].split() == ["module", "HEAD", "tree", "diff"]
    total = lines[-1].split()
    assert total[0] == "total" and len(total) == 4
    assert int(total[1]) > 0 and int(total[2]) > 0
    assert int(total[2]) - int(total[1]) == int(total[3])


def test_reach_flags_unkept_and_missing_names():
    reach = _load("reach")
    kept = set(reach.KEPT)
    name = min(kept)
    assert reach.kept_problems([name], kept | {"m.f"}) == []
    assert reach.kept_problems([name, "m.f"], kept | {"m.f"}) == [
        "never entered and not kept: m.f"]
    assert reach.kept_problems([], kept - {name}) == [
        f"kept but not defined: {name}"]


def test_reach_lists_only_kept_functions():
    # every command on the shipped fixtures and one pass of each workload;
    # a function that none of them enters must be kept with a reason
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "reach.py")],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    assert run.returncode == 0, run.stderr
    *listed, total = run.stdout.splitlines()
    kept = _load("reach").KEPT
    assert listed and total.endswith("non-blank lines")
    for line in listed:
        name = line.split()[0]
        assert name in kept and line.endswith(kept[name]), line
