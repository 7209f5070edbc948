"""Smoke tests for the stdlib scripts under tools/."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_loc_against_head_prints_a_totals_row(tmp_path):
    # the script and the package, committed to a fresh repository and then
    # given one more line, so the test needs no checkout of its own
    shutil.copytree(ROOT / "src" / "surfcluster",
                    tmp_path / "src" / "surfcluster",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "tools").mkdir()
    shutil.copy(ROOT / "tools" / "loc.py", tmp_path / "tools")
    git = ["git", "-c", "user.name=loc", "-c", "user.email=loc@example.com",
           "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "x"]):
        subprocess.run(git + args, cwd=tmp_path, check=True,
                       capture_output=True, timeout=60)
    with open(tmp_path / "src" / "surfcluster" / "poly.py", "a") as f:
        f.write("\n# one more line\n")
    run = subprocess.run([sys.executable, str(tmp_path / "tools" / "loc.py"),
                          "HEAD"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].split() == ["module", "HEAD", "tree", "diff"]
    assert lines[1:-1] and all(line.split()[0].endswith(".py")
                               for line in lines[1:-1])
    total = lines[-1].split()
    assert total[0] == "total" and len(total) == 4
    assert int(total[1]) > 0
    assert int(total[2]) - int(total[1]) == int(total[3]) == 1


def test_reach_flags_unkept_and_missing_names():
    reach = _load("reach")
    kept, traced = set(reach.KEPT), reach.traced_names()
    name = min(kept)
    assert reach.kept_problems(kept, kept | {"m.f"}, traced) == []
    assert reach.kept_problems(kept | {"m.f"}, kept | {"m.f"}, traced) == [
        "never entered and not kept: m.f"]
    assert reach.kept_problems(kept - {name}, kept - {name}, traced) == [
        f"kept but not defined: {name}"]


def test_reach_flags_kept_names_that_run_or_are_not_traced():
    reach = _load("reach")
    kept, traced = set(reach.KEPT), reach.traced_names()
    assert "matchings.minimal_maximal" in traced
    name = min(kept)
    assert reach.kept_problems(kept - {name}, kept, traced) == [
        f"kept but entered: {name}"]
    assert reach.kept_problems(kept, kept, traced - {
        "matchings.minimal_maximal"}) == [
        "kept as traced but not in tracing._FUNCTIONS: "
        "matchings.minimal_maximal"]


@pytest.mark.parametrize("kept, problem", [
    ({"m.idle": "why"}, None),
    ({"m.idle": "why", "m.run": "why"}, "kept but entered: m.run"),
    ({"m.idle": "pinned"},
     "kept as traced but not in tracing._FUNCTIONS: m.idle"),
])
def test_reach_exit_code_on_stale_kept_entries(kept, problem, monkeypatch,
                                               capsys):
    # two stand-in functions, one of which the stand-in run enters
    reach = _load("reach")

    def run():
        pass

    def idle():
        pass

    def run_all():
        run()
        return []

    monkeypatch.setattr(reach, "functions", lambda: {
        (f.__code__.co_filename, f.__code__.co_firstlineno): (name, 2)
        for f, name in ((run, "m.run"), (idle, "m.idle"))})
    monkeypatch.setattr(reach, "run_all", run_all)
    monkeypatch.setattr(reach, "KEPT", {
        name: reach._PINNED if why == "pinned" else why
        for name, why in kept.items()})
    assert reach.main() == (0 if problem is None else 1)
    err = capsys.readouterr().err
    assert err == ("" if problem is None else f"problem: {problem}\n")


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


def test_pairs_summary_reads_medians_quartiles_ratios_and_wins():
    pairs = _load("pairs")
    spec = [{"name": "ops_per_s", "unit": "1/s", "better": "higher",
             "bound": 0.25},
            {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.02}]

    def record(ops, wall, passes, factor=1.0):
        return {"correct": True, "passes": passes, "host_factor": factor,
                "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                            "wall_s": {"value": wall, "unit": "s"}}}

    runs = [(record(100, 2.0, 30), record(110, 1.9, 33, 1.0312)),
            (record(104, 2.0, 31), record(104, 2.1, 31)),   # a tie, a loss
            (record(96, 2.2, 29, 1.2), record(120, 1.8, 36, 0.9876)),
            (record(100, 2.0, 30), record(115, 2.0, 34))]   # a tie
    lines = pairs.summarize(spec, runs, "abc")
    ops, wall = (line.split() for line in lines[1:3])
    # REV's wall_s quartiles span 0.05 of its median 2, past the 0.02
    # bound, and one tree run (2.1) reads worse than REV's best
    assert ops == ["ops_per_s", "1/s", "100", "(99-101)",
                   "112.5", "(108.5-116.25)", "1.125", "3/4", "within"]
    assert wall == ["wall_s", "s", "2", "(2-2.05)", "1.95", "(1.875-2.025)",
                    "0.975", "2/4", "unresolved"]
    assert lines[3:] == [
        "passes abc: 30 31 29 30; host factors: 1.0 1.0 1.2 1.0",
        "passes tree: 33 31 36 34; host factors: 1.0312 1.0 0.9876 1.0"]
    # with set-up launches, one more line of each side's median
    launches = [(0.15, 0.16), (0.12, 0.14), (0.2, 0.13)]
    lines = pairs.summarize(spec, runs, "abc", launches)
    assert lines[:-1] == pairs.summarize(spec, runs, "abc")
    assert lines[-1] == ("setup launches (3 per side): abc median 0.15 s, "
                         "tree median 0.14 s, ratio 0.933")


@pytest.mark.parametrize("better, tree, expected", [
    ("lower", [1.0, 1.1, 1.2, 1.3], "within"),      # median 1.15 of 1.0
    ("lower", [1.3, 1.3, 1.3, 1.3], "worse"),       # median 1.3, past 1.25
    ("higher", [0.7, 0.7, 0.7, 0.8], "worse"),      # median 0.7, past 0.75
    ("higher", [0.75, 0.8, 0.8, 0.8], "within")])   # median 0.8
def test_pairs_verdict_reads_the_bound_against_the_medians(better, tree,
                                                           expected):
    metric = {"better": better, "bound": 0.25}
    assert _load("pairs").verdict(metric, [1.0] * 4, tree) == expected


def test_pairs_verdict_spread_past_the_bound_is_unresolved():
    # REV's quartiles 0.9-1.3 span 0.4 of its median 1.0
    verdict = _load("pairs").verdict
    metric = {"better": "lower", "bound": 0.25}
    base = [0.8, 0.9, 1.0, 1.0, 1.3, 1.4]
    assert verdict(metric, base, [0.9] * 6) == "unresolved"
    # unless every tree run beats every REV run
    assert verdict(metric, base, [0.7] * 6) == "within"
    # a worse median is worse, spread or not
    assert verdict(metric, base, [1.3] * 6) == "worse"


@pytest.mark.parametrize("code, correct, error", [
    (0, True, False), (1, True, True), (0, False, True)])
def test_pairs_run_once_reads_a_stub_benchmark(tmp_path, code, correct,
                                               error):
    # a stand-in perfbench/run.py that prints run.py's lines, echoes its
    # arguments in the final JSON and exits with the given code
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, sys\n"
        "print('workload w  seed 5  passes 17  items/pass 3')\n"
        "print('  raw pass times 0.1000 0.1010')\n"
        "print('  host factor 1.0312 (reference loop median 1.0 ms)')\n"
        f"print(json.dumps({{'correct': {correct}, 'failed': 0, "
        "'argv': sys.argv[1:]}))\n"
        f"sys.exit({code})\n")
    record = _load("pairs").run_once(tmp_path, "w", 5, 0.5, 1)
    assert record["passes"] == 17 and record["host_factor"] == 1.0312
    assert record["correct"] is correct
    assert record["argv"] == ["--workload", "w", "--seed", "5",
                              "--seconds", "0.5", "--trace", "1"]
    assert ("error" in record) is error
    if error:
        assert record["error"].startswith(f"exit {code}\n")


def test_pairs_count_diffs_reads_two_stub_benchmarks(tmp_path):
    # a stand-in perfbench/run.py on each side that prints fixed per-layer
    # metrics, and fails unless called with --seconds 0 --trace 1
    spec = [{"name": n, "unit": u} for n, u in (
        ("a.calls", "count"), ("a.kept", "count"), ("a.yield", "ratio"),
        ("a.s", "s"), ("trace.overhead_frac", "ratio"))]
    trees = []
    for side, values in (("rev", (5, 3, 0.5, 0.1, 0.02)),
                         ("tree", (5, 4, 0.25, 0.2, 0.03))):
        metrics = {m["name"]: {"value": v, "unit": m["unit"]}
                   for m, v in zip(spec, values)}
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(
            "import json, sys\n"
            "args = sys.argv[1:]\n"
            "assert args[args.index('--seconds') + 1] == '0'\n"
            "assert args[args.index('--trace') + 1] == '1'\n"
            f"print(json.dumps({{'correct': True, 'failed': 0, "
            f"'metrics': {metrics!r}}}))\n")
        trees.append(tmp_path / side)
    pairs = _load("pairs")
    # the seconds and the tracer's own overhead differ, and are not read
    assert pairs.count_diffs(*trees, "w", 5, spec, "abc") == [
        "w a.kept: abc 3, tree 4", "w a.yield: abc 0.5, tree 0.25"]
    assert pairs.count_diffs(trees[0], trees[0], "w", 5, spec) == []
    (trees[1] / "perfbench" / "run.py").write_text("raise SystemExit(2)\n")
    with pytest.raises(RuntimeError, match="exit 2"):
        pairs.count_diffs(*trees, "w", 5, spec)
