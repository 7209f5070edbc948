"""One in-process pass of each benchmark workload (`perfbench/workloads.py`,
seed 7), every item checked by the workload's own `check` against
`perfbench/expected.json`: the sweep's digests and its set of rejected
paths, the long arcs and the mutation chains are the program's outputs the
benchmark pins."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its sibling inputs.py by name
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "inputs", _load("inputs"))
        yield _load("workloads")


@pytest.mark.parametrize("name, items", [("sweep", 2005), ("long_arcs", 5),
                                         ("mutation", 404)])
def test_workload_pass_matches_the_expected_outputs(name, items, workloads):
    expected = workloads.load_expected()
    workload = workloads.WORKLOADS[name](random.Random(7), expected)
    problems = [(item.id, problem) for item in workload.items
                for problem in [workload.check(item.id, item.run()[2])]
                if problem is not None]
    assert len(workload.items) == items and problems == []
