"""The benchmark's tracer (`perfbench/tracing.py`) wraps program functions
by name; a renamed or removed one would silently drop out of the per-layer
metrics, and a moved argument would miscount."""

import importlib
import importlib.util
from pathlib import Path

from conftest import gamma3, twice_punctured
from surfcluster import matchings
from surfcluster.snake import build_loop_graph


def _tracing():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_exists_in_its_home_module():
    for span, (home, names) in _tracing()._FUNCTIONS.items():
        module = importlib.import_module(f"surfcluster.{home}")
        for name in names:
            assert callable(getattr(module, name, None)), (span, home, name)


def test_loop_graph_counters_read_the_positional_arguments():
    # the symmetric filter's matchings are its argument 1, and the two
    # restriction dicts of compatible_pairs its arguments 2 and 3
    T = twice_punctured()
    lp = build_loop_graph(T, gamma3(T), "p")
    lq = build_loop_graph(T, gamma3(T).reversed(), "q")
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        roles = []
        for lg in (lp, lq):
            sym = matchings.gamma_symmetric_filter(
                lg, matchings.enumerate_matchings(lg.graph))
            roles.append({P: matchings.perfect_end_restriction(lg, P)[1]
                          for P in sym})
        matchings.compatible_pairs(lp, lq, roles[0], roles[1])
    finally:
        tracer.uninstall()
    counts = {k: tracer.counts[f"matchings.{k}"] for k in (
        "enumerated", "symmetric_in", "symmetric_kept", "pairs",
        "pair_candidates")}
    # 8 and 12 matchings, 4 and 6 symmetric, 12 of the 4 * 6 pairs agree
    assert counts == {"enumerated": 20, "symmetric_in": 20,
                      "symmetric_kept": 10, "pairs": 12,
                      "pair_candidates": 24}
