"""The benchmark's tracer (`perfbench/tracing.py`) wraps program functions
by name; a renamed or removed one would silently drop out of the per-layer
metrics."""

import importlib
import importlib.util
from pathlib import Path


def test_every_traced_name_exists_in_its_home_module():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for span, (home, names) in tracing._FUNCTIONS.items():
        module = importlib.import_module(f"surfcluster.{home}")
        for name in names:
            assert callable(getattr(module, name, None)), (span, home, name)
