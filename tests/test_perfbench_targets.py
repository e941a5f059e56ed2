"""The benchmark's tracer rebinds functions that the package still has."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_exist():
    # a traced benchmark run fails on the first (module, name) it cannot find
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [(module, name) for module, name, _ in tracer.TARGETS
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []
