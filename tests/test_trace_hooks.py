"""The benchmark's traced run (perfbench/tracer.py) wraps levyflow functions
by name. A renamed or removed function would only print a warning there and
leave its per-layer metric at 0, so this test fails on it instead."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_every_trace_hook_finds_its_function():
    tracer = _tracer_module().Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == []
