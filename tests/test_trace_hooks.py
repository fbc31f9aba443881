"""The benchmark's traced run (perfbench/tracer.py) wraps levyflow functions
by name. A renamed or removed function would only print a warning there and
leave its per-layer metric at 0, and so would a hooked name that the
commands no longer call through; these tests fail on either instead."""

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


def test_trace_hooks_fire_on_tiny_runs(tmp_path):
    from levyflow.cli import main

    cfgfile = tmp_path / "tiny.cfg"
    cfgfile.write_text("[fracheck]\nresolutions = 16, 32\nexponents = 1.0\nmodes = 1\n\n"
                       "[micro]\nM = 50\nN = 2\n\n[macro]\nN = 1\n")
    tracer = _tracer_module().Tracer()
    with tracer.installed():
        for command in ("fracheck", "micro", "macro", "ensemble --kind macro --samples 1",
                        "ensemble --kind micro --samples 1"):
            out = tmp_path / "_".join(command.split()[:3])
            assert main(["--config", str(cfgfile), "--workers", "1", "--out", str(out),
                         *command.split()]) == 0, command
    recorded = {span.name for span in tracer.spans}
    assert {"formats.lvf_write", "formats.csv_write", "formats.sha256", "fracops.oracle",
            "micro.deposit", "config.resolve", "ensemble.sample", "linsolve.bicgstab"} <= recorded
    # the micro hooks fire within a micro ensemble sample, as in the
    # benchmark's micro-laws workload
    def chain(span):
        while span.parent >= 0:
            span = tracer.spans[span.parent]
            yield span.name

    in_sample = {span.name for span in tracer.spans if "ensemble.sample" in chain(span)}
    assert {"micro.step", "micro.gather", "micro.scatter", "drivers.noise"} <= in_sample
