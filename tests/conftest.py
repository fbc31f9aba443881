import os

import pytest

from levyflow import micro


class NoiseHelpers:
    """The CPUs that run_micro sees and the helper threads it starts."""

    def __init__(self, monkeypatch):
        self.started = 0
        self._monkeypatch = monkeypatch
        helpers = self

        class Counted(micro.NoiseAhead):
            def __init__(self, *args):
                super().__init__(*args)
                helpers.started += 1

        monkeypatch.setattr(micro, "NoiseAhead", Counted)

    def usable_cpus(self, count: int) -> None:
        self._monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture
def noise_helpers(monkeypatch):
    return NoiseHelpers(monkeypatch)
