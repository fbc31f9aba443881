import math

import pytest

from levyflow import micro


class NoiseHelpers:
    """The noise helpers that run_micro starts, counted, and how they draw:
    as the helper's own trial decides until ``draw`` forces a mode."""

    def __init__(self, monkeypatch):
        self.started = 0
        self._monkeypatch = monkeypatch
        helpers = self

        class Counted(micro.NoiseAhead):
            def __init__(self, *args):
                super().__init__(*args)
                helpers.started += 1

        self._counted = Counted
        monkeypatch.setattr(micro, "NoiseAhead", Counted)

    def draw(self, mode: str) -> None:
        """Force how run_micro draws: "inline" starts no helper, and each
        step draws its own noise; with "stays" or "stops" every helper stays
        or stops after its trial, whatever it measured."""
        patch = self._monkeypatch
        patch.setattr(micro, "NoiseAhead", Inline if mode == "inline" else self._counted)
        patch.setattr(micro, "NOISE_OVERLAP_FRACTION", -math.inf if mode == "stays" else math.inf)


class Inline:
    """A NoiseAhead that starts no thread and leaves every step to draw."""

    def __init__(self, *args):
        pass

    def take(self, idx):
        return None

    def close(self):
        pass


@pytest.fixture
def noise_helpers(monkeypatch):
    return NoiseHelpers(monkeypatch)
