import math

import numpy as np
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
        step's noise is drawn when the step takes it; with "stays" or
        "stops" every helper stays or stops after its trial, whatever it
        measured."""
        patch = self._monkeypatch
        patch.setattr(micro, "NoiseAhead", Inline if mode == "inline" else self._counted)
        patch.setattr(micro, "NOISE_OVERLAP_FRACTION", -math.inf if mode == "stays" else math.inf)


class Inline:
    """The inline reference of NoiseAhead: it starts no thread, and each
    ``take`` draws its step with ``micro._draw_step_noise`` into a fresh
    (S, M, 2) buffer and returns the rows ``idx``."""

    def __init__(self, cfg, streams, m):
        self._cfg, self._streams, self._m = cfg, streams, m

    def take(self, idx):
        draws = np.empty((len(self._streams), self._m, 2))
        micro._draw_step_noise(draws, self._cfg, self._streams)
        return draws.reshape(-1, 2).take(idx, axis=0)

    def close(self):
        pass


@pytest.fixture
def noise_helpers(monkeypatch):
    return NoiseHelpers(monkeypatch)
