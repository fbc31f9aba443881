import os

import pytest

from levyflow import micro


class NoiseHelpers:
    """The CPUs that run_micro sees and the helper threads it starts.  No
    cgroup CPU quota is seen until ``cpu_quota`` fakes one."""

    def __init__(self, monkeypatch, tmp_path):
        self.started = 0
        self._monkeypatch = monkeypatch
        self._cgroup = tmp_path / "cgroup"
        helpers = self

        class Counted(micro.NoiseAhead):
            def __init__(self, *args):
                super().__init__(*args)
                helpers.started += 1

        monkeypatch.setattr(micro, "NoiseAhead", Counted)
        monkeypatch.setattr(micro, "CGROUP_CPU_FILES", tuple(
            tuple(str(self._cgroup / name) for name in names)
            for names in (("cpu.max",), ("cpu.cfs_quota_us", "cpu.cfs_period_us"))))

    def usable_cpus(self, count: int) -> None:
        self._monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))

    def cpu_quota(self, quota: str, period: str = "100000", version: int = 2) -> None:
        """A cgroup CPU quota in the form of cgroup ``version``: v2's
        ``cpu.max`` line "<quota> <period>", or v1's two files."""
        self._cgroup.mkdir(exist_ok=True)
        if version == 2:
            files = {"cpu.max": f"{quota} {period}\n"}
        else:
            files = {"cpu.cfs_quota_us": f"{quota}\n", "cpu.cfs_period_us": f"{period}\n"}
        for name, text in files.items():
            (self._cgroup / name).write_text(text)


@pytest.fixture
def noise_helpers(monkeypatch, tmp_path):
    return NoiseHelpers(monkeypatch, tmp_path)
