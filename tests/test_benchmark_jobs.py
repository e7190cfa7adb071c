"""Every benchmark job runs once and passes its own output gate."""

import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_every_benchmark_job_passes_its_gate(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # the module's dataclass looks itself up in sys.modules while it is built
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    failures = []
    for name, (setup, _) in workloads.SETUPS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        for job in setup(str(workdir), 7):
            reason = job.check(job.run())
            if reason is not None:
                failures.append(f"{name}/{job.kind}: {reason}")
    assert failures == []
