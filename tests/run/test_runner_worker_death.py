"""The parallel runner when a pool worker is SIGKILLed mid-run.

A fake experiment kills its own worker process (the OOM killer's
signature); under the fork start method pool workers inherit the
patched registry, and the same experiment succeeds when it runs in the
parent.
"""

import multiprocessing
import os
import signal

import pytest

from repro.experiments import registry
from repro.experiments.base import ExperimentResult
from repro.run import ExperimentRunner
from tests.run.test_runner import _assert_results_equal

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the fake experiment reaches pool workers via fork inheritance",
)

_PARENT_PID = os.getpid()
IDS = ["killer", "table1", "fig05", "fig12"]


class _KillerModule:
    """SIGKILLs any pool worker that runs it; passes in the parent."""

    EXP_ID = "killer"
    TITLE = "kills its worker"

    @staticmethod
    def run(campaign, **params):
        if os.getpid() != _PARENT_PID:
            os.kill(os.getpid(), signal.SIGKILL)
        result = ExperimentResult("killer", "kills its worker")
        result.check("survived", True)
        return result


@pytest.fixture
def killer(monkeypatch):
    import repro.experiments as experiments_pkg

    listing = [(_KillerModule.EXP_ID, _KillerModule.TITLE)] + [
        (e, e) for e in IDS[1:]
    ]
    monkeypatch.setitem(registry._ALL, _KillerModule.EXP_ID, _KillerModule)
    monkeypatch.setattr(
        experiments_pkg, "list_experiments", lambda include_extensions=False: listing
    )


def test_killed_worker_costs_only_its_victims(small_campaign, killer):
    serial, _ = ExperimentRunner(jobs=0).run(small_campaign, IDS)
    parallel, report = ExperimentRunner(jobs=2).run(small_campaign, IDS)

    assert [m.exp_id for m in report.experiments] == IDS
    assert all(m.error is None for m in report.experiments)
    assert list(parallel) == IDS
    for exp_id in IDS:
        _assert_results_equal(serial[exp_id], parallel[exp_id])

    modes = {m.exp_id: m.mode for m in report.experiments}
    assert modes["killer"] == "serial-fallback"
    assert set(modes.values()) <= {"parallel", "serial-fallback"}
    # Experiments still queued when the worker died run in a fresh pool.
    assert modes[IDS[-1]] == "parallel"
