"""The parallel runner when a pool worker is SIGKILLed mid-run.

A fake experiment kills its own worker process (the OOM killer's
signature); under the fork start method pool workers inherit the
patched registry, and the same experiment succeeds when it runs in the
parent.

Which experiments are in flight when the pool breaks is fixed, not left
to timing.  The killer sets a fork-inherited event just before it dies;
a worker forked while that event was still clear belongs to the pool the
killer breaks, and a sibling experiment there holds its slot (bounded)
until the break terminates it.  So the break always finds the first
``jobs`` experiments in flight, and everything queued behind them runs
in the fresh pool.
"""

import multiprocessing
import os
import signal
import time

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
#: Set by the killer just before it SIGKILLs its worker.
_KILLING = multiprocessing.Event()
#: Bound on a sibling's hold, should the pool never break.
_WAIT_S = 60.0
#: In a pool worker: forked before the kill, into the pool it breaks.
_DOOMED = False


def _note_fork() -> None:
    global _DOOMED
    _DOOMED = not _KILLING.is_set()


os.register_at_fork(after_in_child=_note_fork)


class _KillerModule:
    """SIGKILLs any pool worker that runs it; passes in the parent."""

    EXP_ID = "killer"
    TITLE = "kills its worker"

    @staticmethod
    def run(campaign, **params):
        if os.getpid() != _PARENT_PID:
            _KILLING.set()
            os.kill(os.getpid(), signal.SIGKILL)
        result = ExperimentResult("killer", "kills its worker")
        result.check("survived", True)
        return result


def _sibling(module):
    """``module``, except that in the pool the killer breaks it never
    finishes first: it holds its slot until the break terminates it."""

    class _Sibling:
        EXP_ID = module.EXP_ID
        TITLE = module.TITLE
        FAMILIES = getattr(module, "FAMILIES", None)

        @staticmethod
        def run(campaign, **params):
            if os.getpid() != _PARENT_PID and _DOOMED:
                time.sleep(_WAIT_S)
            return module.run(campaign, **params)

    return _Sibling


@pytest.fixture
def killer(monkeypatch):
    import repro.experiments as experiments_pkg

    listing = [(_KillerModule.EXP_ID, _KillerModule.TITLE)] + [
        (e, e) for e in IDS[1:]
    ]
    _KILLING.clear()
    monkeypatch.setitem(registry._ALL, _KillerModule.EXP_ID, _KillerModule)
    for exp_id in IDS[1:]:
        monkeypatch.setitem(
            registry._ALL, exp_id, _sibling(registry._ALL[exp_id])
        )
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
