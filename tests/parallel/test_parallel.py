"""Tests for the process pools and per-shard merges."""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis.counts import counts_by
from repro.faults.coalesce import coalesce, merge_shard_faults
from repro.parallel.executor import map_tasks, supervise
from repro.parallel.sharding import merge_counts


def _rack_shards(errors, topo):
    racks = topo.rack_of(errors["node"].astype(np.int64))
    return [errors[racks == r] for r in np.unique(racks)]


def _rack_coalesce(errors, topo, n_workers=0):
    """Per-rack coalescing on the plain pool, merged exactly."""
    return merge_shard_faults(
        map_tasks(coalesce, _rack_shards(errors, topo), n_workers)
    )


class TestSharding:
    def test_merge_counts(self):
        out = merge_counts([np.array([1, 2]), np.array([3, 4, 5])])
        assert out.tolist() == [4, 6, 5]

    def test_merge_validation(self):
        with pytest.raises(ValueError):
            merge_counts([])


class TestParallelCoalesce:
    def test_serial_equals_whole_stream(self, small_campaign):
        serial = coalesce(small_campaign.errors)
        sharded = _rack_coalesce(small_campaign.errors, small_campaign.topology)
        assert sharded.tobytes() == serial.tobytes()

    def test_process_pool_equals_serial(self, small_campaign):
        serial = _rack_coalesce(small_campaign.errors, small_campaign.topology)
        parallel = _rack_coalesce(
            small_campaign.errors, small_campaign.topology, n_workers=2
        )
        np.testing.assert_array_equal(serial, parallel)

    def test_more_workers_than_shards_equals_serial(self, small_campaign):
        """Oversubscribed pools (n_workers > busy racks) stay bit-for-bit."""
        topo = small_campaign.topology
        racks = topo.rack_of(small_campaign.errors["node"])
        two_racks = small_campaign.errors[np.isin(racks, [0, 1])]
        serial = _rack_coalesce(two_racks, topo)
        parallel = _rack_coalesce(two_racks, topo, n_workers=8)
        np.testing.assert_array_equal(serial, parallel)

    def test_fault_ids_dense(self, small_campaign):
        out = _rack_coalesce(small_campaign.errors, small_campaign.topology)
        np.testing.assert_array_equal(out["fault_id"], np.arange(out.size))


class TestMapReduce:
    def test_custom_aggregation(self, small_campaign):
        """Per-slot error counts via map + merge equal the direct count."""
        shards = _rack_shards(small_campaign.errors, small_campaign.topology)
        out = merge_counts(map_tasks(_slot_counts, shards))
        direct, _ = counts_by(small_campaign.errors, "slot")
        np.testing.assert_array_equal(out, direct)

    def test_empty_input(self):
        assert map_tasks(_slot_counts, [], n_workers=2) == []
        assert merge_shard_faults([]).size == 0


def _slot_counts(shard):
    return counts_by(shard, "slot")[0]


def _double(x):
    return x * 2


class TestPoolBrokenFallback:
    def test_broken_pool_finishes_serially_with_audit_trail(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        from repro import obs
        from repro.parallel import executor

        class _DoomedPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, task):
                raise BrokenProcessPool("worker exited abruptly")

        monkeypatch.setattr(executor, "ProcessPoolExecutor", _DoomedPool)
        before = obs.get_metrics().counter_value("parallel.pool_broken")
        with pytest.warns(RuntimeWarning, match="process pool broke"):
            out = executor.map_tasks(_double, [1, 2, 3], n_workers=2)
        assert out == [2, 4, 6]  # serial fallback still answers exactly
        after = obs.get_metrics().counter_value("parallel.pool_broken")
        assert after == before + 1


def _fail_first_attempt(arg):
    task, attempt = arg
    if attempt == 1:
        raise RuntimeError(f"transient failure of {task}")
    return task * 2


class TestSupervise:
    def test_requeued_tasks_finish_on_the_pool(self):
        done = {}

        def on_done(task, attempt, result, exc):
            if exc is not None:
                return 0.0  # retry at once
            done[task] = (result, attempt)
            return None

        leftovers = supervise(
            _fail_first_attempt,
            [1, 2, 3],
            2,
            on_submit=lambda task, attempt: (task, attempt),
            on_done=on_done,
        )
        assert leftovers == []
        assert done == {1: (2, 2), 2: (4, 2), 3: (6, 2)}

    def test_no_pool_hands_every_task_back(self, monkeypatch):
        from repro.parallel import executor

        def _no_pool(**kwargs):
            raise OSError("no semaphores here")

        monkeypatch.setattr(executor, "ProcessPoolExecutor", _no_pool)
        leftovers = supervise(
            _double, ["a", "b"], 2, on_done=lambda *args: None
        )
        assert leftovers == [("a", 1, 0.0), ("b", 1, 0.0)]


def test_process_pools_are_built_only_by_the_executor():
    """Every supervised or plain pool goes through repro.parallel.executor."""
    src = Path(repro.__file__).parent
    builders = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name == "ProcessPoolExecutor":
                builders.append(path.relative_to(src).as_posix())
    assert builders and set(builders) == {"parallel/executor.py"}
