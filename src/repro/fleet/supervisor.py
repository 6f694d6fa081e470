"""Supervised shard execution: bounded retry, quarantine, crash resume.

:func:`~repro.fleet.engine.process_fleet` used to fan shards out with
fire-and-forget semantics -- a dead worker silently degraded to a
serial re-run and a corrupt shard poisoned the reduction.  The
:class:`ShardSupervisor` replaces that with an explicit failure model:

- every attempt, commit and quarantine is appended (fsynced) to the
  fleet ledger, so a ``kill -9`` at any instant loses at most the
  shards that had not yet committed;
- a committed shard's reduced artefacts live in the digest-verified
  shard cache, so ``--resume`` loads them instead of re-running and the
  re-reduction is byte-identical to an uninterrupted run;
- worker death (``BrokenProcessPool``), wedged workers (past
  ``task_timeout_s``) and transient ``OSError`` get bounded
  full-jitter retry; :class:`~repro.logs.integrity.ShardIntegrityError`
  does not (the damage is on disk; retrying cannot help);
- a shard that exhausts its retries is *quarantined*: the fleet result
  carries the surviving reduction plus explicit coverage accounting for
  the records the quarantined shards would have contributed, so the
  experiment layer downgrades to ``pass-degraded`` instead of trusting
  a silently partial answer.

The parallel path runs on the scheduler the experiment runner also
uses, :func:`repro.parallel.executor.supervise` (deadline per task,
wedged slots written off, pool recreation).  This module keeps only
the fleet's policy: each submission journals an ``attempt``, each
finished attempt commits, retries with backoff, or quarantines, and
whatever the pool hands back runs through the serial path.  When
chaos -- or the OOM killer -- SIGKILLs a worker, every in-flight task
comes back as a failed attempt and a fresh pool takes over.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro._util import full_jitter_backoff
from repro.fleet.ledger import (
    CACHE_DIR_NAME,
    LEDGER_NAME,
    FleetLedger,
    ShardResultCache,
    task_key,
)
from repro.logs.integrity import ShardIntegrityError, sidecar_path
from repro.parallel.executor import TaskTimeout, supervise


@dataclass
class SuperviseConfig:
    """Knobs of the supervised execution path."""

    jobs: int = 0
    #: Per-shard wall-clock budget in the parallel path; ``None`` trusts
    #: workers to finish (serial execution always runs to completion).
    task_timeout_s: float | None = None
    #: Re-attempts per shard beyond the first try.
    shard_retries: int = 2
    backoff_s: float = 0.25
    max_backoff_s: float = 5.0
    #: Seed of the retry-backoff RNG (full jitter; see
    #: :func:`repro._util.full_jitter_backoff`).
    retry_seed: int = 0
    #: Load committed shards from the cache instead of re-running them.
    resume: bool = False
    #: Write the ledger and shard cache (required for later ``resume``).
    ledger: bool = True
    #: A planned :class:`~repro.inject.chaos.ChaosPlan`, or ``None``.
    chaos: object | None = None
    #: This run needs per-shard rollup payloads: cached commits from an
    #: earlier run *without* rollups are treated as cache misses (the
    #: shard re-runs and ships its cubes) instead of silently producing
    #: a fleet result whose rollups cover only some shards.
    require_rollups: bool = False


@dataclass
class SuperviseOutcome:
    """What supervised execution produced, keyed by task."""

    #: ``{task key: worker result dict}`` for every surviving shard.
    results: dict = field(default_factory=dict)
    #: Task keys in plan order (reduction order; stable across resume).
    order: list = field(default_factory=list)
    #: One dict per abandoned shard: task, cluster, shard, kind, reason,
    #: attempts, est_records.
    quarantined: list = field(default_factory=list)
    #: Task keys whose results were loaded from the shard cache.
    resumed: list = field(default_factory=list)
    retries: int = 0
    integrity_failures: int = 0


class ShardSupervisor:
    """Drive one fleet's shard tasks to commit, quarantine, or resume."""

    def __init__(self, fleet, tasks: list, config: SuperviseConfig):
        self.fleet = fleet
        self.tasks = tasks
        self.cfg = config
        self.rng = random.Random(config.retry_seed)
        self.outcome = SuperviseOutcome(order=[task_key(t) for t in tasks])
        self.ledger: FleetLedger | None = None
        self.cache: ShardResultCache | None = None
        if config.ledger:
            self.cache = ShardResultCache(
                Path(fleet.directory) / CACHE_DIR_NAME, chaos=config.chaos
            )
        self._ledger_errors = 0
        # Per-cluster synth-time record counts, for estimating what a
        # quarantined whole-cluster text task would have contributed.
        self._cluster_records = {}
        for i in range(fleet.spec.n_clusters):
            if i < len(fleet.n_errors) and fleet.n_errors[i] is not None:
                self._cluster_records[fleet.spec.cluster_name(i)] = int(
                    fleet.n_errors[i]
                )

    # ------------------------------------------------------------------
    def run(self) -> SuperviseOutcome:
        from repro import obs

        ledger_path = Path(self.fleet.directory) / LEDGER_NAME
        pending = list(self.tasks)

        if self.cfg.resume and self.cfg.ledger:
            pending = self._load_committed(ledger_path, pending)

        with obs.span(
            "fleet.supervise",
            attrs={
                "jobs": self.cfg.jobs,
                "n_tasks": len(self.tasks),
                "n_resumed": len(self.outcome.resumed),
                "chaos": getattr(
                    getattr(self.cfg.chaos, "profile", None), "name", None
                ),
            },
        ) as sp:
            if self.cfg.ledger:
                self.ledger = FleetLedger(
                    ledger_path,
                    chaos=self.cfg.chaos,
                    truncate=not self.cfg.resume,
                )
            try:
                self._append(
                    "resume" if self.cfg.resume else "plan",
                    n_tasks=len(self.tasks),
                    n_committed=len(self.outcome.resumed),
                    jobs=int(self.cfg.jobs),
                    chaos=getattr(
                        getattr(self.cfg.chaos, "profile", None), "name", None
                    ),
                    chaos_seed=getattr(self.cfg.chaos, "seed", None),
                )
                if self.cfg.jobs > 1 and len(pending) > 1:
                    self._run_parallel(pending)
                else:
                    self._run_serial(deque((t, 1, 0.0) for t in pending))
            finally:
                if self.ledger is not None:
                    self.ledger.close()
            sp.add(
                retries=self.outcome.retries,
                quarantined=len(self.outcome.quarantined),
            )
        if self.outcome.resumed:
            obs.count("fleet.resumed_shards", len(self.outcome.resumed))
        return self.outcome

    # ------------------------------------------------------------------
    def _load_committed(self, ledger_path: Path, pending: list) -> list:
        """Resume: satisfy tasks from the cache, return what remains."""
        committed = FleetLedger.committed(ledger_path)
        if not committed or self.cache is None:
            return pending
        remaining = []
        for task in pending:
            key = task_key(task)
            entry = committed.get(key)
            cached = (
                self.cache.load(key, entry.get("digest", ""))
                if entry is not None
                else None
            )
            if (
                cached is not None
                and self.cfg.require_rollups
                and cached.get("rollup") is None
            ):
                # Committed by a run that did not build rollups; this
                # one needs the shard's cubes, so the cache cannot
                # satisfy the task.
                cached = None
            if cached is None:
                # Never committed, or the cache file does not match its
                # committed digest (torn write): run it again.
                remaining.append(task)
                continue
            cached["cluster"] = task["cluster"]
            cached["shard"] = task["shard"]
            self.outcome.results[key] = cached
            self.outcome.resumed.append(key)
        return remaining

    # ------------------------------------------------------------------
    def _append(self, event: str, **fields) -> None:
        """Ledger append with bounded retry; best-effort past that.

        A full disk (real or injected ``ENOSPC``) usually clears on
        retry; if it does not, the run continues and only durability is
        lost -- dropping results because the *journal* is sick would be
        worse than finishing without one.
        """
        from repro import obs

        if self.ledger is None:
            return
        for attempt in range(1, 4):
            try:
                self.ledger.append(event, **fields)
                return
            except OSError:
                obs.count("fleet.ledger_errors")
                self._ledger_errors += 1
                if attempt < 3:
                    time.sleep(
                        full_jitter_backoff(
                            attempt,
                            self.cfg.backoff_s,
                            self.cfg.max_backoff_s,
                            self.rng,
                        )
                    )

    # ------------------------------------------------------------------
    def _prepare(self, task: dict, attempt: int, parallel: bool) -> dict:
        """Copy a task for dispatch, arming its planned chaos fault.

        Faults arm only on attempt 1: the fault model is "transient"
        (a worker killed once, a wedge that clears), so a retry of the
        victim must run clean -- that is exactly the property that
        makes ``--chaos light`` byte-identical to a clean run.
        """
        prepared = dict(task)
        chaos = self.cfg.chaos
        if chaos is not None and attempt == 1:
            fault = chaos.task_fault(task_key(task))
            if fault is not None:
                prepared["chaos_fault"] = fault
                prepared["chaos_parallel"] = parallel
                timeout = self.cfg.task_timeout_s
                prepared["chaos_wedge_s"] = (
                    2.0 * timeout if timeout else 2.0
                )
        return prepared

    # ------------------------------------------------------------------
    def _commit(self, task: dict, attempt: int, result: dict) -> None:
        key = task_key(task)
        fields = dict(
            task=key,
            attempt=attempt,
            n_errors=int(result["n_errors"]),
            n_faults=int(result["faults"].size),
            wall_s=float(result["wall_s"]),
        )
        if self.cache is not None:
            rel, digest = self.cache.save(key, result)
            fields.update(cache=rel, digest=digest)
        self._append("commit", **fields)
        self.outcome.results[key] = result

    # ------------------------------------------------------------------
    def _settle(self, task: dict, attempt: int, result, exc):
        """Commit one finished attempt, or route its failure.

        Returns the ready time of a retry (full-jitter backoff), or
        ``None`` when the task is settled: committed or quarantined.
        """
        from repro import obs

        if exc is None:
            self._commit(task, attempt, result)
            return None
        if isinstance(exc, TaskTimeout):
            exc = TimeoutError(
                f"shard exceeded --task-timeout={self.cfg.task_timeout_s}s"
            )
        key = task_key(task)
        reason = f"{type(exc).__name__}: {exc}"
        self._append("failed", task=key, attempt=attempt, error=reason[:500])
        integrity = isinstance(exc, ShardIntegrityError)
        if integrity:
            self.outcome.integrity_failures += 1
            obs.count("fleet.integrity_failures")
        if not integrity and attempt <= self.cfg.shard_retries:
            self.outcome.retries += 1
            obs.count("fleet.retries")
            delay = full_jitter_backoff(
                attempt, self.cfg.backoff_s, self.cfg.max_backoff_s, self.rng
            )
            return time.monotonic() + delay
        self._quarantine(task, attempt, reason)
        return None

    def _quarantine(self, task: dict, attempts: int, reason: str) -> None:
        from repro import obs

        key = task_key(task)
        entry = {
            "task": key,
            "cluster": task["cluster"],
            "shard": task["shard"],
            "kind": task["kind"],
            "reason": reason,
            "attempts": attempts,
            "est_records": self._estimate_records(task),
        }
        self.outcome.quarantined.append(entry)
        obs.count("fleet.quarantined")
        self._append(
            "quarantine", task=key, attempts=attempts, reason=reason[:500]
        )

    def _estimate_records(self, task: dict) -> int:
        """Best-effort count of records a quarantined shard withheld.

        Binary shards: the checksum sidecar records the *healthy* file
        size (a torn file's ``stat`` understates it), and npy overhead
        is a fixed small header.  Text tasks cover a whole cluster, so
        the synth-time count from the fleet manifest applies.  The
        estimate only feeds coverage accounting -- being a record or
        two off moves the coverage fraction, never the fault stream.
        """
        import json

        from repro.faults.types import ERROR_DTYPE

        if task["kind"] == "binary":
            path = Path(task["path"])
            size = None
            try:
                size = int(json.loads(sidecar_path(path).read_text())["size"])
            except (OSError, ValueError, KeyError):
                try:
                    size = path.stat().st_size
                except OSError:
                    return 0
            return max(0, (size - 128) // ERROR_DTYPE.itemsize)
        return self._cluster_records.get(task["cluster"], 0)

    # ------------------------------------------------------------------
    def _run_serial(self, queue: deque) -> None:
        from repro.fleet.engine import _process_shard

        while queue:
            task, attempt, ready_at = queue.popleft()
            delay = ready_at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            self._append("attempt", task=task_key(task), attempt=attempt)
            try:
                result = _process_shard(self._prepare(task, attempt, False))
            except Exception as exc:
                ready_at = self._settle(task, attempt, None, exc)
            else:
                ready_at = self._settle(task, attempt, result, None)
            if ready_at is not None:
                queue.append((task, attempt + 1, ready_at))

    # ------------------------------------------------------------------
    def _run_parallel(self, pending: list) -> None:
        """Shards on the supervised pool; leftovers finish serially."""
        from repro.fleet.engine import _process_shard

        def on_submit(task: dict, attempt: int) -> dict:
            self._append("attempt", task=task_key(task), attempt=attempt)
            return self._prepare(task, attempt, True)

        leftovers = supervise(
            _process_shard,
            pending,
            self.cfg.jobs,
            timeout_s=self.cfg.task_timeout_s,
            on_submit=on_submit,
            on_done=self._settle,
        )
        self._run_serial(deque(leftovers))
