"""Concurrent experiment execution with timeouts, retries and fallback.

Experiments are independent read-only consumers of the campaign arrays,
so a full regeneration run is embarrassingly parallel across
experiments.  The runner fans registered experiment ids out over the
supervised pool of :func:`repro.parallel.executor.supervise` (the
scheduler the fleet supervisor also runs on); each task ships only its
id string, and workers obtain the campaign either by fork inheritance
(free on Linux), by unpickling it once per worker at initialisation,
or by loading a campaign directory's binary mirrors.

Robustness model (the runner's policy; the scheduler does the rest):

- a worker that *raises* or *dies* degrades to re-running the
  experiment serially in the parent (mode ``"serial-fallback"``), with
  bounded retry-with-backoff on top; experiments still queued when a
  worker dies run in a fresh pool;
- a worker that *wedges* past the per-experiment ``timeout_s`` is
  abandoned (its slot is written off, its process terminated at
  shutdown) and the experiment is re-submitted up to ``retries`` times
  before being reported as ``timeout`` -- one stuck experiment costs
  its own result, never the whole parallel run;
- what the pool hands back (no live slot, or no pool comes up in a
  restricted environment) runs serially.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from dataclasses import dataclass
from functools import partial

from repro import obs
from repro._util import full_jitter_backoff
from repro.obs.trace import attach_tree
from repro.parallel.executor import TaskTimeout, supervise
from repro.run.report import ExperimentMetrics, RunReport

# Campaign handed to pool workers. Under the ``fork`` start method the
# worker inherits the parent's module state, so the campaign (and its
# warmed fault cache) is shared copy-on-write with no serialisation.
_WORKER_CAMPAIGN = None


def _worker_init(campaign, campaign_dir) -> None:
    """Pool initializer: bind the campaign in this worker process."""
    global _WORKER_CAMPAIGN
    if campaign is not None:
        _WORKER_CAMPAIGN = campaign
    elif campaign_dir is not None:
        from repro.logs.campaign_io import (
            campaign_from_records,
            load_campaign_records,
        )

        _WORKER_CAMPAIGN = campaign_from_records(
            load_campaign_records(campaign_dir)
        )
    else:  # pragma: no cover - defensive; triggers the serial fallback
        raise RuntimeError("worker has no campaign source")


def _worker_run(
    exp_id: str,
    min_coverage: float = 0.0,
    want_trace: bool = False,
    want_profile: bool = False,
):
    """Run one experiment in a worker.

    Returns ``(result, wall_s, obs_payload)``: the worker captures its
    own spans/metrics/profiles into a fresh store (never the state a
    fork inherited) and ships them back for the parent to merge, so
    parallel runs produce one trace tree and one registry.
    """
    from repro import experiments, obs

    t0 = time.perf_counter()
    with obs.capture(trace=want_trace) as cap:
        obs.configure(profile=want_profile)
        try:
            result = experiments.run(
                exp_id, _WORKER_CAMPAIGN, min_coverage=min_coverage
            )
        finally:
            obs.configure(profile=False)
    return result, time.perf_counter() - t0, cap.payload()


@dataclass
class ExperimentRunner:
    """Run registered experiments, optionally ``jobs``-way in parallel.

    ``jobs <= 1`` runs serially (the correctness baseline); ``jobs > 1``
    uses a process pool with serial fallback.  ``campaign_dir`` lets
    workers load the campaign from a stored directory's binary mirrors
    instead of receiving a pickled copy -- preferred under the ``spawn``
    start method where fork inheritance is unavailable.

    ``timeout_s`` bounds each experiment's wall time in the parallel
    path (a wedged worker is abandoned, not waited on); ``retries``
    bounds how often a failing or timed-out experiment is re-attempted,
    with full-jitter exponential backoff starting at ``backoff_s`` and
    capped at ``max_backoff_s`` for in-process retries (the jitter RNG
    is seeded by ``backoff_seed``, so retry schedules reproduce in
    tests).  ``min_coverage`` is forwarded to the experiment registry,
    which skips experiments whose input telemetry coverage is below it.
    """

    jobs: int = 0
    campaign_dir: str | os.PathLike | None = None
    include_extensions: bool = False
    timeout_s: float | None = None
    retries: int = 0
    backoff_s: float = 0.25
    max_backoff_s: float = 5.0
    backoff_seed: int = 0
    min_coverage: float = 0.0

    @property
    def _backoff_rng(self) -> random.Random:
        rng = getattr(self, "_backoff_rng_cached", None)
        if rng is None:
            rng = random.Random(self.backoff_seed)
            self._backoff_rng_cached = rng
        return rng

    # ------------------------------------------------------------------
    def run(self, campaign, exp_ids=None):
        """Execute experiments; returns ``(results, report)``.

        ``results`` maps exp id to :class:`ExperimentResult` in the
        requested order (experiments that raised are omitted); the
        :class:`RunReport` carries per-experiment metrics for every id,
        including failures and timeouts.
        """
        from repro import experiments

        if exp_ids is None:
            exp_ids = [
                e
                for e, _ in experiments.list_experiments(
                    include_extensions=self.include_extensions
                )
            ]
        exp_ids = list(exp_ids)
        known = dict(experiments.list_experiments(include_extensions=True))
        unknown = [e for e in exp_ids if e not in known]
        if unknown:
            raise ValueError(
                f"unknown experiment ids: {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}"
            )

        report = RunReport(
            seed=int(campaign.seed),
            scale=float(campaign.scale),
            n_errors=int(campaign.n_errors),
            jobs=int(self.jobs),
            min_coverage=float(self.min_coverage),
        )
        ingest = getattr(campaign, "ingest", None)
        if ingest:
            report.ingest = {
                family: stats.to_dict() for family, stats in ingest.items()
            }
        metrics: dict[str, ExperimentMetrics] = {}
        results: dict = {}
        worker_traces: dict[str, list] = {}

        with obs.span("run", attrs={"jobs": int(self.jobs)}) as run_sp:
            run_sp.add(experiments=len(exp_ids))
            if self.jobs > 1 and len(exp_ids) > 1:
                # Warm the coalesced fault stream once in the parent so
                # forked workers share it instead of each re-coalescing.
                with obs.span("runner.setup", transient=True) as setup_sp:
                    campaign.faults()
                report.setup_s = setup_sp.wall_s
                pending = self._run_parallel(
                    campaign, exp_ids, metrics, results, worker_traces
                )
            else:
                pending = exp_ids

            for exp_id in pending:
                mode = (
                    "serial"
                    if self.jobs <= 1 or len(exp_ids) <= 1
                    else "serial-fallback"
                )
                self._run_serial_one(campaign, exp_id, mode, metrics, results)

            # Merge child-process spans under the run span in *requested*
            # order -- never completion order -- so the trace tree shape
            # is identical between serial and parallel runs.
            for exp_id in exp_ids:
                for root in worker_traces.get(exp_id, ()):
                    attach_tree(run_sp, root)

        report.total_wall_s = run_sp.wall_s
        report.experiments = [metrics[e] for e in exp_ids if e in metrics]
        ordered = {e: results[e] for e in exp_ids if e in results}
        return ordered, report

    # ------------------------------------------------------------------
    def _run_serial_one(self, campaign, exp_id, mode, metrics, results) -> None:
        """Run one experiment in-process with bounded retry-with-backoff."""
        from repro import experiments

        attempts = 0
        while True:
            attempts += 1
            # Transient wrapper: the retry structure is environment-driven
            # noise in the trace; the experiment span inside it (opened by
            # the registry) is the stable node.
            with obs.span(
                "runner.attempt",
                transient=True,
                attrs={"exp_id": exp_id, "mode": mode, "attempt": attempts},
            ) as sp:
                try:
                    result = experiments.run(
                        exp_id, campaign, min_coverage=self.min_coverage
                    )
                except Exception as exc:
                    failure = exc
                else:
                    failure = None
            if failure is not None:
                if attempts <= self.retries:
                    # Full jitter (shared with the fleet supervisor):
                    # decorrelates experiments that failed together and
                    # caps the worst-case sleep however high the retry
                    # budget goes.
                    time.sleep(
                        full_jitter_backoff(
                            attempts,
                            self.backoff_s,
                            self.max_backoff_s,
                            self._backoff_rng,
                        )
                    )
                    continue
                obs.observe(f"experiment.wall_s.{exp_id}", sp.wall_s)
                metrics[exp_id] = ExperimentMetrics.from_error(
                    exp_id, sp.wall_s, mode, failure, attempts=attempts
                )
                return
            results[exp_id] = result
            obs.observe(f"experiment.wall_s.{exp_id}", sp.wall_s)
            metrics[exp_id] = ExperimentMetrics.from_result(
                result, sp.wall_s, mode, attempts=attempts
            )
            return

    # ------------------------------------------------------------------
    def _run_parallel(
        self, campaign, exp_ids, metrics, results, worker_traces
    ) -> list:
        """Fan out over the supervised pool; returns ids needing a serial run.

        The scheduler is :func:`repro.parallel.executor.supervise`; this
        method is the runner's policy: a worker that raised or died
        sends its experiment to the serial fallback, a timeout is
        re-submitted up to ``retries`` times and then reported.
        """
        if multiprocessing.get_start_method() == "fork":
            # Fork shares the campaign (initargs are not serialised).
            initargs = (campaign, None)
        elif self.campaign_dir is not None:
            initargs = (None, str(self.campaign_dir))
        else:
            initargs = (campaign, None)  # pickled once per worker
        fallback: list = []

        def on_done(exp_id, attempt, out, exc):
            if isinstance(exc, TaskTimeout):
                if attempt <= self.retries:
                    return 0.0  # re-submit at once
                metrics[exp_id] = ExperimentMetrics.from_error(
                    exp_id,
                    self.timeout_s,
                    "parallel",
                    TimeoutError(f"experiment exceeded --timeout={self.timeout_s}s"),
                    attempts=attempt,
                    timed_out=True,
                )
            elif exc is not None:
                # Worker raised or died: the serial fallback (with its
                # own retry budget) picks this experiment up.
                fallback.append(exp_id)
            else:
                result, wall, payload = out
                roots = obs.merge_payload(payload)
                if roots:
                    worker_traces[exp_id] = roots
                results[exp_id] = result
                obs.observe(f"experiment.wall_s.{exp_id}", wall)
                metrics[exp_id] = ExperimentMetrics.from_result(
                    result, wall, "parallel", attempts=attempt
                )
            return None

        leftovers = supervise(
            partial(
                _worker_run,
                min_coverage=self.min_coverage,
                want_trace=obs.tracing_enabled(),
                want_profile=obs.profiling_enabled(),
            ),
            exp_ids,
            self.jobs,
            timeout_s=self.timeout_s,
            initializer=_worker_init,
            initargs=initargs,
            on_done=on_done,
        )
        return fallback + [exp_id for exp_id, _, _ in leftovers]
