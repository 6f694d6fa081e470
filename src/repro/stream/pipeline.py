"""The streaming loop: tail files, coalesce, alert, checkpoint.

A :class:`StreamPipeline` owns one :class:`~repro.stream.tailer.LogTailer`
per telemetry file, one :class:`~repro.stream.online_coalesce.OnlineCoalescer`
for the CE family, an :class:`~repro.stream.alerts.AlertEngine` with its
JSONL sink, and a :class:`~repro.stream.checkpoint.CheckpointStore`.
One :meth:`step` polls every tailer once, folds whatever arrived into
the live state, evaluates the alert rules, and periodically checkpoints
-- that is the unit ``--max-batches`` counts and the granularity at
which kill/resume is exact.

The pipeline retains no raw record arrays: CE batches fold into the
coalescer, HET and sensor batches exist only long enough for their
rules to see them, and inventory rows fold into the live snapshot
dict.  Memory therefore scales with distinct faults, nodes and
inventory positions, not telemetry volume.

Everything is instrumented with the :mod:`repro.obs` layer:
``stream.poll`` / ``stream.<family>`` spans, per-family line counters
and lag gauges, and per-rule alert counters.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from repro._util import mismatch
from repro.faults.coalesce import CoalesceOptions
from repro.logs.ingest import IngestPolicy
from repro.query.rollup import RollupConfig, RollupStore
from repro.stream.alerts import AlertEngine, AlertRules, AlertSink
from repro.stream.checkpoint import CheckpointError, CheckpointStore
from repro.stream.online_coalesce import OnlineCoalescer
from repro.stream.tailer import FAMILY_SPECS, LogTailer, spec_for_path

#: Family polling order (fixed so batch indices are deterministic).
_FAMILY_ORDER = ("errors", "het", "sensors", "inventory")


def discover_files(directory: str | Path) -> list[Path]:
    """Tailable telemetry files in a campaign directory, fixed order."""
    directory = Path(directory)
    out: list[Path] = []
    for name in ("ce.log", "het.log"):
        path = directory / name
        if path.exists():
            out.append(path)
    for pattern in ("bmc*", "inventory*"):
        for path in sorted(directory.glob(pattern)):
            if path.name.endswith(".quarantine") or not path.is_file():
                continue
            out.append(path)
    return out


class StreamPipeline:
    """Incremental telemetry pipeline over a set of growing log files.

    Parameters
    ----------
    directory:
        Campaign directory to discover telemetry files in (``ce.log``,
        ``het.log``, ``bmc*``, ``inventory*``).  Mutually additive with
        ``files``.
    files:
        Explicit file paths; each must map to a known family by name.
    policy:
        Ingest policy applied to every family.
    checkpoint_dir:
        Where ``checkpoint.json`` lives.  When it already holds a
        checkpoint, the pipeline resumes from it (``resume=False``
        starts over instead).
    alerts_out:
        JSONL file to append alert events to (None: alerts are still
        evaluated and counted, just not persisted).
    batch_bytes:
        Bytes consumed per file per step.  Resume replays identical
        batches only when this matches the interrupted run, so it is
        recorded in -- and validated against -- the checkpoint.
    checkpoint_every:
        Checkpoint after every N consuming steps.
    rollup_dir:
        Directory for versioned rollup-cube snapshots (DESIGN.md §14).
        Every CE batch folds into the cubes as it is consumed; each
        checkpoint first snapshots the cubes, then records the snapshot
        version, so a resumed pipeline continues from exactly the cube
        state its checkpoint describes.
    rollup_config:
        Cube geometry; also enables in-memory rollups without a
        ``rollup_dir`` (nothing is persisted).
    predict_model:
        A loaded :class:`~repro.predict.model.Model`; mounts an
        :class:`~repro.predict.score.OnlineScorer` that re-scores every
        CE batch's nodes and raises ``predicted_failure`` alerts
        through the same exactly-once sink as the rule engine.  Its
        full feature state rides in the checkpoint, so kill/resume
        reproduces scores byte-identically.
    predict_rearm_s:
        Per-node re-arm window for ``predicted_failure`` alerts
        (event-time seconds).
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        files: list | None = None,
        policy: IngestPolicy | str = IngestPolicy.REPAIR,
        checkpoint_dir: str | Path | None = None,
        alerts_out: str | Path | None = None,
        batch_bytes: int = 1 << 20,
        checkpoint_every: int = 1,
        rules: AlertRules | None = None,
        coalesce_options: CoalesceOptions | None = None,
        quarantine: bool = True,
        fast: bool = True,
        resume: bool = True,
        rollup_dir: str | Path | None = None,
        rollup_config: RollupConfig | None = None,
        predict_model=None,
        predict_rearm_s: float | None = None,
    ):
        if directory is None and not files:
            raise ValueError("need a directory or an explicit file list")
        self.policy = IngestPolicy.coerce(policy)
        self.batch_bytes = int(batch_bytes)
        self.checkpoint_every = max(int(checkpoint_every), 1)

        paths: list[Path] = []
        if directory is not None:
            paths.extend(discover_files(directory))
        for f in files or []:
            p = Path(f)
            if p not in paths:
                paths.append(p)
        by_family: dict[str, list[Path]] = {f: [] for f in _FAMILY_ORDER}
        for p in paths:
            spec = spec_for_path(p)
            if spec is None:
                raise ValueError(
                    f"{p}: file name does not identify a telemetry family "
                    "(expected ce.log, het.log, bmc*, or inventory*)"
                )
            by_family[spec.family].append(p)
        self.tailers: list[LogTailer] = [
            LogTailer(
                p, FAMILY_SPECS[family], self.policy,
                quarantine=quarantine, batch_bytes=self.batch_bytes,
                fast=fast,
            )
            for family in _FAMILY_ORDER
            for p in by_family[family]
        ]
        if not self.tailers:
            raise ValueError(
                f"{directory}: no tailable telemetry files found"
            )

        self.coalescer = OnlineCoalescer(coalesce_options)
        self.engine = AlertEngine(self.coalescer, rules)
        self.sink = AlertSink(alerts_out) if alerts_out is not None else None
        self.store = (
            CheckpointStore(checkpoint_dir)
            if checkpoint_dir is not None else None
        )
        self.rollup_dir = None if rollup_dir is None else Path(rollup_dir)
        self.rollups: RollupStore | None = None
        if rollup_dir is not None or rollup_config is not None:
            self.rollups = RollupStore(rollup_config)
            self.rollups.source = "stream"
            self.rollups.policy = self.policy.value
        self._rollup_version: int | None = None
        self.scorer = None
        if predict_model is not None:
            from repro.predict.score import OnlineScorer

            kwargs = {}
            if predict_rearm_s is not None:
                kwargs["rearm_s"] = predict_rearm_s
            self.scorer = OnlineScorer(predict_model, **kwargs)
        #: Live inventory view: {date: {(component, node, pos): serial}}.
        self.snapshots: dict[str, dict] = {}
        self.batches = 0
        self.alerts_total = 0

        if self.store is not None and resume:
            state = self.store.load()
            if state is not None:
                self._restore(state)
        elif self.sink is not None and self.sink.path.exists():
            # Fresh start: do not append after a previous run's alerts.
            self.sink.restore({"seq": 0, "offset": 0})

    # ------------------------------------------------------------------
    def step(self, eof_flush: bool = False) -> dict:
        """Poll every tailer once; returns a progress summary.

        ``progressed`` is False when no tailer consumed anything, in
        which case nothing changed (no batch counted, no checkpoint).
        """
        from repro import obs

        # Test/CI knob: slow every batch down so an external kill -9
        # lands mid-stream deterministically (fleet has the same knob).
        try:
            delay = float(os.environ.get("ASTRA_MEMREPRO_STREAM_DELAY_S", 0))
        except ValueError:
            delay = 0.0
        if delay > 0:
            time.sleep(delay)

        alerts: list[dict] = []
        consumed: dict[str, int] = {}
        progressed = False
        batch_id = self.batches
        with obs.span("stream.poll", transient=True):
            for tailer in self.tailers:
                family = tailer.spec.family
                with obs.span(f"stream.{family}", transient=True):
                    records = tailer.poll(eof_flush)
                if records is None:
                    continue
                progressed = True
                n = self._dispatch(family, records, alerts, batch_id)
                consumed[family] = consumed.get(family, 0) + n
                obs.count(f"stream.{family}.lines", n)
                obs.gauge(f"stream.{family}.lag_bytes", tailer.lag_bytes())
        if not progressed:
            return {"progressed": False, "consumed": {}, "alerts": []}
        if self.sink is not None:
            self.sink.emit(alerts)
        self.alerts_total += len(alerts)
        obs.count("stream.batches", 1)
        for alert in alerts:
            obs.count(f"stream.alerts.{alert['rule']}", 1)
        self.batches += 1
        if self.store is not None and self.batches % self.checkpoint_every == 0:
            self.checkpoint()
        return {"progressed": True, "consumed": consumed, "alerts": alerts}

    def _dispatch(
        self, family: str, records, alerts: list[dict], batch_id: int
    ) -> int:
        if family == "errors":
            created, touched = self.coalescer.add(records)
            if self.rollups is not None:
                self.rollups.update(records)
            alerts.extend(
                self.engine.observe_errors(records, created, touched, batch_id)
            )
            if self.scorer is not None:
                alerts.extend(
                    self.scorer.observe_errors(records, self.coalescer, batch_id)
                )
            return int(records.size)
        if family == "het":
            alerts.extend(self.engine.observe_het(records, batch_id))
            if self.scorer is not None:
                self.scorer.observe_het(records)
            return int(records.size)
        if family == "sensors":
            if self.rollups is not None:
                self.rollups.observe_sensors(records)
            alerts.extend(self.engine.observe_sensors(records, batch_id))
            if self.scorer is not None:
                self.scorer.observe_sensors(records)
            return int(records.size)
        # inventory: batches are either _SnapshotBatch (bulk apply) or
        # plain row lists, exactly as batch ingest consumes them.
        n = 0
        for batch in records:
            n += len(batch)
            if hasattr(batch, "apply"):
                batch.apply(self.snapshots)
            else:
                for date, key, serial in batch:
                    self.snapshots.setdefault(date, {})[key] = serial
        return n

    def run(
        self,
        max_batches: int | None = None,
        follow: bool = False,
        poll_interval: float = 1.0,
        progress=None,
    ) -> dict:
        """Drive steps until drained (or ``max_batches`` / forever).

        Without ``follow``, stops once no tailer makes progress, then
        performs one final EOF-flush step to consume any unterminated
        final lines.  With ``follow``, idles ``poll_interval`` seconds
        between empty polls and runs until interrupted (or until
        ``max_batches`` consuming steps happened).
        """
        steps = 0
        flushed = False
        while True:
            if max_batches is not None and steps >= max_batches:
                break
            summary = self.step(eof_flush=False)
            if summary["progressed"]:
                steps += 1
                if progress is not None:
                    progress(self, summary)
                continue
            if follow:
                try:
                    time.sleep(poll_interval)
                except KeyboardInterrupt:  # pragma: no cover
                    break
                continue
            # Drained: flush the (possibly unterminated) tail once.
            if flushed:
                break
            summary = self.step(eof_flush=True)
            flushed = True
            if summary["progressed"]:
                steps += 1
                if progress is not None:
                    progress(self, summary)
        return {"steps": steps}

    # ------------------------------------------------------------------
    def final_ingest(self) -> dict:
        """{family: IngestStats} as batch ingest would report them."""
        out = {}
        for tailer in self.tailers:
            stats = tailer.final_stats()
            if tailer.spec.family in out:
                # Multiple files of one family: merge the accounting.
                agg = out[tailer.spec.family]
                agg.seen += stats.seen
                agg.parsed += stats.parsed
                agg.repaired += stats.repaired
                agg.quarantined += stats.quarantined
                agg.fast_lines += stats.fast_lines
            else:
                out[tailer.spec.family] = stats
        return out

    def finalize(self) -> dict:
        """Flush sidecars, publish final stats, checkpoint, summarise."""
        from repro import obs

        for tailer in self.tailers:
            tailer.flush_quarantine()
        ingest = self.final_ingest()
        for stats in ingest.values():
            obs.record_ingest(stats)
        if self.rollups is not None:
            self.rollups.set_faults(self.coalescer.faults())
        if self.store is not None:
            self.checkpoint()
        elif self.rollups is not None and self.rollup_dir is not None:
            self._rollup_version = self.rollups.snapshot(self.rollup_dir)
        return {
            "batches": self.batches,
            "alerts": self.alerts_total,
            "faults": int(self.coalescer.n_groups),
            "mode_counts": self.coalescer.mode_counts(),
            "ingest": {f: s.to_dict() for f, s in ingest.items()},
            "rollups": None if self.rollups is None else {
                "errors": int(self.rollups.errors_seen),
                "faults": int(self.rollups.n_faults),
                "version": self._rollup_version,
                "dir": (
                    None if self.rollup_dir is None else str(self.rollup_dir)
                ),
            },
            "predictor": None if self.scorer is None else {
                "model_id": self.scorer.model.model_id,
                "scored_batches": int(self.scorer.scored_batches),
            },
        }

    # -- checkpoint (de)serialisation ----------------------------------
    def checkpoint(self) -> None:
        """Snapshot the rollups first, then the checkpoint naming them.

        Ordering is the crash-consistency contract: the cube snapshot
        version N is durable *before* the checkpoint that references it
        is written, and snapshot N-1 is retained, so whatever checkpoint
        survives a crash always names an intact snapshot.
        """
        state = self._state()
        if self.rollups is not None and self.rollup_dir is not None:
            self.rollups.set_faults(self.coalescer.faults())
            version = self.rollups.snapshot(self.rollup_dir)
            self._rollup_version = version
            state["rollups"] = {
                "dir": str(self.rollup_dir),
                "version": version,
                "errors_seen": int(self.rollups.errors_seen),
            }
        self.store.save(state)

    def _state(self) -> dict:
        lines_seen = sum(t.stats.seen for t in self.tailers)
        return {
            "policy": self.policy.value,
            "batch_bytes": self.batch_bytes,
            "batches": self.batches,
            "alerts_total": self.alerts_total,
            "files": [t.to_state() for t in self.tailers],
            "coalescer": self.coalescer.to_state(),
            "alert_engine": self.engine.to_state(),
            "alert_sink": None if self.sink is None else self.sink.to_state(),
            "snapshots": [
                [date, [[c, n, p, s] for (c, n, p), s in sorted(snap.items())]]
                for date, snap in sorted(self.snapshots.items())
            ],
            "metrics": {
                "lines_seen": lines_seen,
                "alerts_emitted": self.alerts_total,
                "faults_live": int(self.coalescer.n_groups),
            },
            "rollups": None,
            "predictor": (
                None if self.scorer is None else self.scorer.to_state()
            ),
        }

    def _restore(self, state: dict) -> None:
        if state["policy"] != self.policy.value:
            raise mismatch(
                CheckpointError, "checkpoint policy", repr(state["policy"]),
                repr(self.policy.value),
                f"rerun with --ingest-policy {state['policy']}, or start "
                "over with --no-resume",
            )
        if int(state["batch_bytes"]) != self.batch_bytes:
            raise mismatch(
                CheckpointError, "checkpoint batch_bytes",
                state["batch_bytes"],
                f"{self.batch_bytes} (batch boundaries would diverge)",
                f"rerun with --batch-bytes {state['batch_bytes']}, or start "
                "over with --no-resume",
            )
        by_path = {str(t.path): t for t in self.tailers}
        for file_state in state["files"]:
            tailer = by_path.get(file_state["path"])
            if tailer is None:
                raise CheckpointError(
                    f"checkpoint tracks {file_state['path']!r} which this "
                    "pipeline does not tail"
                )
            tailer.restore(file_state)
        self.coalescer = OnlineCoalescer.from_state(state["coalescer"])
        self.engine.coalescer = self.coalescer
        self.engine.restore(state["alert_engine"])
        if self.sink is not None and state["alert_sink"] is not None:
            self.sink.restore(state["alert_sink"])
        self.snapshots = {
            date: {(c, int(n), int(p)): s for c, n, p, s in rows}
            for date, rows in state["snapshots"]
        }
        self.batches = int(state["batches"])
        self.alerts_total = int(state["alerts_total"])
        self._restore_rollups(state.get("rollups"))
        self._restore_predictor(state.get("predictor"))

    def _restore_rollups(self, saved: dict | None) -> None:
        if self.rollups is None:
            if saved is not None:
                raise mismatch(
                    CheckpointError, "checkpoint rollup",
                    f"rollup snapshot version {saved['version']} "
                    f"(dir {saved['dir']!r})",
                    "none",
                    f"resume with --rollups-dir {saved['dir']} or start "
                    "over with --no-resume",
                )
            return
        if saved is None:
            raise mismatch(
                CheckpointError, "checkpoint rollup",
                "no rollup snapshot in the checkpoint",
                f"one for {self.rollup_dir}",
                "resume without --rollups-dir, or start over with "
                "--no-resume",
            )
        directory = self.rollup_dir if self.rollup_dir is not None \
            else Path(saved["dir"])
        loaded = RollupStore.load(
            directory, version=int(saved["version"]),
            config=self.rollups.config,
        )
        if loaded.errors_seen != self.coalescer.errors_seen:
            raise mismatch(
                CheckpointError, "checkpoint rollup",
                f"snapshot version {saved['version']} holding "
                f"{loaded.errors_seen} errors",
                f"{self.coalescer.errors_seen} (the coalescer's)",
                "the rollup directory belongs to a different run -- start "
                "over with --no-resume",
            )
        loaded.source = "stream"
        loaded.policy = self.policy.value
        self.rollups = loaded
        self._rollup_version = int(saved["version"])

    def _restore_predictor(self, saved: dict | None) -> None:
        if self.scorer is None:
            if saved is not None:
                raise mismatch(
                    CheckpointError, "checkpoint predictor",
                    f"scorer state for model {saved['model_id']}", "none",
                    "resume with --predict and the same --model, or start "
                    "over with --no-resume",
                )
            return
        if saved is None:
            raise mismatch(
                CheckpointError, "checkpoint predictor",
                "no scorer state in the checkpoint",
                f"model {self.scorer.model.model_id}",
                "resume without --predict, or start over with --no-resume",
            )
        from repro.predict.errors import PredictError

        try:
            self.scorer.restore(saved)
        except PredictError as exc:
            # Same found/expected + hint text, surfaced through the
            # checkpoint error type every resume caller already handles.
            raise CheckpointError(str(exc)) from exc


def faults_snapshot(pipeline: StreamPipeline) -> np.ndarray:
    """The pipeline's live fault array (batch-identical on completion)."""
    return pipeline.coalescer.faults()
