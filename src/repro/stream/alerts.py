"""Rule engine over live streaming state, emitting JSONL alert events.

Five rules, all evaluated per consumed batch and all deterministic in
the record stream (so an interrupted-and-resumed pipeline emits exactly
the alert stream an uninterrupted run would have):

``new_fault``
    A coalescing group -- one inferred fault -- was seen for the first
    time.  Carries the fault's initial mode classification.
``mode_transition``
    New evidence moved an existing fault to a different mode (e.g. a
    single-bit fault revealing itself as single-column).  Evaluated at
    batch granularity: several intermediate flips inside one batch
    collapse into one transition, deterministically.
``ce_rate``
    A node crossed the correctable-error-count threshold within an
    epoch-aligned time window.  Fires once per (node, window), stamped
    with the timestamp of the record that crossed the threshold.
``uncorrectable``
    A HET record with NON-RECOVERABLE severity arrived; one alert per
    record (these are the events the paper ties to job kills).
``sensor_dropout``
    The fleet-wide BMC sample timestamp stream jumped by more than
    ``dropout_min_gap`` cadences -- the streaming analogue of
    :func:`repro.logs.bmc.sensor_dropout_windows`, evaluated against a
    running high-water mark.

Alert events are JSON objects with a fixed envelope (``seq``, ``rule``,
``time``, ``batch``, ``node``, ``detail``) validated by
``schemas/alerts.schema.json``; :class:`AlertSink` appends them to a
JSONL file and its byte offset + sequence number are checkpointed, so
resume truncates any alerts a dying process wrote past its last
checkpoint instead of duplicating them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro._util import fsync_dir, fsync_file, mismatch
from repro.faults.types import FaultMode
from repro.logs.bmc import dropout_gaps
from repro.stream.checkpoint import CheckpointError
from repro.stream.online_coalesce import OnlineCoalescer
from repro.synth.het import EVENT_TYPES

#: Rule names, in the order they are documented.  ``predicted_failure``
#: is raised by the optional :class:`~repro.predict.score.OnlineScorer`
#: (``repro stream --predict``), not by the rule engine below; it rides
#: the same sink and envelope.
RULES = (
    "new_fault", "mode_transition", "ce_rate", "uncorrectable",
    "sensor_dropout", "predicted_failure",
)


@dataclass(frozen=True)
class AlertRules:
    """Thresholds for the alert rule catalog."""

    #: CE records per node per window that trip the ``ce_rate`` rule.
    ce_rate_threshold: int = 100
    #: Width of the epoch-aligned ``ce_rate`` window, seconds.
    ce_rate_window_s: float = 3600.0
    #: Expected BMC sample cadence, seconds.
    dropout_cadence_s: float = 60.0
    #: Gap (in cadences) beyond which silence is a dropout.
    dropout_min_gap: float = 3.0

    def to_dict(self) -> dict:
        return {
            "ce_rate_threshold": self.ce_rate_threshold,
            "ce_rate_window_s": self.ce_rate_window_s,
            "dropout_cadence_s": self.dropout_cadence_s,
            "dropout_min_gap": self.dropout_min_gap,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AlertRules":
        return cls(
            ce_rate_threshold=int(d["ce_rate_threshold"]),
            ce_rate_window_s=float(d["ce_rate_window_s"]),
            dropout_cadence_s=float(d["dropout_cadence_s"]),
            dropout_min_gap=float(d["dropout_min_gap"]),
        )


_ALERTS_HINT = (
    "restore the alerts file this stream wrote, or start over with "
    "--no-resume"
)


class AlertSink:
    """Append-only JSONL alert writer with checkpointable position.

    ``seq`` numbers are assigned here, monotonically; ``offset`` is the
    byte length of everything emitted so far.  On resume the file is
    truncated back to the checkpointed offset, discarding alerts
    written after the last checkpoint (they will be re-derived), which
    is what makes the stream exactly-once end to end.

    Every :meth:`emit` fsyncs what it appended (and the directory, when
    it created the file) before returning, so the bytes a checkpoint
    counts in ``offset`` are durable before that checkpoint is: after a
    power cut the file is never shorter than the offset resume expects.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.seq = 0
        self.offset = 0

    def emit(self, alerts: list[dict]) -> None:
        if not alerts:
            return
        created = not self.path.exists()
        with open(self.path, "ab") as fh:
            if fh.tell() != self.offset:
                raise mismatch(
                    CheckpointError,
                    f"{self.path}: alerts file size (another writer? "
                    "refusing to interleave)",
                    fh.tell(), f"{self.offset} bytes emitted by this stream",
                    _ALERTS_HINT,
                )
            for alert in alerts:
                doc = {"seq": self.seq, **alert}
                payload = (
                    json.dumps(doc, separators=(",", ":")) + "\n"
                ).encode("utf-8")
                fh.write(payload)
                self.offset += len(payload)
                self.seq += 1
            fsync_file(fh)
        if created:
            fsync_dir(self.path.parent)

    def to_state(self) -> dict:
        return {"seq": self.seq, "offset": self.offset}

    def restore(self, state: dict) -> None:
        self.seq = int(state["seq"])
        self.offset = int(state["offset"])
        if self.offset == 0:
            # Nothing was durably emitted; start the file over.
            if self.path.exists():
                os.truncate(self.path, 0)
            return
        if not self.path.exists():
            raise FileNotFoundError(
                f"{self.path}: alerts file missing but checkpoint says "
                f"{self.offset} bytes were emitted"
            )
        size = self.path.stat().st_size
        if size < self.offset:
            raise mismatch(
                CheckpointError,
                f"{self.path}: alerts file size (shorter than the checkpoint "
                "says)",
                size, f"at least {self.offset} (the checkpointed offset)",
                _ALERTS_HINT,
            )
        if size > self.offset:
            os.truncate(self.path, self.offset)


class AlertEngine:
    """Evaluates the rule catalog against each consumed batch."""

    def __init__(
        self,
        coalescer: OnlineCoalescer,
        rules: AlertRules | None = None,
    ):
        self.coalescer = coalescer
        self.rules = rules or AlertRules()
        #: Live CE count per (node, window index).
        self._ce_counts: dict[tuple[int, int], int] = {}
        #: (node, window index) pairs whose ce_rate alert already fired.
        self._ce_fired: set[tuple[int, int]] = set()
        #: High-water mark of distinct BMC sample timestamps.
        self._sensor_watermark: float | None = None
        #: (node, window index) pairs counted since :meth:`clear_changes`.
        self._changed: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    def observe_errors(
        self,
        errors: np.ndarray,
        created: list[tuple],
        touched: list[tuple],
        batch: int,
    ) -> list[dict]:
        """new_fault + mode_transition + ce_rate for one CE batch.

        ``created``/``touched`` are the coalescer's return for this
        same batch, which must already have been folded in.
        """
        alerts: list[dict] = []
        if touched:
            created_set = set(created)
            modes = self.coalescer.classify_keys(touched)
            groups = self.coalescer._groups
            for key in touched:
                g = groups[key]
                mode = modes[key]
                if key in created_set:
                    g.mode = mode
                    alerts.append(
                        {
                            "rule": "new_fault",
                            "time": g.first_time,
                            "batch": batch,
                            "node": int(key[0]),
                            "detail": {
                                "slot": int(key[1]),
                                "rank": int(key[2]),
                                "bank": int(key[3]) if len(key) > 3 else None,
                                "mode": FaultMode(mode).label,
                            },
                        }
                    )
                elif mode != g.mode:
                    alerts.append(
                        {
                            "rule": "mode_transition",
                            "time": g.last_time,
                            "batch": batch,
                            "node": int(key[0]),
                            "detail": {
                                "slot": int(key[1]),
                                "rank": int(key[2]),
                                "bank": int(key[3]) if len(key) > 3 else None,
                                "from_mode": FaultMode(g.mode).label,
                                "to_mode": FaultMode(mode).label,
                            },
                        }
                    )
                    g.mode = mode
        alerts.extend(self._ce_rate_alerts(errors, batch))
        return alerts

    def _ce_rate_alerts(self, errors: np.ndarray, batch: int) -> list[dict]:
        if errors.size == 0:
            return []
        window = self.rules.ce_rate_window_s
        threshold = self.rules.ce_rate_threshold
        nodes = errors["node"].astype(np.int64)
        buckets = np.floor(errors["time"] / window).astype(np.int64)
        # Stable sort keeps file order within each (node, bucket)
        # segment, so "the record that crossed the threshold" is exact.
        order = np.lexsort((buckets, nodes))
        sn, sb = nodes[order], buckets[order]
        seg = np.ones(sn.size, dtype=bool)
        seg[1:] = (sn[1:] != sn[:-1]) | (sb[1:] != sb[:-1])
        starts = np.flatnonzero(seg)
        counts = np.diff(np.append(starts, sn.size))
        times = errors["time"][order]
        alerts = []
        for s, c in zip(starts.tolist(), counts.tolist()):
            key = (int(sn[s]), int(sb[s]))
            prev = self._ce_counts.get(key, 0)
            self._ce_counts[key] = prev + c
            self._changed.add(key)
            if key in self._ce_fired or prev + c < threshold:
                continue
            # The (threshold - prev)-th record of this segment crossed.
            t_cross = float(times[s + (threshold - prev) - 1])
            self._ce_fired.add(key)
            alerts.append(
                {
                    "rule": "ce_rate",
                    "time": t_cross,
                    "batch": batch,
                    "node": key[0],
                    "detail": {
                        "window_start": key[1] * window,
                        "window_s": window,
                        "count": prev + c,
                        "threshold": threshold,
                    },
                }
            )
        return alerts

    def observe_het(self, events: np.ndarray, batch: int) -> list[dict]:
        """One ``uncorrectable`` alert per NON-RECOVERABLE HET record."""
        if events.size == 0:
            return []
        sel = np.flatnonzero(events["non_recoverable"])
        alerts = []
        for i in sel.tolist():
            rec = events[i]
            event = int(rec["event"])
            alerts.append(
                {
                    "rule": "uncorrectable",
                    "time": float(rec["time"]),
                    "batch": batch,
                    "node": int(rec["node"]),
                    "detail": {"event": event, "event_name": EVENT_TYPES[event]},
                }
            )
        return alerts

    def observe_sensors(self, samples: np.ndarray, batch: int) -> list[dict]:
        """``sensor_dropout`` alerts from the timestamp high-water mark."""
        if samples.size == 0:
            return []
        starts, ends, self._sensor_watermark = dropout_gaps(
            samples["time"],
            self.rules.dropout_min_gap * self.rules.dropout_cadence_s,
            self._sensor_watermark,
        )
        return [
            {
                "rule": "sensor_dropout",
                "time": end,
                "batch": batch,
                "node": -1,
                "detail": {"gap_start": start, "gap_end": end, "gap_s": end - start},
            }
            for start, end in zip(starts.tolist(), ends.tolist())
        ]

    # -- checkpoint (de)serialisation ----------------------------------
    def to_state(self, changed: bool = False) -> dict:
        """Checkpoint state; ``changed`` keeps only the windows counted
        since :meth:`clear_changes` (a journal delta)."""
        # A window fires only once counted, so its fired row rides with
        # its count row.
        keys = sorted(self._changed if changed else self._ce_counts)
        return {
            "rules": self.rules.to_dict(),
            "ce_counts": [[k[0], k[1], self._ce_counts[k]] for k in keys],
            "ce_fired": [list(k) for k in keys if k in self._ce_fired],
            "sensor_watermark": self._sensor_watermark,
        }

    def clear_changes(self) -> None:
        """Mark the current state as checkpointed."""
        self._changed.clear()

    def restore(self, state: dict) -> None:
        self.rules = AlertRules.from_dict(state["rules"])
        self._ce_counts = {
            (int(n), int(b)): int(c) for n, b, c in state["ce_counts"]
        }
        self._ce_fired = {(int(n), int(b)) for n, b in state["ce_fired"]}
        w = state["sensor_watermark"]
        self._sensor_watermark = None if w is None else float(w)
        self._changed = set()


def read_alerts(path: str | os.PathLike) -> list[dict]:
    """Parse a JSONL alert stream back into a list of alert dicts."""
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
