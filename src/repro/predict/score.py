"""Scoring: one-shot over a campaign, or batch-by-batch in the stream.

Both paths share :class:`~repro.predict.features.FeatureState`, so a
node's score at a given instant is the same number whether it was
computed offline after the fact or live as the records streamed in --
the differential tests hold the two byte-identical.

:class:`OnlineScorer` is the piece the stream pipeline mounts behind
``repro stream --predict``: after each CE batch folds into the
coalescer, the nodes that batch touched are re-scored at the current
event watermark and any score at or above the model's operating point
raises a ``predicted_failure`` alert through the existing exactly-once
sink.  A per-node re-arm window (event-time based, so kill/resume
cannot double-fire) keeps a smouldering node from alerting on every
batch.
"""

from __future__ import annotations

import numpy as np

from repro._util import DAY_S, mismatch
from repro.predict.errors import PredictError
from repro.predict.features import FeatureConfig, FeatureState
from repro.predict.model import Model

#: Chunk size for parallel one-shot scoring.
_CHUNK_NODES = 256

#: Module-global context for pool workers (fork inherits it); tasks
#: themselves stay tiny (node-id lists).
_CTX: tuple | None = None


def _score_chunk(nodes: list) -> np.ndarray:
    state, coalescer, model, at = _CTX
    return model.score(state.extract(nodes, coalescer, at=at))


def score_records(
    errors: np.ndarray,
    het: np.ndarray,
    model: Model,
    at: float | None = None,
    jobs: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Score every CE-active node of a record set at instant ``at``.

    Returns ``(nodes, scores)`` with nodes ascending.  ``jobs`` only
    chunks the feature-extraction work; scores are row-independent, so
    the output is byte-identical for any ``jobs`` value.
    """
    global _CTX
    from repro.stream.online_coalesce import OnlineCoalescer
    from repro.parallel.executor import map_tasks

    config = FeatureConfig(window_s=model.window_s)
    state = FeatureState(config)
    coalescer = OnlineCoalescer()
    if at is not None:
        errors = errors[errors["time"] <= at]
        het = het[het["time"] <= at]
    if errors.size:
        state.fold_errors(errors)
        coalescer.add(errors)
    if het.size:
        state.fold_het(het)

    nodes = state.nodes_seen
    if not nodes:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
    model.check_nodes(nodes)
    chunks = [
        nodes[i : i + _CHUNK_NODES]
        for i in range(0, len(nodes), _CHUNK_NODES)
    ]
    _CTX = (state, coalescer, model, at)
    try:
        parts = map_tasks(_score_chunk, chunks, jobs)
    finally:
        _CTX = None
    return np.asarray(nodes, dtype=np.int64), np.concatenate(parts)


class OnlineScorer:
    """Live batch scoring + ``predicted_failure`` alerts for the stream."""

    def __init__(
        self,
        model: Model,
        rearm_s: float = DAY_S,
    ):
        self.model = model
        self.rearm_s = float(rearm_s)
        self.state = FeatureState(FeatureConfig(window_s=model.window_s))
        #: node -> re-arm bucket of its last fired alert.
        self._fired: dict[int, int] = {}
        #: Nodes whose ``_fired`` entry changed since :meth:`clear_changes`.
        self._changed: set[int] = set()
        self.scored_batches = 0

    # ------------------------------------------------------------------
    def observe_errors(
        self, errors: np.ndarray, coalescer, batch: int
    ) -> list[dict]:
        """Fold a CE batch, re-score the touched nodes, emit alerts.

        ``coalescer`` is the pipeline's own (already holding this
        batch), so spread features come for free.
        """
        if errors.size == 0:
            return []
        self.state.fold_errors(errors)
        nodes = np.unique(errors["node"]).astype(np.int64)
        self.model.check_nodes(nodes)
        at = self.state.watermark
        scores = self.model.score(
            self.state.extract(nodes.tolist(), coalescer, at=at)
        )
        self.scored_batches += 1
        bucket = int(np.floor(at / self.rearm_s))
        alerts = []
        for node, score in zip(nodes.tolist(), scores.tolist()):
            if score < self.model.threshold:
                continue
            if self._fired.get(node) == bucket:
                continue
            self._fired[node] = bucket
            self._changed.add(node)
            alerts.append(
                {
                    "rule": "predicted_failure",
                    "time": float(at),
                    "batch": batch,
                    "node": int(node),
                    "detail": {
                        "score": float(score),
                        "threshold": float(self.model.threshold),
                        "model_id": self.model.model_id,
                        "rearm_bucket": bucket,
                    },
                }
            )
        return alerts

    def observe_het(self, het: np.ndarray) -> None:
        """Fold HET records into the UE-history features (no alerts --
        the ``uncorrectable`` rule already covers the event itself)."""
        if het.size:
            self.state.fold_het(het)

    def observe_sensors(self, samples: np.ndarray) -> None:
        if samples.size:
            self.state.observe_sensor_times(np.unique(samples["time"]))

    # -- checkpoint (de)serialisation ----------------------------------
    def to_state(self, changed: bool = False) -> dict:
        """Checkpoint state; ``changed`` keeps only the entries changed
        since :meth:`clear_changes` (a journal delta)."""
        fired = self._changed if changed else self._fired
        return {
            "model_id": self.model.model_id,
            "rearm_s": self.rearm_s,
            "scored_batches": self.scored_batches,
            "features": self.state.to_state(changed),
            "fired": sorted((n, self._fired[n]) for n in fired),
        }

    def clear_changes(self) -> None:
        """Mark the current state as checkpointed."""
        self._changed.clear()
        self.state.clear_changes()

    def restore(self, state: dict) -> None:
        if state["model_id"] != self.model.model_id:
            raise mismatch(
                PredictError, "predictor model",
                repr(state["model_id"]),
                repr(self.model.model_id),
                "resume with the model the interrupted run was scoring "
                "with, or start over with --no-resume",
            )
        self.rearm_s = float(state["rearm_s"])
        self.scored_batches = int(state["scored_batches"])
        self.state = FeatureState.from_state(state["features"])
        self._fired = {int(n): int(b) for n, b in state["fired"]}
        self._changed = set()
