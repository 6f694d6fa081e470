"""Windowed per-node feature extraction for failure prediction.

The predictor's features summarise, per node and per moment in time,
exactly what an operator watching the stream could know: CE volume over
multiple horizons, spatial spread of the live faults (distinct bits /
columns / rows / banks per coalescing group), fault-mode escalation, UE
history, and fleet-wide sensor dropout -- the co-occurrence signal the
PR-5 alert rules already track.

Everything is computed on an **epoch-aligned hourly grid**: an event at
time ``t`` lands in window ``W(t) = floor(t / window_s)``, and a
"k-hour" horizon at extraction time ``at`` is the sum over the last
``k`` whole windows ending at ``W(at)``.  Window alignment is what makes
the incremental path exact: folding a stream batch-by-batch and folding
it in one shot produce the *same* window counters, so online scores are
byte-identical to batch scores (the differential tests assert this).

:class:`FeatureState` carries only integer counters and timestamps and
serialises to JSON for the stream checkpoint format.  Its CE, UE and
sensor-dropout windows are three :class:`~repro.window_counts.WindowCounts`
-- the one per-(node, window) counter, also kept by the ``ce_rate``
alert rule and the rollup cubes -- and the horizon sums are masked
bincounts over their columns.  The distinct-value spread features are
read at extraction time from the
:class:`~repro.stream.online_coalesce.OnlineCoalescer` the caller
already maintains, so the evidence sets are never duplicated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np

from repro._util import DictConfig
from repro.faults.types import ERROR_DTYPE, FaultMode
from repro.logs.bmc import dropout_gaps
from repro.predict.errors import PredictError
from repro.synth.het import HET_DTYPE
from repro.window_counts import WindowCounts

#: Version of the feature vector layout.  Models record it; scoring a
#: model against a different version is a hard exit-2 error.
FEATURE_SCHEMA_VERSION = 1

#: Horizons, in whole windows, for the CE count features.
HORIZONS_W = (1, 6, 24, 168)

#: Feature vector layout (order is the contract; see DESIGN.md section 15).
FEATURE_NAMES = (
    "ce_w1",            # CEs in the current window
    "ce_w6",            # CEs over the last 6 windows
    "ce_w24",           # CEs over the last 24 windows
    "ce_w168",          # CEs over the last 168 windows (one week)
    "ce_total",         # lifetime CE count
    "log_ce_total",     # log1p of the lifetime count (tames storms)
    "active_w24",       # distinct windows with CEs among the last 24
    "age_w",            # windows since the node's first CE
    "gap_w",            # windows since the node's last CE
    "faults",           # live coalescing groups on the node
    "max_uniq_bits",    # max distinct bit identities in any group
    "max_uniq_cols",    # max distinct columns in any group
    "max_uniq_rows",    # max distinct rows in any group
    "max_uniq_banks",   # max distinct banks in any group
    "evolved_faults",   # groups grown beyond one error and one bit
    "nonsingle_modes",  # groups classified as a non-single-bit mode
    "ue_total",         # lifetime non-recoverable HET events
    "ue_w168",          # non-recoverable HET events over the last week
    "dropout_w24",      # fleet sensor dropouts over the last 24 windows
    "dropout_total",    # lifetime fleet sensor dropouts
)

#: Column index per feature name.
FEATURE_INDEX = {name: i for i, name in enumerate(FEATURE_NAMES)}


@dataclass(frozen=True)
class FeatureConfig(DictConfig):
    """Knobs of the feature grid (all times in seconds)."""

    #: Width of one counting window; horizons are multiples of this.
    window_s: float = 3600.0


class FeatureState:
    """Incremental per-node counters behind the feature vector.

    Fold order within one batch does not matter and batch boundaries do
    not matter: every counter is a pure function of the set of folded
    events.  ``watermark`` tracks the latest folded event time and is the
    default extraction instant for live scoring.
    """

    def __init__(self, config: FeatureConfig | None = None):
        self.config = config or FeatureConfig()
        #: CE and non-recoverable HET (UE) events per (node, window).
        self._ce = WindowCounts()
        self._ue = WindowCounts()
        #: Fleet-wide sensor dropouts per window, all under node 0.
        self._dropout = WindowCounts()
        self._first_time: dict[int, float] = {}
        self._last_time: dict[int, float] = {}
        #: High-water mark of the sensor sample times walked so far.
        self._sensor_last: float | None = None
        #: Latest folded CE/HET event time.
        self.watermark: float | None = None

    # ------------------------------------------------------------------
    def _window(self, t: float) -> int:
        return int(np.floor(t / self.config.window_s))

    def _windows(self, times: np.ndarray) -> np.ndarray:
        return np.floor(times / self.config.window_s).astype(np.int64)

    def _advance(self, t: float) -> None:
        if self.watermark is None or t > self.watermark:
            self.watermark = t

    # ------------------------------------------------------------------
    def fold_errors(self, errors: np.ndarray) -> None:
        """Fold a batch of CE records (any order, any batching)."""
        if errors.dtype != ERROR_DTYPE:
            raise ValueError(f"expected ERROR_DTYPE, got {errors.dtype}")
        if errors.size == 0:
            return
        nodes = errors["node"].astype(np.int64)
        times = errors["time"].astype(np.float64)
        self._ce.add(nodes, self._windows(times))

        # Per-node first/last times.
        order = np.lexsort((times, nodes))
        sn, st = nodes[order], times[order]
        seg = np.ones(sn.size, dtype=bool)
        seg[1:] = sn[1:] != sn[:-1]
        starts = np.flatnonzero(seg)
        ends = np.append(starts[1:], sn.size) - 1
        for node, tmin, tmax in zip(
            sn[starts].tolist(), st[starts].tolist(), st[ends].tolist()
        ):
            prev = self._first_time.get(node)
            if prev is None or tmin < prev:
                self._first_time[node] = tmin
            prev = self._last_time.get(node)
            if prev is None or tmax > prev:
                self._last_time[node] = tmax
        self._advance(float(times.max()))

    def fold_het(self, het: np.ndarray) -> None:
        """Fold a batch of HET records; only non-recoverable ones count."""
        if het.dtype != HET_DTYPE:
            raise ValueError(f"expected HET_DTYPE, got {het.dtype}")
        if het.size == 0:
            return
        self._advance(float(het["time"].max()))
        ue = het[het["non_recoverable"]]
        self._ue.add(ue["node"], self._windows(ue["time"]))

    def observe_sensor_times(self, times: np.ndarray) -> None:
        """Count fleet sensor dropouts in a batch of sample times.

        Runs the ``sensor_dropout`` alert rule's walk
        (:func:`repro.logs.bmc.dropout_gaps`, with ``_sensor_last`` as
        the watermark, so late replays open no gap): a gap longer than
        :data:`~repro.logs.bmc.DROPOUT_GAP_S` counts as one dropout,
        attributed to the window of the gap's end.  Sensor ticks do not
        advance the event watermark.
        """
        if len(times) == 0:
            return
        _, ends, self._sensor_last = dropout_gaps(
            np.asarray(times, dtype=np.float64), self._sensor_last
        )
        self._dropout.add(np.zeros(ends.size, np.int64), self._windows(ends))

    # ------------------------------------------------------------------
    @property
    def dropout_total(self) -> int:
        """Lifetime fleet sensor dropouts."""
        return int(self._dropout.counts.sum())

    @property
    def nodes_seen(self) -> list[int]:
        """Nodes with at least one folded CE, ascending."""
        return np.unique(self._ce.nodes).tolist()

    def _node_groups(self, coalescer) -> dict[int, list[tuple]]:
        out: dict[int, list[tuple]] = {}
        for key in coalescer._groups:
            out.setdefault(int(key[0]), []).append(key)
        return out

    def extract(
        self,
        nodes,
        coalescer=None,
        at: float | None = None,
    ) -> np.ndarray:
        """Feature matrix ``(len(nodes), len(FEATURE_NAMES))`` at ``at``.

        ``at`` defaults to the watermark; ``coalescer`` supplies the
        spread/mode features (zeros when omitted).  Only events already
        folded participate -- the caller is responsible for folding
        nothing past the cut when building training data.
        """
        if at is None:
            at = self.watermark
        if at is None:
            raise PredictError(
                "feature extraction needs an explicit time: no events "
                "folded yet; hint: pass at= or fold a batch first"
            )
        W = self._window(at)
        X = np.zeros((len(nodes), len(FEATURE_NAMES)), dtype=np.float64)

        # Fleet-wide dropout features are shared by every row.
        dropouts = _window_sums(self._dropout, np.zeros(1, np.int64), W)
        X[:, FEATURE_INDEX["dropout_w24"]] = dropouts(24)[0]
        X[:, FEATURE_INDEX["dropout_total"]] = dropouts()[0]
        if not len(nodes):
            return X
        want, idx = np.unique(
            np.asarray(nodes, dtype=np.int64), return_inverse=True
        )
        ce = _window_sums(self._ce, want, W)
        ue = _window_sums(self._ue, want, W)
        for h in HORIZONS_W:
            X[:, FEATURE_INDEX[f"ce_w{h}"]] = ce(h)[idx]
        X[:, FEATURE_INDEX["active_w24"]] = ce(24, weighted=False)[idx]
        total = ce()[idx]
        X[:, FEATURE_INDEX["ce_total"]] = total
        X[:, FEATURE_INDEX["log_ce_total"]] = np.log1p(total)
        X[:, FEATURE_INDEX["ue_total"]] = ue()[idx]
        X[:, FEATURE_INDEX["ue_w168"]] = ue(168)[idx]

        groups_by_node = (
            self._node_groups(coalescer) if coalescer is not None else {}
        )
        # One classification call across all requested nodes' groups.
        all_keys = [
            k for node in nodes for k in groups_by_node.get(int(node), ())
        ]
        modes = (
            coalescer.classify_keys(all_keys)
            if coalescer is not None and all_keys
            else {}
        )

        for i, node in enumerate(nodes):
            node = int(node)
            row = X[i]
            first = self._first_time.get(node)
            if first is not None:
                row[FEATURE_INDEX["age_w"]] = W - self._window(first)
                row[FEATURE_INDEX["gap_w"]] = W - self._window(
                    self._last_time[node]
                )

            keys = groups_by_node.get(node)
            if keys:
                row[FEATURE_INDEX["faults"]] = len(keys)
                gs = [coalescer._groups[k] for k in keys]
                row[FEATURE_INDEX["max_uniq_bits"]] = max(
                    len(g.bits) for g in gs
                )
                row[FEATURE_INDEX["max_uniq_cols"]] = max(
                    len(g.cols) for g in gs
                )
                row[FEATURE_INDEX["max_uniq_rows"]] = max(
                    len(g.rows) for g in gs
                )
                row[FEATURE_INDEX["max_uniq_banks"]] = max(
                    len(g.banks) for g in gs
                )
                row[FEATURE_INDEX["evolved_faults"]] = sum(
                    1 for g in gs if g.n > 1 and len(g.bits) > 1
                )
                row[FEATURE_INDEX["nonsingle_modes"]] = sum(
                    1 for k in keys
                    if modes[k] not in (
                        FaultMode.SINGLE_BIT, FaultMode.UNATTRIBUTED
                    )
                )
        return X

    # -- checkpoint (de)serialisation ----------------------------------
    def to_state(self, changed: bool = False) -> dict:
        """Checkpoint state; ``changed`` keeps only the nodes and dropout
        windows folded since :meth:`clear_changes` (a journal delta)."""
        nodes = None
        if changed:
            nodes = np.union1d(
                self._ce.nodes[self._ce.changed],
                self._ue.nodes[self._ue.changed],
            )

        def rows(d: dict) -> list:
            if nodes is None:
                return sorted(d.items())
            return sorted((k, d[k]) for k in nodes.tolist() if k in d)

        ce, ue = _node_rows(self._ce, nodes), _node_rows(self._ue, nodes)
        return {
            "config": self.config.to_dict(),
            "ce": ce,
            "ce_total": _totals(ce),
            "first_time": rows(self._first_time),
            "last_time": rows(self._last_time),
            "ue": ue,
            "ue_total": _totals(ue),
            "dropout": [[w, c] for _, w, c in self._dropout.rows(changed)],
            "dropout_total": self.dropout_total,
            "sensor_last": self._sensor_last,
            "watermark": self.watermark,
        }

    def clear_changes(self) -> None:
        """Mark the current state as checkpointed."""
        for counts in (self._ce, self._ue, self._dropout):
            counts.clear_changes()

    @classmethod
    def from_state(cls, state: dict) -> "FeatureState":
        # The ``*_total`` fields are sums of the window rows: derived,
        # not read back.
        self = cls(FeatureConfig.from_dict(state["config"]))
        self._ce = _from_node_rows(state["ce"])
        self._ue = _from_node_rows(state["ue"])
        self._dropout = WindowCounts.from_rows(
            [[0, w, c] for w, c in state["dropout"]]
        )
        self._first_time = {
            int(n): float(t) for n, t in state["first_time"]
        }
        self._last_time = {int(n): float(t) for n, t in state["last_time"]}
        self._sensor_last = (
            None if state["sensor_last"] is None
            else float(state["sensor_last"])
        )
        self.watermark = (
            None if state["watermark"] is None else float(state["watermark"])
        )
        return self


def _window_sums(counts: WindowCounts, nodes: np.ndarray, W: int):
    """``sums(horizon=None, weighted=True)``: per node of ``nodes``
    (ascending, distinct), its count -- or its nonempty windows -- over
    the last ``horizon`` windows ending at ``W`` (``None``: lifetime)."""
    sel = np.isin(counts.nodes, nodes)
    slot = np.searchsorted(nodes, counts.nodes[sel])
    age = W - counts.windows[sel]
    weights = counts.counts[sel]

    def sums(horizon: int | None = None, weighted: bool = True):
        keep = slice(None) if horizon is None else (age >= 0) & (age < horizon)
        return np.bincount(
            slot[keep], weights[keep] if weighted else None, nodes.size
        )

    return sums


def _node_rows(counts: WindowCounts, nodes: np.ndarray | None) -> list:
    """``[node, [[window, count], ...]]`` rows, ascending (only ``nodes``)."""
    sel = slice(None) if nodes is None else np.isin(counts.nodes, nodes)
    flat = np.stack((counts.nodes, counts.windows, counts.counts), 1)[sel]
    return [
        [node, [[w, c] for _, w, c in run]]
        for node, run in groupby(flat.tolist(), key=itemgetter(0))
    ]


def _totals(node_rows: list) -> list:
    return [[node, sum(c for _, c in wins)] for node, wins in node_rows]


def _from_node_rows(node_rows: list) -> WindowCounts:
    return WindowCounts.from_rows(
        [[n, w, c] for n, wins in node_rows for w, c in wins]
    )
