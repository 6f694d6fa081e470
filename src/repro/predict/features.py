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
serialises to JSON for the PR-5 checkpoint format; the distinct-value
spread features are read at extraction time from the
:class:`~repro.stream.online_coalesce.OnlineCoalescer` the caller
already maintains, so the evidence sets are never duplicated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faults.types import ERROR_DTYPE, FaultMode
from repro.predict.errors import PredictError
from repro.synth.het import HET_DTYPE

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

_MAX_HORIZON_W = max(HORIZONS_W)


@dataclass(frozen=True)
class FeatureConfig:
    """Knobs of the feature grid (all times in seconds)."""

    #: Width of one counting window; horizons are multiples of this.
    window_s: float = 3600.0
    #: Expected sensor sample cadence for the dropout walk.
    dropout_cadence_s: float = 60.0
    #: A gap of more than this many cadences counts as one dropout.
    dropout_min_gap: int = 5

    def to_dict(self) -> dict:
        return {
            "window_s": self.window_s,
            "dropout_cadence_s": self.dropout_cadence_s,
            "dropout_min_gap": self.dropout_min_gap,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureConfig":
        return cls(
            window_s=float(d["window_s"]),
            dropout_cadence_s=float(d["dropout_cadence_s"]),
            dropout_min_gap=int(d["dropout_min_gap"]),
        )


class FeatureState:
    """Incremental per-node counters behind the feature vector.

    Fold order within one batch does not matter and batch boundaries do
    not matter: every counter is a pure function of the set of folded
    events.  ``watermark`` tracks the latest folded event time and is the
    default extraction instant for live scoring.
    """

    def __init__(self, config: FeatureConfig | None = None):
        self.config = config or FeatureConfig()
        #: node -> {window -> CE count}
        self._ce: dict[int, dict[int, int]] = {}
        #: node -> lifetime CE count
        self._ce_total: dict[int, int] = {}
        self._first_time: dict[int, float] = {}
        self._last_time: dict[int, float] = {}
        #: node -> {window -> UE count} and node -> lifetime UE count
        self._ue: dict[int, dict[int, int]] = {}
        self._ue_total: dict[int, int] = {}
        #: fleet-wide sensor dropout: {window -> count} and lifetime total
        self._dropout: dict[int, int] = {}
        self.dropout_total = 0
        self._sensor_last: float | None = None
        #: Latest folded CE/HET event time.
        self.watermark: float | None = None
        #: Nodes and dropout windows folded since :meth:`clear_changes`.
        self._changed_nodes: set[int] = set()
        self._changed_windows: set[int] = set()

    # ------------------------------------------------------------------
    def _window(self, t: float) -> int:
        return int(np.floor(t / self.config.window_s))

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
        wins = np.floor(times / self.config.window_s).astype(np.int64)

        # Per-(node, window) counts in one vectorised pass.
        order = np.lexsort((wins, nodes))
        sn, sw = nodes[order], wins[order]
        seg = np.ones(sn.size, dtype=bool)
        seg[1:] = (sn[1:] != sn[:-1]) | (sw[1:] != sw[:-1])
        starts = np.flatnonzero(seg)
        counts = np.diff(np.append(starts, sn.size))
        for node, win, c in zip(
            sn[starts].tolist(), sw[starts].tolist(), counts.tolist()
        ):
            d = self._ce.get(node)
            if d is None:
                d = self._ce[node] = {}
            d[win] = d.get(win, 0) + c

        # Per-node first/last times and totals.
        order = np.lexsort((times, nodes))
        sn, st = nodes[order], times[order]
        seg = np.ones(sn.size, dtype=bool)
        seg[1:] = sn[1:] != sn[:-1]
        starts = np.flatnonzero(seg)
        ends = np.append(starts[1:], sn.size) - 1
        totals = np.diff(np.append(starts, sn.size))
        for node, tmin, tmax, c in zip(
            sn[starts].tolist(), st[starts].tolist(),
            st[ends].tolist(), totals.tolist(),
        ):
            self._ce_total[node] = self._ce_total.get(node, 0) + c
            self._changed_nodes.add(node)
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
        for node, t in zip(ue["node"].tolist(), ue["time"].tolist()):
            node = int(node)
            win = self._window(t)
            d = self._ue.get(node)
            if d is None:
                d = self._ue[node] = {}
            d[win] = d.get(win, 0) + 1
            self._ue_total[node] = self._ue_total.get(node, 0) + 1
            self._changed_nodes.add(node)

    def observe_sensor_times(self, times: np.ndarray) -> None:
        """Walk fleet sensor sample times, counting cadence dropouts.

        Mirrors the PR-5 ``sensor_dropout`` alert rule: a gap longer than
        ``dropout_min_gap`` cadences between consecutive samples counts
        as one dropout, attributed to the window of the gap's end.
        Sensor ticks do not advance the event watermark.
        """
        if len(times) == 0:
            return
        limit = self.config.dropout_min_gap * self.config.dropout_cadence_s
        prev = self._sensor_last
        for t in np.asarray(times, dtype=np.float64).tolist():
            if prev is not None and t - prev > limit:
                win = self._window(t)
                self._dropout[win] = self._dropout.get(win, 0) + 1
                self._changed_windows.add(win)
                self.dropout_total += 1
            prev = t
        self._sensor_last = prev

    # ------------------------------------------------------------------
    @property
    def nodes_seen(self) -> list[int]:
        """Nodes with at least one folded CE, ascending."""
        return sorted(self._ce)

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
        n = len(nodes)
        X = np.zeros((n, len(FEATURE_NAMES)), dtype=np.float64)

        # Fleet-wide dropout features are shared by every row.
        drop24 = sum(
            c for w, c in self._dropout.items() if 0 <= W - w < 24
        )
        X[:, FEATURE_INDEX["dropout_w24"]] = drop24
        X[:, FEATURE_INDEX["dropout_total"]] = self.dropout_total

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
            d = self._ce.get(node)
            if d:
                totals = dict.fromkeys(HORIZONS_W, 0)
                active24 = 0
                for w, c in d.items():
                    delta = W - w
                    if delta < 0:
                        continue  # events past the extraction instant
                    for h in HORIZONS_W:
                        if delta < h:
                            totals[h] += c
                    if delta < 24:
                        active24 += 1
                row[FEATURE_INDEX["ce_w1"]] = totals[1]
                row[FEATURE_INDEX["ce_w6"]] = totals[6]
                row[FEATURE_INDEX["ce_w24"]] = totals[24]
                row[FEATURE_INDEX["ce_w168"]] = totals[168]
                row[FEATURE_INDEX["active_w24"]] = active24
                total = self._ce_total[node]
                row[FEATURE_INDEX["ce_total"]] = total
                row[FEATURE_INDEX["log_ce_total"]] = np.log1p(float(total))
                row[FEATURE_INDEX["age_w"]] = W - self._window(
                    self._first_time[node]
                )
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

            ud = self._ue.get(node)
            if ud:
                row[FEATURE_INDEX["ue_total"]] = self._ue_total[node]
                row[FEATURE_INDEX["ue_w168"]] = sum(
                    c for w, c in ud.items() if 0 <= W - w < 168
                )
        return X

    # -- checkpoint (de)serialisation ----------------------------------
    def to_state(self, changed: bool = False) -> dict:
        """Checkpoint state; ``changed`` keeps only the nodes and dropout
        windows folded since :meth:`clear_changes` (a journal delta)."""

        def rows(d: dict, keys: set) -> list:
            if not changed:
                return sorted(d.items())
            return sorted((k, d[k]) for k in keys if k in d)

        nodes, windows = self._changed_nodes, self._changed_windows
        return {
            "config": self.config.to_dict(),
            "ce": [
                [node, sorted(wins.items())]
                for node, wins in rows(self._ce, nodes)
            ],
            "ce_total": rows(self._ce_total, nodes),
            "first_time": rows(self._first_time, nodes),
            "last_time": rows(self._last_time, nodes),
            "ue": [
                [node, sorted(wins.items())]
                for node, wins in rows(self._ue, nodes)
            ],
            "ue_total": rows(self._ue_total, nodes),
            "dropout": rows(self._dropout, windows),
            "dropout_total": self.dropout_total,
            "sensor_last": self._sensor_last,
            "watermark": self.watermark,
        }

    def clear_changes(self) -> None:
        """Mark the current state as checkpointed."""
        self._changed_nodes.clear()
        self._changed_windows.clear()

    @classmethod
    def from_state(cls, state: dict) -> "FeatureState":
        self = cls(FeatureConfig.from_dict(state["config"]))
        self._ce = {
            int(node): {int(w): int(c) for w, c in wins}
            for node, wins in state["ce"]
        }
        self._ce_total = {int(n): int(c) for n, c in state["ce_total"]}
        self._first_time = {
            int(n): float(t) for n, t in state["first_time"]
        }
        self._last_time = {int(n): float(t) for n, t in state["last_time"]}
        self._ue = {
            int(node): {int(w): int(c) for w, c in wins}
            for node, wins in state["ue"]
        }
        self._ue_total = {int(n): int(c) for n, c in state["ue_total"]}
        self._dropout = {int(w): int(c) for w, c in state["dropout"]}
        self.dropout_total = int(state["dropout_total"])
        self._sensor_last = (
            None if state["sensor_last"] is None
            else float(state["sensor_last"])
        )
        self.watermark = (
            None if state["watermark"] is None else float(state["watermark"])
        )
        return self
