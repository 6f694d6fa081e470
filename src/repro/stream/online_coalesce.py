"""Incremental error-to-fault coalescing with live per-DIMM state.

The batch coalescer (:mod:`repro.faults.coalesce`) sorts a complete
error array once and reduces each ``(node, slot, rank, bank)`` group in
one pass.  Operators cannot wait for "complete": this module maintains
the same per-group evidence -- error count, first/last timestamps, the
distinct-value sets that drive mode classification, and the
representative first record -- updated batch by batch as records
arrive.

The contract, enforced by the differential tests, is exact: feeding a
full campaign through :meth:`OnlineCoalescer.add` in any batching and
then calling :meth:`OnlineCoalescer.faults` produces a fault array
byte-identical to ``coalesce(all_errors)``.  That works because every
quantity the batch path derives is arrival-order-insensitive once ties
are broken the same way:

- ``first`` is the minimum-time record, earliest file position among
  equal times -- exactly what the batch path's stable
  ``lexsort((time, ...))`` picks, whether or not the repair policy
  re-sorted the stream first (a stable time sort preserves file order
  among ties);
- ``last_time`` is the maximum time;
- distinct counts (bit identities, words, columns, rows, banks) are
  set cardinalities;
- group ordering and ``fault_id`` assignment follow the ascending
  ``(node, slot, rank, bank)`` key, which the final sort re-derives.

Per-record work is a plain Python loop over pre-extracted column lists
(no numpy scalar boxing); the bit-identity key is computed vectorised
with ``int64`` arithmetic first so its wrap-around semantics match the
batch path bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.faults.classify import classify_group_modes
from repro.faults.coalesce import CoalesceOptions
from repro.faults.types import ERROR_DTYPE, FaultMode, empty_faults


class _Group:
    """Evidence accumulated for one coalescing group."""

    __slots__ = (
        "n", "first_time", "last_time", "first", "bits", "words",
        "cols", "rows", "banks", "mode",
    )

    def __init__(self):
        self.n = 0
        self.first_time = None
        self.last_time = None
        #: The representative record as a plain dict of Python scalars.
        self.first = None
        self.bits: set[int] = set()
        self.words: set[int] = set()
        self.cols: set[int] = set()
        self.rows: set[int] = set()
        self.banks: set[int] = set()
        #: Last classified mode (int), maintained by the alert engine's
        #: transition tracking; ``None`` until first classified.
        self.mode: int | None = None

    # -- checkpoint (de)serialisation ----------------------------------
    def to_state(self) -> list:
        return [
            self.n, self.first_time, self.last_time, self.first,
            sorted(self.bits), sorted(self.words), sorted(self.cols),
            sorted(self.rows), sorted(self.banks), self.mode,
        ]

    @classmethod
    def from_state(cls, state: list) -> "_Group":
        g = cls()
        (g.n, g.first_time, g.last_time, first, bits, words, cols,
         rows, banks, mode) = state
        # JSON round-trips dict keys as-is (they are strings already).
        g.first = dict(first)
        g.bits = set(bits)
        g.words = set(words)
        g.cols = set(cols)
        g.rows = set(rows)
        g.banks = set(banks)
        g.mode = mode
        return g


#: Fields captured for the representative first record.
_FIRST_FIELDS = (
    "time", "node", "socket", "slot", "rank", "bank", "row", "column",
    "bit_pos", "address",
)


class OnlineCoalescer:
    """Maintains live fault state from incrementally arriving CE records.

    Parameters mirror :class:`repro.faults.coalesce.CoalesceOptions`;
    the default is Astra's (per-bank groups, no row information).
    """

    def __init__(self, options: CoalesceOptions | None = None):
        self.options = options or CoalesceOptions()
        self._groups: dict[tuple, _Group] = {}
        self.errors_seen = 0
        #: Group keys touched since :meth:`clear_changes`.
        self._changed: set[tuple] = set()

    @property
    def key_fields(self) -> tuple[str, ...]:
        if self.options.split_banks:
            return ("node", "slot", "rank", "bank")
        return ("node", "slot", "rank")

    @property
    def n_groups(self) -> int:
        return len(self._groups)

    # ------------------------------------------------------------------
    def add(self, errors: np.ndarray) -> tuple[list[tuple], list[tuple]]:
        """Fold a batch of CE records (in file order) into the state.

        Returns ``(created, touched)``: the group keys first seen in
        this batch, in order of their creating record, and every key
        the batch touched (created included), in first-touch order.
        """
        if errors.dtype != ERROR_DTYPE:
            raise ValueError(f"expected ERROR_DTYPE, got {errors.dtype}")
        if errors.size == 0:
            return [], []
        self.errors_seen += int(errors.size)

        # Pre-extract columns as Python lists once; the per-record loop
        # then only does dict/set work.  The bit identity is combined in
        # int64 first so any overflow wraps exactly as the batch path's
        # ``addr.astype(int64) * 128 + bit + 1`` does.
        addr_i64 = errors["address"].astype(np.int64)
        with np.errstate(over="ignore"):
            bitkey = addr_i64 * 128 + (errors["bit_pos"].astype(np.int64) + 1)
        times = errors["time"].tolist()
        nodes = errors["node"].tolist()
        sockets = errors["socket"].tolist()
        slots = errors["slot"].tolist()
        ranks = errors["rank"].tolist()
        banks = errors["bank"].tolist()
        rows = errors["row"].tolist()
        cols = errors["column"].tolist()
        bits = errors["bit_pos"].tolist()
        addrs = errors["address"].tolist()
        words = addr_i64.tolist()
        bitkeys = bitkey.tolist()

        split = self.options.split_banks
        groups = self._groups
        created: list[tuple] = []
        touched: dict[tuple, None] = {}
        for i in range(len(times)):
            key = (
                (nodes[i], slots[i], ranks[i], banks[i]) if split
                else (nodes[i], slots[i], ranks[i])
            )
            g = groups.get(key)
            if g is None:
                g = groups[key] = _Group()
                created.append(key)
            touched.setdefault(key, None)
            t = times[i]
            g.n += 1
            # Strict "<" keeps the earliest-arriving record among equal
            # minimum times; ">=" keeps the latest-arriving maximum.
            if g.first_time is None or t < g.first_time:
                g.first_time = t
                g.first = {
                    "time": t, "node": nodes[i], "socket": sockets[i],
                    "slot": slots[i], "rank": ranks[i], "bank": banks[i],
                    "row": rows[i], "column": cols[i], "bit_pos": bits[i],
                    "address": addrs[i],
                }
            if g.last_time is None or t >= g.last_time:
                g.last_time = t
            g.bits.add(bitkeys[i])
            g.words.add(words[i])
            g.cols.add(cols[i])
            g.rows.add(rows[i])
            g.banks.add(banks[i])
        self._changed.update(touched)
        return created, list(touched)

    # ------------------------------------------------------------------
    def _classify(self, keys: list[tuple]) -> np.ndarray:
        """Mode per key (vectorised over the selected groups)."""
        n = len(keys)
        if n == 0:
            return np.zeros(0, dtype=np.int8)
        gs = [self._groups[k] for k in keys]
        return classify_group_modes(
            uniq_bits=np.array([len(g.bits) for g in gs], dtype=np.int64),
            uniq_words=np.array([len(g.words) for g in gs], dtype=np.int64),
            uniq_cols=np.array([len(g.cols) for g in gs], dtype=np.int64),
            uniq_rows=np.array([len(g.rows) for g in gs], dtype=np.int64),
            uniq_banks=np.array([len(g.banks) for g in gs], dtype=np.int64),
            bank_valid=np.array([g.first["bank"] >= 0 for g in gs], dtype=bool),
            column_valid=np.array(
                [g.first["column"] >= 0 for g in gs], dtype=bool
            ),
            bit_valid=np.array([g.first["bit_pos"] >= 0 for g in gs], dtype=bool),
            row_valid=np.array([g.first["row"] >= 0 for g in gs], dtype=bool),
            row_available=self.options.row_available,
        )

    def classify_keys(self, keys: list[tuple]) -> dict[tuple, int]:
        """Current fault mode for each of the given group keys."""
        modes = self._classify(keys)
        return {key: int(mode) for key, mode in zip(keys, modes)}

    def faults(self) -> np.ndarray:
        """Snapshot the live state as a batch-identical fault array."""
        keys = sorted(self._groups)
        n = len(keys)
        if n == 0:
            return empty_faults(0)
        gs = [self._groups[k] for k in keys]
        faults = empty_faults(n)
        faults["fault_id"] = np.arange(n)
        for field in ("node", "socket", "slot", "rank"):
            faults[field] = [g.first[field] for g in gs]
        faults["n_errors"] = [g.n for g in gs]
        faults["first_time"] = [g.first_time for g in gs]
        faults["last_time"] = [g.last_time for g in gs]
        # Representative positional fields: the first record's value
        # where the group is homogeneous, the sentinel otherwise
        # (already set by empty_faults).
        for field, attr in (
            ("bank", "banks"), ("column", "cols"), ("row", "rows"),
        ):
            values = [
                g.first[field] if len(getattr(g, attr)) == 1 else None
                for g in gs
            ]
            mask = np.array([v is not None for v in values], dtype=bool)
            if mask.any():
                faults[field][mask] = [v for v in values if v is not None]
        bit_homog = np.array([len(g.bits) == 1 for g in gs], dtype=bool)
        if bit_homog.any():
            faults["bit_pos"][bit_homog] = [
                g.first["bit_pos"] for g, h in zip(gs, bit_homog) if h
            ]
        faults["address"] = [g.first["address"] for g in gs]
        faults["mode"] = self._classify(keys)
        return faults

    def mode_counts(self) -> dict[str, int]:
        """Live fault count per mode label (for summaries and gauges)."""
        out: dict[str, int] = {}
        modes = self._classify(sorted(self._groups))
        counts = np.bincount(modes, minlength=len(FaultMode))
        for mode in FaultMode:
            if counts[mode]:
                out[mode.label] = int(counts[mode])
        return out

    # -- checkpoint (de)serialisation ----------------------------------
    def to_state(self, changed: bool = False) -> dict:
        """Checkpoint state; ``changed`` keeps only the groups touched
        since :meth:`clear_changes` (a journal delta)."""
        keys = self._changed if changed else self._groups
        return {
            "split_banks": self.options.split_banks,
            "row_available": self.options.row_available,
            "errors_seen": self.errors_seen,
            "groups": [
                [list(key), self._groups[key].to_state()]
                for key in sorted(keys)
            ],
        }

    def clear_changes(self) -> None:
        """Mark the current state as checkpointed."""
        self._changed.clear()

    @classmethod
    def from_state(cls, state: dict) -> "OnlineCoalescer":
        self = cls(
            CoalesceOptions(
                split_banks=bool(state["split_banks"]),
                row_available=bool(state["row_available"]),
            )
        )
        self.errors_seen = int(state["errors_seen"])
        for key, group_state in state["groups"]:
            self._groups[tuple(key)] = _Group.from_state(group_state)
        return self
