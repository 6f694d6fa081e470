"""Daily inventory scans and replacement detection by diffing.

Section 3.1: "Component replacements were detected by analyzing the
site's daily inventory scan logs."  This module implements both sides:

- :class:`InventoryModel` evolves per-position serial numbers from a
  replacement event stream, and can render the inventory snapshot for
  any day;
- :func:`diff_inventories` recovers replacement events by comparing two
  snapshots -- the analysis-side operation.

Snapshot line format::

    2019-03-04,n0123,processor,1,SN-P-0123-1-0007

The trailing serial component is a replacement counter, so serials change
exactly when a component is swapped.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro._util import DAY_S
from repro.machine.node import NodeConfig
from repro.machine.topology import AstraTopology
from repro.synth.replacements import REPLACEMENT_DTYPE, Component

#: Component kind -> positions per node.
def _positions_per_node(kind: Component, config: NodeConfig) -> int:
    if kind is Component.PROCESSOR:
        return config.n_sockets
    if kind is Component.MOTHERBOARD:
        return 1
    return config.dimms_per_node


@dataclass
class InventoryModel:
    """Serial-number state machine driven by replacement events."""

    replacements: np.ndarray
    topology: AstraTopology
    node_config: NodeConfig

    def __post_init__(self) -> None:
        if self.replacements.dtype != REPLACEMENT_DTYPE:
            raise ValueError("replacements must use REPLACEMENT_DTYPE")

    def _position_of_event(self, event) -> int:
        kind = Component(int(event["component"]))
        if kind is Component.PROCESSOR:
            return int(event["socket"])
        if kind is Component.DIMM:
            return int(event["slot"])
        return 0

    def replacement_counts_before(self, t: float) -> dict:
        """Per (component, node, position) replacement counts before ``t``.

        Returns a dict mapping ``Component`` to an int array of shape
        ``(n_nodes, positions)``.
        """
        out = {
            kind: np.zeros(
                (
                    self.topology.n_nodes,
                    _positions_per_node(kind, self.node_config),
                ),
                dtype=np.int64,
            )
            for kind in Component
        }
        early = self.replacements[self.replacements["time"] < t]
        for kind in Component:
            sel = early[early["component"] == kind]
            if sel.size == 0:
                continue
            pos = (
                sel["socket"]
                if kind is Component.PROCESSOR
                else sel["slot"]
                if kind is Component.DIMM
                else np.zeros(sel.size, dtype=np.int64)
            )
            np.add.at(out[kind], (sel["node"], np.maximum(pos, 0)), 1)
        return out

    def serial(self, kind: Component, node: int, position: int, count: int) -> str:
        """Serial number of the ``count``-th replacement at a position."""
        tag = {"Processors": "P", "Motherboards": "M", "DIMMs": "D"}[kind.label]
        return f"SN-{tag}-{node:04d}-{position}-{count:04d}"

    def snapshot(self, t: float) -> list[tuple[str, int, int, str]]:
        """Inventory at time ``t``: (component, node, position, serial)."""
        counts = self.replacement_counts_before(t)
        lines = []
        for kind in Component:
            arr = counts[kind]
            for node in range(arr.shape[0]):
                for pos in range(arr.shape[1]):
                    lines.append(
                        (
                            kind.label.lower().rstrip("s"),
                            node,
                            pos,
                            self.serial(kind, node, pos, int(arr[node, pos])),
                        )
                    )
        return lines


_KIND_BY_NAME = {
    "processor": Component.PROCESSOR,
    "motherboard": Component.MOTHERBOARD,
    "dimm": Component.DIMM,
}


_SERIAL_TAGS = {"Processors": "P", "Motherboards": "M", "DIMMs": "D"}


def _emit_inventory_day(date: str, counts: dict) -> tuple[bytes, int]:
    """Render one day's snapshot straight from the replacement counts.

    The per-row ``serial()`` f-strings are fully structured
    (``SN-<tag>-<node:04d>-<pos>-<count:04d>``), so the whole day's
    lines come out of digit matrices without ever materialising the
    tuple snapshot -- the snapshot loop itself, not the serialisation,
    dominated the slow writer.
    """
    from repro.logs import fastpath

    parts = []
    n = 0
    for kind in Component:
        arr = counts[kind]
        n_nodes, p = arr.shape
        comp = kind.label.lower().rstrip("s").encode("ascii")
        tag = _SERIAL_TAGS[kind.label].encode("ascii")
        node_mat = fastpath.uint_digits(
            np.repeat(np.arange(n_nodes, dtype=np.int64), p), 4
        )
        pos_mat = fastpath.uint_digits(
            np.tile(np.arange(p, dtype=np.int64), n_nodes)
        )
        parts.append(
            fastpath.build_lines(
                arr.size,
                [
                    date.encode("ascii") + b",n",
                    node_mat,
                    b"," + comp + b",",
                    pos_mat,
                    b",SN-" + tag + b"-",
                    node_mat,
                    b"-",
                    pos_mat,
                    b"-",
                    fastpath.uint_digits(arr.ravel(), 4),
                ],
            )
        )
        n += arr.size
    return b"".join(parts), n


def write_inventory_snapshots(
    path: str | os.PathLike,
    model: InventoryModel,
    days: list[float],
    fast: bool = True,
) -> int:
    """Write one snapshot per scan time into a single file; returns lines."""
    from repro.logs.ingest import fastpath_enabled

    # The count-driven fast writer re-derives what snapshot()/serial()
    # render, so a model overriding either must take the per-row path.
    use_fast = (
        fastpath_enabled(fast)
        and type(model).snapshot is InventoryModel.snapshot
        and type(model).serial is InventoryModel.serial
        and type(model).replacement_counts_before
        is InventoryModel.replacement_counts_before
    )
    n = 0
    with open(path, "wb") as fh:
        for t in days:
            date = str(np.datetime64(int(t), "s"))[:10]
            if use_fast:
                payload, rows = _emit_inventory_day(
                    date, model.replacement_counts_before(t)
                )
            else:
                snap = model.snapshot(t)
                payload = "".join(
                    f"{date},n{node:04d},{component},{pos},{serial}\n"
                    for component, node, pos, serial in snap
                ).encode("utf-8")
                rows = len(snap)
            fh.write(payload)
            n += rows
    return n


def _parse_snapshot_line(line: str) -> tuple:
    date, node, component, pos, serial = line.split(",")
    if component not in _KIND_BY_NAME:
        raise ValueError(f"unknown component kind: {component!r}")
    if not node.startswith("n"):
        raise ValueError(f"unknown node format: {node!r}")
    return date, (component, int(node[1:]), int(pos)), serial


_COMP_NAMES = tuple(_KIND_BY_NAME)
_COMP_VOCAB = [name.encode() for name in _COMP_NAMES]
#: Object-dtype mirror of ``_COMP_NAMES`` so the fast gear can expand
#: match indices to interned name strings with one C-level take.
_COMP_NAME_ARR = np.array(_COMP_NAMES, dtype=object)


class _SnapshotBatch:
    """Column-parsed snapshot rows with a bulk dict-insertion path.

    Iterating yields the same ``(date, key, serial)`` tuples the
    per-line parser emits (the merge path materialises them when a
    chunk mixes fast and fallback rows), but on all-fast chunks the
    consumer calls :meth:`apply` instead, which inserts each run of
    equal dates with one C-level ``dict.update``.  Row tuples are the
    dominant cost of this family -- its output is a dict of Python
    objects -- so skipping them on the hot path is the entire win.
    """

    __slots__ = ("runs", "keys", "serials")

    def __init__(self, runs, keys, serials):
        self.runs = runs          # [(date, start, end)] over keys/serials
        self.keys = keys          # [(component, node, position)]
        self.serials = serials

    def __len__(self):
        return len(self.serials)

    def __iter__(self):
        dates: list[str] = []
        for d, a, b in self.runs:
            dates.extend([d] * (b - a))
        return zip(dates, self.keys, self.serials)

    def apply(self, out: dict) -> None:
        for d, a, b in self.runs:
            out.setdefault(d, {}).update(
                zip(self.keys[a:b], self.serials[a:b])
            )

    def merge_ordered(self, fast_pos, slow_rows, slow_pos):
        """Splice fallback rows back into file order, keeping the runs.

        Fallback rows are rare even on heavily corrupted files, so each
        joins as its own length-1 run between the split fast runs; the
        consumer keeps the bulk :meth:`apply` path instead of degrading
        the whole chunk to per-row tuples (C-level slice extends do the
        copying, ``searchsorted`` finds the splice points).
        """
        ins = np.searchsorted(
            np.asarray(fast_pos), np.asarray(slow_pos)
        ).tolist()
        keys, serials = self.keys, self.serials
        out_runs: list[tuple[str, int, int]] = []
        out_keys: list = []
        out_serials: list = []

        def copy_fast(date, a, b):
            if a >= b:
                return
            start = len(out_keys)
            out_keys.extend(keys[a:b])
            out_serials.extend(serials[a:b])
            out_runs.append((date, start, len(out_keys)))

        def copy_slow(row):
            date, key, serial = row
            start = len(out_keys)
            out_keys.append(key)
            out_serials.append(serial)
            out_runs.append((date, start, start + 1))

        j = 0
        for date, a, b in self.runs:
            cursor = a
            while j < len(ins) and ins[j] < b:
                copy_fast(date, cursor, ins[j])
                copy_slow(slow_rows[j])
                cursor = ins[j]
                j += 1
            copy_fast(date, cursor, b)
        for row in slow_rows[j:]:
            copy_slow(row)
        return _SnapshotBatch(out_runs, out_keys, out_serials)


def _fast_snapshot_chunk(chunk):
    """Column-validate snapshot lines; returns ``(batch, ok)``.

    The output rows feed a dict of dicts, so beyond vectorising the
    validation the fast gear must also dodge per-row Python work: dates
    are decoded once per run of equal tokens and key tuples come out of
    a single C-level ``zip``; see :class:`_SnapshotBatch`.
    """
    from repro.logs import fastpath

    data = chunk.data
    ts, te, ok = fastpath.split_tokens(data, chunk.starts, chunk.ends, 5, sep=44)
    ok &= fastpath.has_prefix(data, ts[:, 1], te[:, 1], b"n")
    node, ok_n = fastpath.parse_uint(data, ts[:, 1] + 1, te[:, 1])
    ok &= ok_n
    comp, ok_c = fastpath.match_vocab(data, ts[:, 2], te[:, 2], _COMP_VOCAB)
    ok &= ok_c
    pos, ok_p = fastpath.parse_uint(data, ts[:, 3], te[:, 3])
    ok &= ok_p

    if not ok.any():
        return _SnapshotBatch([], [], []), ok
    s = data.tobytes().decode("ascii")
    sel = np.flatnonzero(ok)
    runs = _date_runs(data, ts[sel, 0], te[sel, 0])
    comps = _COMP_NAME_ARR[comp[sel]].tolist()
    serials = [
        s[u:v] for u, v in zip(ts[sel, 4].tolist(), te[sel, 4].tolist())
    ]
    keys = list(zip(comps, node[sel].tolist(), pos[sel].tolist()))
    return _SnapshotBatch(runs, keys, serials), ok


def _date_runs(data, d0, d1) -> list[tuple[str, int, int]]:
    """Runs of equal date tokens, decoding each run's string once.

    Snapshot files hold one scan per day, so the date column is constant
    for tens of thousands of consecutive rows; a chunk yields a handful
    of runs instead of one string slice per row.  Mixed token widths
    (corrupted-but-parseable rows) segment the chunk into maximal
    equal-width spans first: equal tokens have equal widths, so no run
    can span a segment boundary and every segment keeps the vectorised
    matrix compare -- one odd-width token no longer demotes the whole
    chunk to a per-row Python loop.
    """
    if d0.size == 0:
        return []
    w = d1 - d0
    bounds = np.flatnonzero(np.concatenate(([True], w[1:] != w[:-1])))
    bounds = np.append(bounds, w.size)
    runs: list[tuple[str, int, int]] = []
    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        width = int(w[a])
        mat = data[d0[a:b, None] + np.arange(width)[None, :]]
        diff = np.any(mat[1:] != mat[:-1], axis=1)
        starts = np.concatenate(
            ([a], np.flatnonzero(diff) + 1 + a, [b])
        )
        runs.extend(
            (mat[i - a].tobytes().decode("ascii"), i, j)
            for i, j in zip(starts[:-1].tolist(), starts[1:].tolist())
        )
    return runs


def ingest_inventory_snapshots(
    path: str | os.PathLike,
    policy=None,
    quarantine: bool = True,
    fast: bool = True,
) -> tuple[dict, "IngestStats"]:
    """Parse snapshots under an ingest policy; returns (snapshots, stats).

    Snapshots map ``{date: {(component, node, position): serial}}``.
    Inventory rows have no salvageable partial form (a serial without
    its position is useless), so ``repair`` behaves like ``skip`` here:
    bad rows are quarantined with a reason.  Partial scans are already
    tolerated downstream by :func:`diff_inventories`.  ``fast`` selects
    the chunked column-wise validator (identical results; see DESIGN.md
    section 9).
    """
    from repro import obs
    from repro.logs.ingest import (
        IngestPolicy,
        IngestStats,
        Quarantine,
        fastpath_enabled,
        ingest_lines,
        ingest_stream_fast,
    )

    policy = IngestPolicy.coerce(policy)
    stats = IngestStats(family="inventory", source="text")
    sidecar = Quarantine(path) if quarantine else None
    out: dict[str, dict] = {}
    with obs.span("ingest.inventory", attrs={"policy": policy.value}) as sp:
        if fastpath_enabled(fast):
            with open(path, "rb") as fh:
                for batch in ingest_stream_fast(
                    fh, _parse_snapshot_line, stats, policy, sidecar,
                    fast_chunk=_fast_snapshot_chunk,
                    rows_to_records=list,
                ):
                    if isinstance(batch, _SnapshotBatch):
                        batch.apply(out)
                    else:
                        for date, key, serial in batch:
                            out.setdefault(date, {})[key] = serial
        else:
            with open(path) as fh:
                for date, key, serial in ingest_lines(
                    fh, _parse_snapshot_line, stats, policy, sidecar
                ):
                    out.setdefault(date, {})[key] = serial
        if sidecar is not None:
            sidecar.flush()
        stats.check_invariant()
        sp.add(**obs.record_ingest(stats))
    return out, stats


def diff_inventories(prev: dict, curr: dict) -> np.ndarray:
    """Detect replacements between two snapshots (the section 3.1 method).

    Returns REPLACEMENT_DTYPE events with time 0 -- the caller stamps the
    scan date.  A position present in only one snapshot is ignored
    (partial scans happen in real logs).
    """
    events = []
    for key, serial in curr.items():
        if key in prev and prev[key] != serial:
            component, node, pos = key
            kind = _KIND_BY_NAME[component]
            events.append((kind, node, pos))
    out = np.zeros(len(events), dtype=REPLACEMENT_DTYPE)
    for i, (kind, node, pos) in enumerate(events):
        out[i]["component"] = kind
        out[i]["node"] = node
        out[i]["socket"] = pos if kind is Component.PROCESSOR else -1
        out[i]["slot"] = pos if kind is Component.DIMM else -1
    return out


def replacements_from_snapshot_file(path: str | os.PathLike) -> np.ndarray:
    """Run the full diff pipeline over a snapshot file.

    Snapshots are diffed in date order; each detected event is stamped
    with its scan date (midnight).  This is the text-log-driven
    equivalent of consuming the generator's event stream directly.
    """
    snaps, _ = ingest_inventory_snapshots(
        path, policy="strict", quarantine=False
    )
    dates = sorted(snaps)
    parts = []
    for prev_date, curr_date in zip(dates[:-1], dates[1:]):
        events = diff_inventories(snaps[prev_date], snaps[curr_date])
        events["time"] = float(
            np.datetime64(curr_date).astype("datetime64[s]").astype(np.int64)
        )
        parts.append(events)
    if not parts:
        return np.zeros(0, dtype=REPLACEMENT_DTYPE)
    out = np.concatenate(parts)
    return out[np.argsort(out["time"], kind="stable")]
