"""Sparse event counts per (node, epoch-aligned window), held as columns.

The one implementation of the count behind the ``ce_rate`` alert rule,
the predictor's CE/UE/dropout windows and the rollups' ``ce_windows``
cube; each holder keeps its own instance.  Keys are int64 ``nodes`` and
``windows`` columns in lexicographic order, ``counts`` is aligned with
them and ``changed`` marks the keys added to since the last
:meth:`WindowCounts.clear_changes` (what a checkpoint journal line holds).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

_INT64_MAX = np.iinfo(np.int64).max


class Added(NamedTuple):
    """One fold: ``order`` sorts the batch by key, stably; the i-th
    distinct key (ascending) starts at ``starts[i]`` in that order, adds
    ``counts[i]`` and had the count ``prev[i]`` before the fold."""

    order: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    prev: np.ndarray


def _splice(col: np.ndarray, old: np.ndarray, at: np.ndarray, values):
    out = np.empty(old.size, dtype=col.dtype)
    out[old] = col
    out[at] = values
    return out


class WindowCounts:
    """Sorted ``(node, window) -> count`` columns with change tracking."""

    def __init__(self) -> None:
        self.nodes = np.zeros(0, dtype=np.int64)
        self.windows = np.zeros(0, dtype=np.int64)
        self.counts = np.zeros(0, dtype=np.int64)
        self.changed = np.zeros(0, dtype=bool)

    @classmethod
    def from_rows(cls, rows) -> "WindowCounts":
        """Inverse of :meth:`rows`; the distinct keys in any order."""
        out = cls()
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
        rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
        out.nodes, out.windows, out.counts = rows.T.copy()
        out.changed = np.zeros(len(rows), dtype=bool)
        return out

    # ------------------------------------------------------------------
    def add(self, nodes, windows, weights=None) -> Added:
        """Count one event per ``(nodes[i], windows[i])`` pair, or
        ``weights[i]`` events when given."""
        nodes = np.asarray(nodes, dtype=np.int64)
        windows = np.asarray(windows, dtype=np.int64)
        n = self.nodes.size
        if nodes.size == 0:
            z = np.zeros(0, dtype=np.int64)
            return Added(z, z, z, z)
        keys = self._ordinal_keys(nodes, windows)
        mine, order = keys[:n], np.argsort(keys[n:], kind="stable")
        theirs = keys[n:][order]
        first = np.ones(theirs.size, dtype=bool)
        first[1:] = theirs[1:] != theirs[:-1]
        starts = np.flatnonzero(first)
        counts = (
            np.diff(np.append(starts, theirs.size)) if weights is None
            else np.add.reduceat(np.asarray(weights, np.int64)[order], starts)
        )
        theirs, at = theirs[starts], order[starts]
        # Hits are added to; new keys are spliced in at their slots.
        pos = np.searchsorted(mine, theirs)
        hit = pos < n
        hit[hit] = mine[pos[hit]] == theirs[hit]
        prev = np.zeros(theirs.size, dtype=np.int64)
        prev[hit] = self.counts[pos[hit]]
        self.counts[pos[hit]] += counts[hit]
        self.changed[pos[hit]] = True
        new = ~hit
        if new.any():
            slots = pos[new] + np.arange(int(new.sum()))
            old = np.ones(n + slots.size, dtype=bool)
            old[slots] = False
            self.nodes = _splice(self.nodes, old, slots, nodes[at[new]])
            self.windows = _splice(self.windows, old, slots, windows[at[new]])
            self.counts = _splice(self.counts, old, slots, counts[new])
            self.changed = _splice(self.changed, old, slots, True)
        return Added(order, starts, counts, prev)

    def merge(self, other: "WindowCounts") -> None:
        """Add another counter's counts into this one."""
        self.add(other.nodes, other.windows, other.counts)

    def clear_changes(self) -> None:
        """Mark every key as checkpointed."""
        self.changed[:] = False

    def rows(self, changed: bool = False) -> list[list[int]]:
        """``[node, window, count]`` rows in key order; ``changed`` keeps
        only the keys added to since :meth:`clear_changes`."""
        sel = self.changed if changed else slice(None)
        cols = (self.nodes[sel], self.windows[sel], self.counts[sel])
        return np.stack(cols, axis=1).tolist()

    def _ordinal_keys(self, nodes, windows) -> np.ndarray:
        """Order-keeping int64 keys of the columns, then of the pairs."""
        nodes = np.concatenate((self.nodes, nodes))
        windows = np.concatenate((self.windows, windows))
        n0, w0 = int(nodes.min()), int(windows.min())
        span = int(windows.max()) - w0 + 1
        if (int(nodes.max()) - n0 + 1) * span > _INT64_MAX:
            # Too far apart to pack as they are: pack their dense ranks.
            nodes = np.unique(nodes, return_inverse=True)[1]
            windows = np.unique(windows, return_inverse=True)[1]
            n0 = w0 = 0
            span = int(windows.max()) + 1
        return (nodes - n0) * span + (windows - w0)
