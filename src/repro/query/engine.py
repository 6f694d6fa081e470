"""Read-optimized queries over rollup cubes, with a rescan oracle.

:func:`execute` answers a :class:`Query` purely from cube slices of a
:class:`~repro.query.rollup.RollupStore` -- filter by rack / slot /
mode / node / time window, group-by, top-k -- in microseconds, with
zero log rescan.  :func:`recompute` answers the *same* query from the
raw record arrays (full rescan, independent aggregation code path);
the two must agree element for element, which is what the CLI's
``repro query --check`` gate asserts.

Both paths share only the final deterministic formatting (group sort,
top-k tie-break, JSON layout), so an agreement failure localises to
the aggregation, not the presentation.

Semantics worth knowing:

* Time filters are **bucket-granular**: ``since``/``until`` snap to the
  enclosing bucket (``floor(t / bucket_s)``; windows for
  ``ce_windows``), inclusive on both ends.  Both paths snap the same
  way, by construction.
* Only nonzero groups are emitted, sorted by key; ``top_k`` re-sorts by
  ``(-value, key)`` so ties break deterministically.
* An empty ``group_by`` yields exactly one group with the (possibly
  zero) grand total.
"""

from __future__ import annotations

import numpy as np

from repro import ReproError
from repro.faults.types import (
    ERROR_DTYPE,
    FAULT_DTYPE,
    FaultMode,
)
from repro.logs.bmc import DROPOUT_GAP_S
from repro.query.rollup import (
    N_BANKS,
    N_BITPOS,
    RollupConfig,
    RollupStore,
)

#: Bump on any change to the query answer document layout.
QUERY_SCHEMA_VERSION = 1

#: Everything ``select=`` accepts.
SELECTS = ("errors", "faults", "mode_errors", "ce_windows", "dropout")

_MODE_BY_LABEL = {m.label: m for m in FaultMode}

#: Canonical dimension order per cube; group_by is sorted into it.
_ERROR_CUBE_DIMS = ("rack", "slot", "bucket")
_FAULT_RSM_DIMS = ("rack", "slot", "mode")
_FAULT_MB_DIMS = ("mode", "bucket")
_CE_DIMS = ("node", "window")


class QueryError(ReproError, ValueError):
    """A query is malformed or not answerable from the cubes."""


class Query:
    """A normalised, validated query.

    ``where`` accepts ``rack``/``slot``/``node`` (int or list of ints),
    ``mode`` (label string, int, or list of either), and ``since`` /
    ``until`` (epoch seconds).  ``group_by`` dimensions are reordered
    into the cube's canonical order.
    """

    def __init__(
        self,
        select: str,
        group_by=(),
        where: dict | None = None,
        top_k: int | None = None,
    ):
        if select not in SELECTS:
            raise QueryError(
                f"unknown select {select!r}; hint: one of {', '.join(SELECTS)}"
            )
        self.select = select
        where = dict(where or {})
        self.since = _opt_float(where.pop("since", None), "since")
        self.until = _opt_float(where.pop("until", None), "until")
        self.racks = _int_list(where.pop("rack", None), "rack")
        self.slots = _int_list(where.pop("slot", None), "slot")
        self.nodes = _int_list(where.pop("node", None), "node")
        self.modes = _mode_list(where.pop("mode", None))
        if where:
            raise QueryError(
                f"unknown where keys {sorted(where)}; hint: rack, slot, "
                "node, mode, since, until"
            )
        if top_k is not None and int(top_k) <= 0:
            raise QueryError("top_k must be positive")
        self.top_k = None if top_k is None else int(top_k)
        self.group_by = self._normalise_group_by(tuple(group_by))
        self._validate()

    # -- normalisation -------------------------------------------------
    def _normalise_group_by(self, group_by: tuple) -> tuple:
        allowed = {
            "errors": ("rack", "slot", "bucket", "node", "bitpos", "bank"),
            "faults": ("rack", "slot", "mode", "bucket"),
            "mode_errors": ("mode",),
            "ce_windows": ("node", "window"),
            "dropout": (),
        }[self.select]
        for dim in group_by:
            if dim not in allowed:
                raise QueryError(
                    f"cannot group {self.select} by {dim!r}; hint: "
                    f"{', '.join(allowed) or 'no dimensions'}"
                )
        if len(set(group_by)) != len(group_by):
            raise QueryError("duplicate group_by dimension")
        if self.select == "ce_windows" and not group_by:
            return _CE_DIMS
        if self.select == "dropout":
            # one pseudo-dimension so the stat tallies carry named keys
            return ("stat",)
        order = {
            "errors": ("rack", "slot", "bucket", "node", "bitpos", "bank"),
            "faults": ("rack", "slot", "mode", "bucket"),
            "mode_errors": ("mode",),
            "ce_windows": _CE_DIMS,
            "dropout": (),
        }[self.select]
        return tuple(d for d in order if d in group_by)

    def _validate(self) -> None:
        g = set(self.group_by)
        has_time = self.since is not None or self.until is not None
        if self.select == "errors":
            solo = g & {"node", "bitpos", "bank"}
            if solo and (len(g) > 1 or g - solo):
                raise QueryError(
                    f"{sorted(solo)[0]} cannot be combined with other "
                    "group_by dimensions; hint: it lives in its own "
                    "histogram cube"
                )
            if "bitpos" in g or "bank" in g:
                if self.racks or self.slots or self.nodes or has_time:
                    raise QueryError(
                        "bit-position/bank histograms carry no rack/slot/"
                        "node/time axes; hint: drop the where filters"
                    )
            elif "node" in g or self.nodes is not None:
                if g - {"node"}:
                    raise QueryError(
                        "node filters answer from the per-node cube; hint: "
                        "group by node (or nothing), without rack/slot/bucket"
                    )
                if self.racks or self.slots or has_time:
                    raise QueryError(
                        "the per-node cube has no rack/slot/time axes; "
                        "hint: filter by rack/slot/time without node, or "
                        "by node alone"
                    )
            if self.modes:
                raise QueryError(
                    "errors carry no fault mode; hint: select mode_errors "
                    "or faults"
                )
        elif self.select == "faults":
            if self.nodes:
                raise QueryError(
                    "fault cubes have no node axis; hint: filter by "
                    "rack/slot instead"
                )
            use_mb = "bucket" in g or has_time
            if use_mb and (g - set(_FAULT_MB_DIMS) or self.racks or self.slots):
                raise QueryError(
                    "time-bucketed fault queries answer from the "
                    "mode x bucket cube; hint: group by mode and/or bucket "
                    "only, without rack/slot filters"
                )
        elif self.select == "mode_errors":
            if self.racks or self.slots or self.nodes or has_time:
                raise QueryError(
                    "mode_errors is a fleet-wide total; hint: only a mode "
                    "filter applies"
                )
        elif self.select == "ce_windows":
            if self.group_by != _CE_DIMS:
                raise QueryError(
                    "ce_windows groups by (node, window); hint: omit "
                    "--group-by or pass exactly node window"
                )
            if self.racks or self.slots or self.modes:
                raise QueryError(
                    "ce_windows filters by node and time only"
                )
        elif self.select == "dropout":
            if self.racks or self.slots or self.nodes or self.modes \
                    or has_time:
                raise QueryError(
                    "dropout takes no group_by or where; hint: it returns "
                    "the fleet-wide tallies"
                )

    # -- document form -------------------------------------------------
    def where_doc(self) -> dict:
        doc = {}
        if self.racks is not None:
            doc["rack"] = self.racks
        if self.slots is not None:
            doc["slot"] = self.slots
        if self.nodes is not None:
            doc["node"] = self.nodes
        if self.modes is not None:
            doc["mode"] = [FaultMode(m).label for m in self.modes]
        if self.since is not None:
            doc["since"] = self.since
        if self.until is not None:
            doc["until"] = self.until
        return doc

    def bucket_range(self, bucket_s: float) -> tuple:
        lo = None if self.since is None else int(np.floor(self.since / bucket_s))
        hi = None if self.until is None else int(np.floor(self.until / bucket_s))
        return lo, hi


def _opt_float(v, name: str):
    if v is None:
        return None
    try:
        return float(v)
    except (TypeError, ValueError) as exc:
        raise QueryError(f"{name} must be a number, got {v!r}") from exc


def _int_list(v, name: str):
    if v is None:
        return None
    if isinstance(v, (list, tuple, np.ndarray)):
        vals = [int(x) for x in v]
    else:
        vals = [int(v)]
    if not vals:
        return None
    if any(x < 0 for x in vals):
        raise QueryError(f"{name} filter values must be non-negative")
    return sorted(set(vals))


def _mode_list(v):
    if v is None:
        return None
    items = v if isinstance(v, (list, tuple)) else [v]
    out = set()
    for item in items:
        if isinstance(item, str):
            if item not in _MODE_BY_LABEL:
                raise QueryError(
                    f"unknown fault mode {item!r}; hint: one of "
                    f"{', '.join(m.label for m in FaultMode)}"
                )
            out.add(int(_MODE_BY_LABEL[item]))
        else:
            try:
                out.add(int(FaultMode(int(item))))
            except ValueError as exc:
                raise QueryError(
                    f"unknown fault mode {item!r}"
                ) from exc
    return sorted(out) if out else None


# ----------------------------------------------------------------------
# Shared deterministic formatting
# ----------------------------------------------------------------------
def _render_key(dim: str, value):
    if dim == "mode":
        return FaultMode(int(value)).label
    if dim == "stat":
        return str(value)
    return int(value)


def _format_answer(
    groups: dict, query: Query, config: RollupConfig, served_from: str
) -> dict:
    """groups: {key tuple (ints) -> count}; deterministic final doc."""
    items = sorted(groups.items())
    total = sum(v for _, v in items)
    if query.top_k is not None:
        items.sort(key=lambda kv: (-kv[1], kv[0]))
        items = items[: query.top_k]
    keys = [
        [_render_key(d, k) for d, k in zip(query.group_by, key)]
        for key, _ in items
    ]
    values = [v for _, v in items]
    return {
        "schema_version": QUERY_SCHEMA_VERSION,
        "select": query.select,
        "group_by": list(query.group_by),
        "where": query.where_doc(),
        "top_k": query.top_k,
        "bucket_s": config.bucket_s,
        "window_s": config.window_s,
        "keys": keys,
        "values": values,
        "n_groups": len(values),
        "total": total,
        "served_from": served_from,
    }


def answers_equal(a: dict, b: dict) -> bool:
    """Element-for-element identity, ignoring which path served it."""
    strip = lambda d: {k: v for k, v in d.items() if k != "served_from"}
    return strip(a) == strip(b)


def _emit_cube(sub: np.ndarray, dims: tuple, labels: list, group_by) -> dict:
    """Reduce a cube slice to {group key -> count} for ``group_by``."""
    drop = tuple(i for i, d in enumerate(dims) if d not in group_by)
    red = sub.sum(axis=drop) if drop else sub
    kept = [labels[i] for i, d in enumerate(dims) if d in group_by]
    if not group_by:
        return {(): int(red)}
    groups = {}
    nz = np.nonzero(red)
    vals = red[nz]
    for idx, v in zip(zip(*(a.tolist() for a in nz)), vals.tolist()):
        key = tuple(int(kept[i][j]) for i, j in enumerate(idx))
        groups[key] = int(v)
    return groups


def _axis_ids(filt, size: int) -> np.ndarray:
    if filt is None:
        return np.arange(size, dtype=np.int64)
    return np.array([i for i in filt if i < size], dtype=np.int64)


def _bucket_axis_ids(store_b0, n_buckets: int, lo, hi) -> np.ndarray:
    ids = np.arange(n_buckets, dtype=np.int64)
    if store_b0 is None:
        return ids
    absolute = store_b0 + ids
    mask = np.ones(n_buckets, dtype=bool)
    if lo is not None:
        mask &= absolute >= lo
    if hi is not None:
        mask &= absolute <= hi
    return ids[mask]


# ----------------------------------------------------------------------
# Fast path: answer from cube slices
# ----------------------------------------------------------------------
def execute(store: RollupStore, query: Query) -> dict:
    """Answer ``query`` from the store's cubes (no record access)."""
    from repro import obs

    with obs.span(
        "query.execute", transient=True,
        attrs={"select": query.select, "group_by": list(query.group_by)},
    ):
        groups = _execute_groups(store, query)
        obs.count("query.executed")
        return _format_answer(groups, query, store.config, "rollup")


def _execute_groups(store: RollupStore, query: Query) -> dict:
    c = store.config
    g = set(query.group_by)
    lo, hi = query.bucket_range(c.bucket_s)
    if query.select == "errors":
        if "bitpos" in g:
            hist = store.bitpos
            labels = np.arange(N_BITPOS, dtype=np.int64)
            labels[N_BITPOS - 1] = -1  # sentinel slot reads as NO_BIT
            return _emit_cube(hist, ("bitpos",), [labels], query.group_by)
        if "bank" in g:
            hist = store.bank
            labels = np.arange(N_BANKS, dtype=np.int64) - 1
            return _emit_cube(hist, ("bank",), [labels], query.group_by)
        if "node" in g or query.nodes is not None:
            ids = _axis_ids(query.nodes, store.n_nodes_seen)
            sub = store.node_errors[ids]
            return _emit_cube(sub, ("node",), [ids], query.group_by)
        racks = _axis_ids(query.racks, store.n_racks)
        slots = _axis_ids(query.slots, c.n_slots)
        buckets = _bucket_axis_ids(store.bucket0, store.n_buckets, lo, hi)
        sub = store.rack_slot_bucket[np.ix_(racks, slots, buckets)]
        b0 = 0 if store.bucket0 is None else store.bucket0
        return _emit_cube(
            sub, _ERROR_CUBE_DIMS, [racks, slots, b0 + buckets],
            query.group_by,
        )
    if query.select == "faults":
        modes = _axis_ids(query.modes, len(FaultMode))
        if "bucket" in g or lo is not None or hi is not None:
            buckets = _bucket_axis_ids(store.bucket0, store.n_buckets, lo, hi)
            sub = store.fault_mode_bucket[np.ix_(modes, buckets)]
            b0 = 0 if store.bucket0 is None else store.bucket0
            return _emit_cube(
                sub, _FAULT_MB_DIMS, [modes, b0 + buckets], query.group_by
            )
        racks = _axis_ids(query.racks, store.n_racks)
        slots = _axis_ids(query.slots, c.n_slots)
        sub = store.fault_rack_slot_mode[np.ix_(racks, slots, modes)]
        return _emit_cube(
            sub, _FAULT_RSM_DIMS, [racks, slots, modes], query.group_by
        )
    if query.select == "mode_errors":
        modes = _axis_ids(query.modes, len(FaultMode))
        sub = store.mode_error_totals[modes]
        return _emit_cube(sub, ("mode",), [modes], query.group_by)
    if query.select == "ce_windows":
        nodes, windows, counts = store.ce_window_items()
        return _ce_groups(nodes, windows, counts, query, c.window_s)
    # dropout
    t = store.sensor_tallies()
    return {
        ("dropouts",): t["dropouts"],
        ("gap_seconds",): float(t["gap_seconds"]),
        ("samples",): t["samples"],
    }


def _ce_groups(nodes, windows, counts, query: Query, window_s: float) -> dict:
    lo = None if query.since is None else int(np.floor(query.since / window_s))
    hi = None if query.until is None else int(np.floor(query.until / window_s))
    mask = np.ones(nodes.shape, dtype=bool)
    if query.nodes is not None:
        mask &= np.isin(nodes, np.array(query.nodes, dtype=np.int64))
    if lo is not None:
        mask &= windows >= lo
    if hi is not None:
        mask &= windows <= hi
    return {
        (int(n), int(w)): int(v)
        for n, w, v in zip(nodes[mask], windows[mask], counts[mask])
    }


# ----------------------------------------------------------------------
# Slow oracle: answer from the raw records
# ----------------------------------------------------------------------
def recompute(
    query: Query,
    config: RollupConfig,
    errors: np.ndarray | None = None,
    faults: np.ndarray | None = None,
    sensor_times: np.ndarray | None = None,
) -> dict:
    """Answer ``query`` by a full rescan of the raw arrays.

    Independent aggregation code: filtered column extraction plus
    ``np.unique`` counting, no cube involved.  Feeding it the same
    records the store consumed must reproduce :func:`execute`'s answer
    exactly (``answers_equal``).
    """
    from repro import obs

    groups = _recompute_groups(query, config, errors, faults, sensor_times)
    obs.count("query.rescans")
    return _format_answer(groups, query, config, "rescan")


def _need(arr, what: str, query: Query):
    if arr is None:
        raise QueryError(
            f"recomputing a {query.select} query needs the {what} array"
        )
    return arr


def _recompute_groups(query, config, errors, faults, sensor_times) -> dict:
    c = config
    g = query.group_by
    if query.select == "errors":
        errors = _need(errors, "errors", query)
        if errors.dtype != ERROR_DTYPE:
            raise QueryError(f"expected ERROR_DTYPE, got {errors.dtype}")
        cols = {}
        if errors.size:
            nodes = errors["node"].astype(np.int64)
            bits = errors["bit_pos"].astype(np.int64)
            cols = {
                "rack": nodes // c.nodes_per_rack,
                "slot": errors["slot"].astype(np.int64),
                "bucket": np.floor(
                    errors["time"] / c.bucket_s
                ).astype(np.int64),
                "node": nodes,
                "bitpos": np.where(
                    (bits < 0) | (bits >= N_BITPOS - 1), -1, bits
                ),
                "bank": np.clip(
                    errors["bank"].astype(np.int64), -1, N_BANKS - 2
                ),
            }
        mask = _where_mask(query, cols, errors.size, c)
        return _count_groups(g, cols, mask)
    if query.select == "faults":
        faults = _need(faults, "faults", query)
        if faults.dtype != FAULT_DTYPE:
            raise QueryError(f"expected FAULT_DTYPE, got {faults.dtype}")
        cols = {}
        if faults.size:
            nodes = faults["node"].astype(np.int64)
            cols = {
                "rack": nodes // c.nodes_per_rack,
                "slot": faults["slot"].astype(np.int64),
                "mode": faults["mode"].astype(np.int64),
                "bucket": np.floor(
                    faults["first_time"] / c.bucket_s
                ).astype(np.int64),
            }
        mask = _where_mask(query, cols, faults.size, c)
        return _count_groups(g, cols, mask)
    if query.select == "mode_errors":
        faults = _need(faults, "faults", query)
        sums = np.zeros(len(FaultMode), dtype=np.int64)
        if faults.size:
            modes = faults["mode"].astype(np.int64)
            weights = faults["n_errors"].astype(np.int64)
            if query.modes is not None:
                keep = np.isin(modes, np.array(query.modes, dtype=np.int64))
                modes, weights = modes[keep], weights[keep]
            np.add.at(sums, modes, weights)
        if g:
            return {(int(m),): int(sums[m]) for m in np.nonzero(sums)[0]}
        return {(): int(sums.sum())}
    if query.select == "ce_windows":
        errors = _need(errors, "errors", query)
        if errors.size == 0:
            return {}
        nodes = errors["node"].astype(np.int64)
        windows = np.floor(errors["time"] / c.window_s).astype(np.int64)
        stacked = np.stack([nodes, windows], axis=1)
        uniq, counts = np.unique(stacked, axis=0, return_counts=True)
        return _ce_groups(
            uniq[:, 0], uniq[:, 1], counts.astype(np.int64), query, c.window_s
        )
    # dropout
    sensor_times = _need(sensor_times, "sensor_times", query)
    ts = np.unique(np.asarray(sensor_times, dtype=np.float64))
    prev = None
    n_drop = 0
    gap_s = 0.0
    for t in ts.tolist():
        if prev is not None and t > prev and (t - prev) > DROPOUT_GAP_S:
            n_drop += 1
            gap_s += t - prev
        prev = t if prev is None else max(prev, t)
    return {
        ("dropouts",): n_drop,
        ("gap_seconds",): float(gap_s),
        ("samples",): int(np.asarray(sensor_times).size),
    }


def _where_mask(query: Query, cols: dict, n: int, c: RollupConfig):
    mask = np.ones(n, dtype=bool)
    if not n:
        return mask
    for name, vals in (
        ("rack", query.racks),
        ("slot", query.slots),
        ("node", query.nodes),
        ("mode", query.modes),
    ):
        if vals is not None and name in cols:
            mask &= np.isin(cols[name], np.array(vals, dtype=np.int64))
    lo, hi = query.bucket_range(c.bucket_s)
    if lo is not None and "bucket" in cols:
        mask &= cols["bucket"] >= lo
    if hi is not None and "bucket" in cols:
        mask &= cols["bucket"] <= hi
    return mask


def _count_groups(group_by: tuple, cols: dict, mask: np.ndarray) -> dict:
    if not group_by:
        return {(): int(mask.sum())}
    if not mask.size or not mask.any():
        return {}
    stacked = np.stack([cols[d][mask] for d in group_by], axis=1)
    uniq, counts = np.unique(stacked, axis=0, return_counts=True)
    return {
        tuple(int(x) for x in row): int(v)
        for row, v in zip(uniq, counts)
    }


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def build_store(
    errors: np.ndarray,
    faults: np.ndarray | None = None,
    config: RollupConfig | None = None,
    sensor_samples: np.ndarray | None = None,
    source: str = "batch",
    policy: str | None = None,
) -> RollupStore:
    """One-shot store from whole arrays (the rescan-equivalent build)."""
    store = RollupStore(config)
    store.source = source
    store.policy = policy
    store.update(errors)
    if sensor_samples is not None:
        store.observe_sensors(sensor_samples)
    if faults is not None:
        store.set_faults(faults)
    return store
