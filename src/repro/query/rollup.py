"""Incrementally maintained, exactly mergeable rollup cubes.

A :class:`RollupStore` holds fixed-schema NumPy aggregates over a
campaign's error/fault history, sized so that every dashboard/query
question in ROADMAP's "query layer" item is a cube slice, never a log
rescan:

``node_errors``
    int64[n_nodes] -- CE count per node (fig05's per-node totals).
``rack_slot_bucket``
    int64[n_racks, n_slots, n_buckets] -- CE counts by rack x DIMM slot
    x time bucket (fig12's per-rack series, heatmaps, time windows).
``bitpos`` / ``bank``
    int64[73] / int64[129] -- histograms over codeword bit position and
    DRAM bank, with one slot reserved for the unparseable sentinel.
``ce_windows``
    sparse {(node, window) -> count} over epoch-aligned windows of
    ``window_s`` seconds -- the ``ce_rate`` alert's counting domain.
``fault_rack_slot_mode`` / ``fault_mode_bucket`` / ``mode_error_totals``
    fault-level cubes (counts by rack x slot x mode, mode x first-seen
    bucket, and errors attributed per mode -- fig04's totals).
``sensor`` tallies
    BMC sample count plus dropout count/seconds from the same
    high-water-mark walk the ``sensor_dropout`` alert rule performs.

Two invariants make the store safe to maintain online and to shard:

*Additivity.*  Error cubes are updated per batch with pure ``+=`` of
bincounts, so any split of the record stream into batches -- or of the
fleet into per-rack shards -- produces byte-identical cubes after
:meth:`RollupStore.merge`.  Fault cubes are *not* batch-additive (a
group's mode changes as evidence arrives), so they are refreshed from
the coalescer's live fault snapshot via :meth:`RollupStore.set_faults`
at snapshot points; per-shard fault cubes still merge exactly because
coalescing groups never span racks (DESIGN.md section 11).

*Atomic versioned snapshots.*  :meth:`RollupStore.snapshot` writes both
the immutable ``rollup-NNNNNN.npz`` payload and the ``rollup.json``
manifest that names it with :func:`repro._util.atomic_write`, payload
first, so a reader either loads a complete previous version or a
complete new one -- never torn bytes.
Old versions are pruned only after the manifest stops referencing
them, and readers retry on the resulting (benign) race.
"""

from __future__ import annotations

import io
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import ReproError
from repro._util import atomic_write, mismatch
from repro.faults.types import ERROR_DTYPE, FAULT_DTYPE, FaultMode
from repro.logs.bmc import dropout_gaps
from repro.logs.integrity import crc32c

#: Bump on any change to the snapshot payload or manifest layout.
ROLLUP_SCHEMA_VERSION = 1

#: Manifest file naming the current snapshot version (atomic pointer).
MANIFEST_NAME = "rollup.json"

#: Snapshot versions retained after a new one lands (current + previous).
KEEP_VERSIONS = 2

#: Codeword bit positions 0..71 plus one sentinel slot (index 72).
N_BITPOS = 73
#: Bank ids 0..127 at indices 1..128; sentinel/unparseable at index 0.
N_BANKS = 129

_N_MODES = len(FaultMode)
#: Composite (node, window) key base; bounds checked in update().
_CE_KEY_BASE = 1 << 34
_MAX_NODE = 1 << 29


class RollupError(ReproError, RuntimeError):
    """A rollup cube could not be built, merged, or loaded."""


@dataclass(frozen=True)
class RollupConfig:
    """Cube geometry; two stores merge only if their configs match."""

    #: Nodes per rack (Astra: 18 chassis x 4 nodes, rack-major ids).
    nodes_per_rack: int = 72
    #: DIMM slots per node.
    n_slots: int = 16
    #: Width of the rack/slot time bucket, seconds (default: one day).
    bucket_s: float = 86400.0
    #: Width of the CE-rate window, seconds (the ce_rate alert default).
    window_s: float = 3600.0
    #: Expected BMC sample cadence, seconds.
    dropout_cadence_s: float = 60.0
    #: Gap (in cadences) beyond which sensor silence is a dropout.
    dropout_min_gap: float = 3.0

    def to_dict(self) -> dict:
        return {
            "nodes_per_rack": self.nodes_per_rack,
            "n_slots": self.n_slots,
            "bucket_s": self.bucket_s,
            "window_s": self.window_s,
            "dropout_cadence_s": self.dropout_cadence_s,
            "dropout_min_gap": self.dropout_min_gap,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RollupConfig":
        return cls(
            nodes_per_rack=int(d["nodes_per_rack"]),
            n_slots=int(d["n_slots"]),
            bucket_s=float(d["bucket_s"]),
            window_s=float(d["window_s"]),
            dropout_cadence_s=float(d["dropout_cadence_s"]),
            dropout_min_gap=float(d["dropout_min_gap"]),
        )


class RollupStore:
    """Mergeable rollup cubes with versioned atomic snapshots."""

    def __init__(self, config: RollupConfig | None = None):
        self.config = config or RollupConfig()
        if self.config.nodes_per_rack <= 0 or self.config.n_slots <= 0:
            raise RollupError("nodes_per_rack and n_slots must be positive")
        if self.config.bucket_s <= 0 or self.config.window_s <= 0:
            raise RollupError("bucket_s and window_s must be positive")
        c = self.config
        self.errors_seen = 0
        self.batches = 0
        self.n_faults = 0
        #: Free-text provenance ("batch", "stream", "fleet"); not compared.
        self.source = "batch"
        #: Ingest policy the records came through; informational only.
        self.policy: str | None = None
        self._bucket0: int | None = None
        self.node_errors = np.zeros(0, dtype=np.int64)
        self.rack_slot_bucket = np.zeros((0, c.n_slots, 0), dtype=np.int64)
        self.bitpos = np.zeros(N_BITPOS, dtype=np.int64)
        self.bank = np.zeros(N_BANKS, dtype=np.int64)
        self.fault_rack_slot_mode = np.zeros(
            (0, c.n_slots, _N_MODES), dtype=np.int64
        )
        self.fault_mode_bucket = np.zeros((_N_MODES, 0), dtype=np.int64)
        self.mode_error_totals = np.zeros(_N_MODES, dtype=np.int64)
        self._ce_windows: dict[int, int] = {}
        self.sensor_samples = 0
        self.dropout_count = 0
        self.dropout_seconds = 0.0
        self._sensor_watermark: float | None = None

    # -- extents -------------------------------------------------------
    @property
    def n_racks(self) -> int:
        return self.rack_slot_bucket.shape[0]

    @property
    def n_nodes_seen(self) -> int:
        return self.node_errors.size

    @property
    def n_buckets(self) -> int:
        return self.rack_slot_bucket.shape[2]

    @property
    def bucket0(self) -> int | None:
        return self._bucket0

    def bucket_ids(self) -> np.ndarray:
        """Absolute time-bucket ids covered by the time axis."""
        if self._bucket0 is None:
            return np.zeros(0, dtype=np.int64)
        return self._bucket0 + np.arange(self.n_buckets, dtype=np.int64)

    # -- growth --------------------------------------------------------
    def _grow_nodes(self, max_node: int) -> None:
        npr = self.config.nodes_per_rack
        need = max_node // npr + 1
        if need <= self.n_racks:
            return
        add = need - self.n_racks
        self.node_errors = np.concatenate(
            [self.node_errors, np.zeros(add * npr, dtype=np.int64)]
        )
        self.rack_slot_bucket = np.concatenate(
            [
                self.rack_slot_bucket,
                np.zeros(
                    (add, self.config.n_slots, self.n_buckets),
                    dtype=np.int64,
                ),
            ]
        )
        self.fault_rack_slot_mode = np.concatenate(
            [
                self.fault_rack_slot_mode,
                np.zeros((add, self.config.n_slots, _N_MODES), np.int64),
            ]
        )

    def _grow_time(self, bmin: int, bmax: int) -> None:
        if self._bucket0 is None:
            self._bucket0 = bmin
            nb = bmax - bmin + 1
            self.rack_slot_bucket = np.zeros(
                (self.n_racks, self.config.n_slots, nb), dtype=np.int64
            )
            self.fault_mode_bucket = np.zeros((_N_MODES, nb), np.int64)
            return
        new0 = min(self._bucket0, bmin)
        new_end = max(self._bucket0 + self.n_buckets - 1, bmax)
        left = self._bucket0 - new0
        right = new_end - (self._bucket0 + self.n_buckets - 1)
        if left == 0 and right == 0:
            return
        self.rack_slot_bucket = np.pad(
            self.rack_slot_bucket, ((0, 0), (0, 0), (left, right))
        )
        self.fault_mode_bucket = np.pad(
            self.fault_mode_bucket, ((0, 0), (left, right))
        )
        self._bucket0 = new0

    # -- incremental maintenance ---------------------------------------
    def update(self, errors: np.ndarray, node_offset: int = 0) -> None:
        """Fold one batch of CE records into the error cubes.

        Pure ``+=`` of bincounts: folding the same records in any batch
        split (or per shard with ``node_offset``, then merging) yields
        byte-identical cubes.
        """
        if errors.dtype != ERROR_DTYPE:
            raise RollupError(f"expected ERROR_DTYPE, got {errors.dtype}")
        self.batches += 1
        if errors.size == 0:
            return
        c = self.config
        nodes = errors["node"].astype(np.int64) + int(node_offset)
        if int(nodes.min()) < 0 or int(nodes.max()) >= _MAX_NODE:
            raise RollupError("node id out of rollup range")
        slots = errors["slot"].astype(np.int64)
        if int(slots.min()) < 0 or int(slots.max()) >= c.n_slots:
            raise RollupError(
                f"slot out of range for n_slots={c.n_slots}"
            )
        times = errors["time"]
        buckets = np.floor(times / c.bucket_s).astype(np.int64)
        windows = np.floor(times / c.window_s).astype(np.int64)
        if int(windows.min()) < 0 or int(windows.max()) >= _CE_KEY_BASE:
            raise RollupError("error time out of rollup range")
        self._grow_nodes(int(nodes.max()))
        self._grow_time(int(buckets.min()), int(buckets.max()))

        self.node_errors += np.bincount(
            nodes, minlength=self.node_errors.size
        )

        nb = self.n_buckets
        flat = (
            (nodes // c.nodes_per_rack) * (c.n_slots * nb)
            + slots * nb
            + (buckets - self._bucket0)
        )
        view = self.rack_slot_bucket.reshape(-1)
        counts = np.bincount(flat)
        view[: counts.size] += counts

        bits = errors["bit_pos"].astype(np.int64)
        bits = np.where((bits < 0) | (bits >= N_BITPOS - 1), N_BITPOS - 1, bits)
        self.bitpos += np.bincount(bits, minlength=N_BITPOS)
        banks = np.clip(errors["bank"].astype(np.int64), -1, N_BANKS - 2) + 1
        self.bank += np.bincount(banks, minlength=N_BANKS)

        keys, kcounts = np.unique(
            nodes * _CE_KEY_BASE + windows, return_counts=True
        )
        wins = self._ce_windows
        for k, n in zip(keys.tolist(), kcounts.tolist()):
            wins[k] = wins.get(k, 0) + n

        self.errors_seen += int(errors.size)
        from repro import obs

        obs.count("rollup.update.batches")
        obs.count("rollup.update.errors", int(errors.size))

    def observe_sensors(self, samples: np.ndarray) -> None:
        """Fold BMC samples into the dropout tallies.

        Runs the ``sensor_dropout`` alert rule's walk
        (:func:`repro.logs.bmc.dropout_gaps`, same gap limit, same
        watermark), so the tallies agree with the alert stream record
        for record.
        """
        if samples.size == 0:
            return
        starts, ends, self._sensor_watermark = dropout_gaps(
            samples["time"],
            self.config.dropout_min_gap * self.config.dropout_cadence_s,
            self._sensor_watermark,
        )
        gap_s = 0.0
        for gap in (ends - starts).tolist():  # a running sum, in time order
            gap_s += gap
        self.sensor_samples += int(samples.size)
        self.dropout_count += int(starts.size)
        self.dropout_seconds += gap_s

    def set_faults(self, faults: np.ndarray, node_offset: int = 0) -> None:
        """Refresh the fault cubes from a coalesced fault snapshot.

        Fault cubes cannot be maintained additively per batch (a group's
        mode is revised as evidence arrives), so they are rebuilt from
        the authoritative snapshot -- O(n_faults), no log rescan.
        """
        if faults.dtype != FAULT_DTYPE:
            raise RollupError(f"expected FAULT_DTYPE, got {faults.dtype}")
        c = self.config
        self.fault_rack_slot_mode[:] = 0
        self.fault_mode_bucket[:] = 0
        self.mode_error_totals[:] = 0
        self.n_faults = int(faults.size)
        if faults.size == 0:
            return
        nodes = faults["node"].astype(np.int64) + int(node_offset)
        if int(nodes.min()) < 0:
            raise RollupError("fault node id out of rollup range")
        slots = faults["slot"].astype(np.int64)
        if int(slots.min()) < 0 or int(slots.max()) >= c.n_slots:
            raise RollupError(f"slot out of range for n_slots={c.n_slots}")
        modes = faults["mode"].astype(np.int64)
        buckets = np.floor(faults["first_time"] / c.bucket_s).astype(np.int64)
        self._grow_nodes(int(nodes.max()))
        self._grow_time(int(buckets.min()), int(buckets.max()))
        nb = self.n_buckets

        flat = (
            (nodes // c.nodes_per_rack) * (c.n_slots * _N_MODES)
            + slots * _N_MODES
            + modes
        )
        view = self.fault_rack_slot_mode.reshape(-1)
        counts = np.bincount(flat)
        view[: counts.size] += counts

        flat2 = modes * nb + (buckets - self._bucket0)
        view2 = self.fault_mode_bucket.reshape(-1)
        counts2 = np.bincount(flat2)
        view2[: counts2.size] += counts2

        np.add.at(self.mode_error_totals, modes, faults["n_errors"])

    # -- merge ---------------------------------------------------------
    def merge(self, other: "RollupStore") -> None:
        """Fold another store's cubes into this one, exactly.

        Requires identical configs.  Error cubes add element-wise; the
        sensor watermark takes the max (exact for the fleet case, where
        at most one shard stream carries sensors).
        """
        if other.config != self.config:
            raise mismatch(
                RollupError, "rollup config", other.config.to_dict(),
                self.config.to_dict(),
                "rebuild one side with the same cube geometry",
            )
        self.errors_seen += other.errors_seen
        self.batches += other.batches
        self.n_faults += other.n_faults
        self.sensor_samples += other.sensor_samples
        self.dropout_count += other.dropout_count
        self.dropout_seconds += other.dropout_seconds
        if other._sensor_watermark is not None:
            w = self._sensor_watermark
            self._sensor_watermark = (
                other._sensor_watermark
                if w is None
                else max(w, other._sensor_watermark)
            )
        self.bitpos += other.bitpos
        self.bank += other.bank
        self.mode_error_totals += other.mode_error_totals
        if other.n_nodes_seen:
            self._grow_nodes(other.n_nodes_seen - 1)
            self.node_errors[: other.n_nodes_seen] += other.node_errors
            self.fault_rack_slot_mode[: other.n_racks] += (
                other.fault_rack_slot_mode
            )
        if other._bucket0 is not None:
            self._grow_time(
                other._bucket0, other._bucket0 + other.n_buckets - 1
            )
            off = other._bucket0 - self._bucket0
            sl = slice(off, off + other.n_buckets)
            self.rack_slot_bucket[: other.n_racks, :, sl] += (
                other.rack_slot_bucket
            )
            self.fault_mode_bucket[:, sl] += other.fault_mode_bucket
        wins = self._ce_windows
        for k, n in other._ce_windows.items():
            wins[k] = wins.get(k, 0) + n

    # -- read views ----------------------------------------------------
    def node_errors_padded(self, n_nodes: int) -> np.ndarray:
        """Per-node CE counts padded with zeros to ``n_nodes``."""
        if self.n_nodes_seen > n_nodes:
            raise RollupError(
                f"rollup covers {self.n_nodes_seen} nodes, "
                f"caller asked for {n_nodes}"
            )
        out = np.zeros(n_nodes, dtype=np.int64)
        out[: self.n_nodes_seen] = self.node_errors
        return out

    def rack_error_totals(self, n_racks: int | None = None) -> np.ndarray:
        """Per-rack CE totals, optionally padded to ``n_racks``."""
        totals = self.rack_slot_bucket.sum(axis=(1, 2))
        if n_racks is None:
            return totals
        if totals.size > n_racks:
            raise RollupError(
                f"rollup covers {totals.size} racks, "
                f"caller asked for {n_racks}"
            )
        out = np.zeros(n_racks, dtype=np.int64)
        out[: totals.size] = totals
        return out

    def ce_window_items(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(nodes, windows, counts) of nonempty CE-rate windows, sorted."""
        if not self._ce_windows:
            z = np.zeros(0, dtype=np.int64)
            return z, z.copy(), z.copy()
        n = len(self._ce_windows)
        # keys() and values() iterate in the same (insertion) order, so
        # one argsort aligns both without per-key dict lookups.
        keys = np.fromiter(self._ce_windows.keys(), dtype=np.int64, count=n)
        counts = np.fromiter(
            self._ce_windows.values(), dtype=np.int64, count=n
        )
        order = np.argsort(keys)
        keys = keys[order]
        return keys // _CE_KEY_BASE, keys % _CE_KEY_BASE, counts[order]

    def sensor_tallies(self) -> dict:
        return {
            "samples": int(self.sensor_samples),
            "dropouts": int(self.dropout_count),
            "gap_seconds": float(self.dropout_seconds),
            "watermark": (
                None
                if self._sensor_watermark is None
                else float(self._sensor_watermark)
            ),
        }

    def equal(self, other: "RollupStore") -> bool:
        """Strict data equality (provenance fields excluded)."""
        if self.config != other.config:
            return False
        if (
            self.errors_seen != other.errors_seen
            or self.n_faults != other.n_faults
            or self._bucket0 != other._bucket0
            or self.sensor_tallies() != other.sensor_tallies()
        ):
            return False
        for name in (
            "node_errors",
            "rack_slot_bucket",
            "bitpos",
            "bank",
            "fault_rack_slot_mode",
            "fault_mode_bucket",
            "mode_error_totals",
        ):
            a, b = getattr(self, name), getattr(other, name)
            if a.shape != b.shape or not np.array_equal(a, b):
                return False
        return self._ce_windows == other._ce_windows

    # -- (de)serialisation ---------------------------------------------
    def _export(self) -> tuple[dict, dict]:
        meta = {
            "schema_version": ROLLUP_SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "errors_seen": int(self.errors_seen),
            "batches": int(self.batches),
            "n_faults": int(self.n_faults),
            "n_racks": int(self.n_racks),
            "n_nodes": int(self.n_nodes_seen),
            "bucket0": self._bucket0,
            "n_buckets": int(self.n_buckets),
            "source": self.source,
            "policy": self.policy,
            "sensor": self.sensor_tallies(),
        }
        rack_ids = np.flatnonzero(self.rack_slot_bucket.any(axis=(1, 2)))
        frack_ids = np.flatnonzero(self.fault_rack_slot_mode.any(axis=(1, 2)))
        node_ids = np.flatnonzero(self.node_errors)
        keys = np.array(sorted(self._ce_windows), dtype=np.int64)
        arrays = {
            "rack_ids": rack_ids.astype(np.int64),
            "rack_slot_bucket": self.rack_slot_bucket[rack_ids],
            "fault_rack_ids": frack_ids.astype(np.int64),
            "fault_rack_slot_mode": self.fault_rack_slot_mode[frack_ids],
            "node_ids": node_ids.astype(np.int64),
            "node_errors": self.node_errors[node_ids],
            "bitpos": self.bitpos,
            "bank": self.bank,
            "fault_mode_bucket": self.fault_mode_bucket,
            "mode_error_totals": self.mode_error_totals,
            "window_keys": keys,
            "window_counts": np.array(
                [self._ce_windows[int(k)] for k in keys], dtype=np.int64
            ),
        }
        return meta, arrays

    @classmethod
    def _import(cls, meta: dict, arrays: dict) -> "RollupStore":
        version = meta.get("schema_version")
        if version != ROLLUP_SCHEMA_VERSION:
            raise mismatch(
                RollupError, "rollup schema_version", repr(version),
                ROLLUP_SCHEMA_VERSION,
                "rebuild the snapshot with 'repro query --build' (or re-run "
                "the stream with --rollups-dir) using this version of the "
                "code",
            )
        store = cls(RollupConfig.from_dict(meta["config"]))
        c = store.config
        store.errors_seen = int(meta["errors_seen"])
        store.batches = int(meta["batches"])
        store.n_faults = int(meta["n_faults"])
        store.source = str(meta.get("source", "batch"))
        store.policy = meta.get("policy")
        n_racks = int(meta["n_racks"])
        nb = int(meta["n_buckets"])
        store._bucket0 = (
            None if meta["bucket0"] is None else int(meta["bucket0"])
        )
        store.node_errors = np.zeros(n_racks * c.nodes_per_rack, np.int64)
        store.node_errors[arrays["node_ids"]] = arrays["node_errors"]
        store.rack_slot_bucket = np.zeros((n_racks, c.n_slots, nb), np.int64)
        store.rack_slot_bucket[arrays["rack_ids"]] = (
            arrays["rack_slot_bucket"]
        )
        store.fault_rack_slot_mode = np.zeros(
            (n_racks, c.n_slots, _N_MODES), np.int64
        )
        store.fault_rack_slot_mode[arrays["fault_rack_ids"]] = (
            arrays["fault_rack_slot_mode"]
        )
        store.bitpos = arrays["bitpos"].astype(np.int64)
        store.bank = arrays["bank"].astype(np.int64)
        store.fault_mode_bucket = (
            arrays["fault_mode_bucket"].astype(np.int64).reshape(_N_MODES, nb)
        )
        store.mode_error_totals = (
            arrays["mode_error_totals"].astype(np.int64)
        )
        store._ce_windows = dict(
            zip(
                arrays["window_keys"].astype(np.int64).tolist(),
                arrays["window_counts"].astype(np.int64).tolist(),
            )
        )
        sensor = meta["sensor"]
        store.sensor_samples = int(sensor["samples"])
        store.dropout_count = int(sensor["dropouts"])
        store.dropout_seconds = float(sensor["gap_seconds"])
        w = sensor["watermark"]
        store._sensor_watermark = None if w is None else float(w)
        return store

    def to_payload(self) -> dict:
        """Compact picklable form for cross-process shipping (fleet IPC)."""
        meta, arrays = self._export()
        return {"meta": meta, "arrays": arrays}

    @classmethod
    def from_payload(cls, payload: dict) -> "RollupStore":
        return cls._import(payload["meta"], payload["arrays"])

    def merge_payload(self, payload: dict) -> None:
        self.merge(self.from_payload(payload))

    def _payload_bytes(self) -> bytes:
        meta, arrays = self._export()
        buf = io.BytesIO()
        meta_raw = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )
        np.savez(buf, __meta__=meta_raw, **arrays)
        return buf.getvalue()

    # -- snapshots -----------------------------------------------------
    def snapshot(self, directory: str | os.PathLike) -> int:
        """Atomically persist a new immutable version; returns its number.

        Crash ordering: (1) the ``rollup-NNNNNN.npz`` payload is made
        durable (:func:`~repro._util.atomic_write`) *before* (2) the
        manifest is atomically replaced to point at it, and (3) only
        then are versions older than :data:`KEEP_VERSIONS` pruned.  A
        crash in any window leaves either the previous manifest naming
        an intact previous payload, or the new manifest naming an intact
        new payload -- a reader can never observe a torn cube.
        """
        from repro import obs

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = _read_manifest(directory)
        if manifest is None:
            manifest = {
                "schema_version": ROLLUP_SCHEMA_VERSION,
                "config": self.config.to_dict(),
                "latest": 0,
                "versions": {},
            }
        found = RollupConfig.from_dict(manifest["config"])
        if found != self.config:
            raise mismatch(
                RollupError, f"{directory / MANIFEST_NAME}: rollup config",
                found.to_dict(), self.config.to_dict(),
                "snapshot into a fresh directory or rebuild the existing "
                "one with the same cube geometry",
            )
        version = int(manifest["latest"]) + 1
        name = f"rollup-{version:06d}.npz"
        payload = self._payload_bytes()
        with obs.span(
            "rollup.snapshot", transient=True,
            attrs={"version": version, "bytes": len(payload)},
        ):
            atomic_write(directory / name, payload)
            manifest["latest"] = version
            manifest["versions"][str(version)] = {
                "file": name,
                "crc32c": crc32c(payload),
                "bytes": len(payload),
                "errors_seen": int(self.errors_seen),
                "n_faults": int(self.n_faults),
                "source": self.source,
                "policy": self.policy,
                "created": time.time(),
            }
            keep = {
                str(v)
                for v in range(max(1, version - KEEP_VERSIONS + 1), version + 1)
            }
            pruned = [
                entry["file"]
                for v, entry in manifest["versions"].items()
                if v not in keep
            ]
            manifest["versions"] = {
                v: entry
                for v, entry in manifest["versions"].items()
                if v in keep
            }
            atomic_write(
                directory / MANIFEST_NAME,
                json.dumps(manifest, indent=1, sort_keys=True).encode(),
            )
            for name_ in pruned:
                try:
                    os.unlink(directory / name_)
                except OSError:
                    pass
        obs.count("rollup.snapshots")
        return version

    @classmethod
    def load(
        cls,
        directory: str | os.PathLike,
        version: int | None = None,
        config: RollupConfig | None = None,
    ) -> "RollupStore":
        """Load a snapshot; digest-verified, torn-read-safe.

        With ``version=None`` the manifest's latest version is loaded.
        A reader racing a writer may find the manifest's file already
        pruned or half-visible; it retries against a re-read manifest a
        few times before giving up.
        """
        directory = Path(directory)
        last_error = None
        for _ in range(3):
            manifest = _read_manifest(directory)
            if manifest is None:
                raise RollupError(
                    f"{directory / MANIFEST_NAME}: no rollup snapshot found;"
                    " hint: build one with 'repro stream ... --rollups-dir'"
                    " or 'repro query ... --build'"
                )
            mversion = manifest.get("schema_version")
            if mversion != ROLLUP_SCHEMA_VERSION:
                raise mismatch(
                    RollupError,
                    f"{directory / MANIFEST_NAME}: manifest schema_version",
                    repr(mversion), ROLLUP_SCHEMA_VERSION,
                    "rebuild the snapshot with this version of the code "
                    "('repro query --build')",
                )
            want = int(manifest["latest"]) if version is None else int(version)
            entry = manifest["versions"].get(str(want))
            if entry is None:
                held = ", ".join(sorted(manifest["versions"])) or "none"
                raise mismatch(
                    RollupError,
                    f"{directory / MANIFEST_NAME}: rollup snapshot version",
                    f"versions [{held}]", want,
                    "the requested version was pruned or never written -- "
                    "resume from a newer checkpoint, or rebuild with "
                    "'repro query --build'",
                )
            path = directory / entry["file"]
            try:
                raw = path.read_bytes()
            except FileNotFoundError as exc:
                last_error = RollupError(
                    f"{path}: rollup payload vanished mid-read ({exc}); "
                    "hint: a concurrent writer pruned it -- retry, or load "
                    "the latest version"
                )
                continue
            digest = crc32c(raw)
            if digest != entry["crc32c"]:
                last_error = mismatch(
                    RollupError, f"{path}: rollup digest", digest,
                    entry["crc32c"],
                    "the snapshot is torn or corrupt -- re-run the writer "
                    "or rebuild with 'repro query --build'",
                )
                continue
            with np.load(io.BytesIO(raw)) as npz:
                arrays = {k: npz[k] for k in npz.files if k != "__meta__"}
                meta = json.loads(bytes(npz["__meta__"]).decode("utf-8"))
            store = cls._import(meta, arrays)
            if config is not None and store.config != config:
                raise mismatch(
                    RollupError, f"{path}: rollup config",
                    store.config.to_dict(), config.to_dict(),
                    "rebuild the snapshot with the requested geometry, or "
                    "drop the overriding flags",
                )
            return store
        raise last_error  # pragma: no cover - needs a pathological racer

    @staticmethod
    def latest_version(directory: str | os.PathLike) -> int | None:
        """The manifest's latest version number, or None when absent."""
        manifest = _read_manifest(Path(directory))
        return None if manifest is None else int(manifest["latest"])


def _read_manifest(directory: Path) -> dict | None:
    try:
        raw = (directory / MANIFEST_NAME).read_text()
    except FileNotFoundError:
        return None
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise RollupError(
            f"{directory / MANIFEST_NAME}: corrupt rollup manifest ({exc}); "
            "hint: rebuild the snapshot with 'repro query --build'"
        ) from exc
    if not isinstance(doc, dict):
        raise RollupError(
            f"{directory / MANIFEST_NAME}: rollup manifest must be a JSON "
            "object; hint: rebuild the snapshot with 'repro query --build'"
        )
    return doc
