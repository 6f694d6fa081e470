"""The per-shard attempt ledger and the shard-result cache.

Crash-safe fleet execution rests on two pieces of persistence inside the
fleet directory:

- ``fleet-ledger.jsonl`` (:class:`FleetLedger`): an append-only record
  of everything the supervisor decided -- the task plan, every attempt,
  every commit (with the result digest), every quarantine.  Appends are
  atomic at the line level (one ``os.write`` of one ``\\n``-terminated
  line on an ``O_APPEND`` fd, fsynced), so a ``kill -9`` can at worst
  tear the *final* line; :meth:`FleetLedger.read` tolerates exactly
  that and reports anything else it skipped.

- ``fleet-cache/`` (:class:`ShardResultCache`): one ``.npz`` per
  committed shard holding the reduced artefacts (fault array, per-mode
  counts, ingest accounting).  Files are written with
  :func:`repro._util.atomic_write`, and the ledger's commit line
  records the CRC-32C of the file bytes -- so ``--resume`` trusts a
  cached result only when its digest matches, and a torn cache write
  (crash between rename and durability, or an injected
  ``checkpoint-tear``) simply re-runs that shard instead of poisoning
  the reduction.

Resuming replays nothing: committed shards load their cached artefacts,
uncommitted ones re-run, and the final reduction is byte-identical to
an uninterrupted run because :func:`repro.faults.coalesce.
merge_shard_faults` is order-exact over the same per-shard inputs.

The line format is validated in CI against
``schemas/ledger.schema.json`` (via ``python -m repro.obs.schema
--jsonl``).
"""

from __future__ import annotations

import io
import json
import os
import time
from pathlib import Path

import numpy as np

from repro import ReproError
from repro._util import atomic_write
from repro.logs.ingest import IngestStats
from repro.logs.integrity import crc32c

#: Ledger filename inside a fleet directory.
LEDGER_NAME = "fleet-ledger.jsonl"

#: Shard-result cache directory inside a fleet directory.
CACHE_DIR_NAME = "fleet-cache"

#: Bumped when the ledger line layout changes incompatibly.
LEDGER_SCHEMA_VERSION = 1

#: Every event kind the supervisor appends.
EVENTS = ("plan", "resume", "attempt", "commit", "failed", "quarantine")


class LedgerError(ReproError, RuntimeError):
    """A ledger could not be used (wrong version, unreadable, mismatched)."""


def task_key(task: dict) -> str:
    """Stable identity of one shard task: ``<cluster>/<shard>``."""
    return f"{task['cluster']}/{task['shard']}"


class FleetLedger:
    """Append-only, fsynced JSONL ledger of shard attempts and commits."""

    def __init__(
        self, path: str | os.PathLike, chaos=None, truncate: bool = False
    ):
        self.path = Path(path)
        #: Optional chaos hooks (``on_ledger_append``) -- see
        #: :mod:`repro.inject.chaos`.
        self.chaos = chaos
        #: A fresh (non-resume) run truncates any prior ledger: the
        #: journal describes one run and its resumes, so stale commits
        #: from an earlier run on the same directory can never satisfy
        #: a later ``--resume``.
        self.truncate = truncate
        self._fd: int | None = None
        self._appends = 0

    # -- writing -------------------------------------------------------
    def append(self, event: str, **fields) -> dict:
        """Atomically append one event line; returns the written record.

        The line is one ``os.write`` on an ``O_APPEND`` descriptor
        followed by ``fsync``: concurrent writers interleave whole
        lines, and a crash tears at most the final line.  Raises
        ``OSError`` on I/O failure (disk full); callers that must
        survive that wrap appends in bounded retry.
        """
        if event not in EVENTS:
            raise ValueError(f"unknown ledger event {event!r}")
        record = {
            "v": LEDGER_SCHEMA_VERSION,
            "event": event,
            "t": time.time(),
            **fields,
        }
        line = json.dumps(record, sort_keys=True) + "\n"
        if self.chaos is not None:
            # May raise a planned OSError (ENOSPC) -- before the write,
            # like a real full disk would.
            self.chaos.on_ledger_append(self._appends)
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
            if self.truncate:
                flags |= os.O_TRUNC
            self._fd = os.open(self.path, flags, 0o644)
        os.write(self._fd, line.encode())
        os.fsync(self._fd)
        self._appends += 1
        return record

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "FleetLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reading -------------------------------------------------------
    @classmethod
    def read(cls, path: str | os.PathLike) -> tuple:
        """Parse a ledger; returns ``(events, n_skipped)``.

        A torn final line (crash mid-append) is expected and skipped;
        any other unparseable or wrong-version line is also skipped but
        counted, so callers can surface damage without refusing to
        resume from the intact majority.
        """
        path = Path(path)
        try:
            raw = path.read_text()
        except FileNotFoundError:
            return [], 0
        except OSError as exc:
            raise LedgerError(f"{path}: unreadable ledger ({exc})") from exc
        events = []
        skipped = 0
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if (
                not isinstance(doc, dict)
                or doc.get("v") != LEDGER_SCHEMA_VERSION
                or doc.get("event") not in EVENTS
            ):
                skipped += 1
                continue
            events.append(doc)
        return events, skipped

    @classmethod
    def committed(cls, path: str | os.PathLike) -> dict:
        """``{task_key: commit event}`` for every committed shard.

        The *last* commit per task wins (a shard re-run after a torn
        cache write commits again); quarantine events do not count as
        commits -- a resumed run re-attempts quarantined shards, since
        the fault may have been transient.
        """
        events, _ = cls.read(path)
        out: dict[str, dict] = {}
        for event in events:
            if event["event"] == "commit" and "task" in event:
                out[event["task"]] = event
        return out


# ----------------------------------------------------------------------
# Shard result cache
# ----------------------------------------------------------------------
class ShardResultCache:
    """Digest-verified persistence of per-shard reduced artefacts."""

    def __init__(self, directory: str | os.PathLike, chaos=None):
        self.directory = Path(directory)
        self.chaos = chaos
        self._saves = 0

    def path_for(self, key: str) -> Path:
        # "cluster-00/errors-rack03.npy" -> "cluster-00__errors-rack03.npy.npz"
        return self.directory / (key.replace("/", "__") + ".npz")

    # ------------------------------------------------------------------
    def save(self, key: str, result: dict) -> tuple:
        """Persist one shard result; returns ``(relative path, digest)``.

        The payload is serialised to an in-memory npz, its CRC-32C
        computed over the *intended* bytes, and the file written with
        :func:`~repro._util.atomic_write`.  The digest
        the caller writes into the ledger therefore vouches for the
        bytes that should be on disk; any divergence (torn write,
        bit rot, an injected ``checkpoint-tear``) is caught by
        :meth:`load` and the shard simply re-runs on resume.
        """
        meta = {
            "n_errors": int(result["n_errors"]),
            "stats": result["stats"].to_dict(),
            "wall_s": float(result["wall_s"]),
        }
        arrays = {
            "faults": result["faults"],
            "mode_counts": result["mode_counts"],
        }
        rollup = result.get("rollup")
        if rollup is not None:
            # Rollup payloads ride in the same npz: the cube arrays get
            # a reserved prefix and the cube meta joins the JSON doc, so
            # one digest still vouches for the whole committed result.
            meta["rollup_meta"] = rollup["meta"]
            for name, arr in rollup["arrays"].items():
                arrays["rollup__" + name] = arr
        buf = io.BytesIO()
        np.savez(buf, meta=np.array(json.dumps(meta)), **arrays)
        payload = buf.getvalue()
        digest = f"{crc32c(payload):08x}"
        if self.chaos is not None and self.chaos.on_cache_save(self._saves):
            # Injected torn write: commit only a prefix, exactly what a
            # crash between write and fsync can surface after a rename
            # that was never made durable.
            payload = payload[: max(1, len(payload) // 2)]
        self._saves += 1
        path = self.path_for(key)
        self.directory.mkdir(parents=True, exist_ok=True)
        atomic_write(path, payload)
        return str(path.relative_to(self.directory)), digest

    # ------------------------------------------------------------------
    def load(self, key: str, digest: str) -> dict | None:
        """Load a cached shard result iff its bytes match ``digest``.

        Returns ``None`` (-> re-run the shard) when the file is missing,
        its digest differs, or the payload does not deserialise -- a
        cached result is either byte-exactly what was committed or it
        does not exist.
        """
        path = self.path_for(key)
        try:
            payload = path.read_bytes()
        except OSError:
            return None
        if f"{crc32c(payload):08x}" != str(digest).lower():
            return None
        try:
            with np.load(io.BytesIO(payload), allow_pickle=False) as npz:
                faults = npz["faults"]
                mode_counts = npz["mode_counts"]
                meta = json.loads(str(npz["meta"]))
                rollup_arrays = {
                    name[len("rollup__"):]: npz[name]
                    for name in npz.files
                    if name.startswith("rollup__")
                }
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            return None
        stats_doc = dict(meta["stats"])
        stats_doc.pop("coverage", None)
        stats = IngestStats(**stats_doc)
        result = {
            "faults": faults,
            "mode_counts": mode_counts,
            "n_errors": int(meta["n_errors"]),
            "stats": stats,
            "wall_s": float(meta["wall_s"]),
        }
        if "rollup_meta" in meta:
            result["rollup"] = {
                "meta": meta["rollup_meta"],
                "arrays": rollup_arrays,
            }
        return result
