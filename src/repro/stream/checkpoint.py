"""Crash-safe snapshots of the streaming pipeline's state.

One checkpoint is one JSON document holding everything needed to resume
exactly where a killed pipeline stopped: per-file byte offsets and line
numbers, raw per-family :class:`~repro.logs.ingest.IngestStats` plus
the deferred re-sort accounting, the online coalescer's group state,
the alert engine's rule state and the alert sink's position, and the
pipeline's own counters.  Resuming from it replays nothing: bytes
before the stored offsets are never re-read, so no record is
double-counted and no alert fires twice.

On disk the document is a compact base plus an append-only journal:

- ``checkpoint.json`` is a full document (the *base*), written with
  :func:`repro._util.atomic_write`, so a crash mid-write leaves the
  previous base intact;
- ``checkpoint.journal`` holds one line per later checkpoint, each a
  list of ops that brings the document up to date: ``set`` replaces the
  value at a path, ``upsert`` merges changed rows into a keyed row list
  (no state entry is ever deleted, so there is no delete op).
  Each line names its base by the CRC-32C of the base's bytes and is
  fsynced before :meth:`CheckpointStore.append` returns.

:meth:`CheckpointStore.load` applies the lines naming the current base
to it and returns the merged document, so resuming has one path
whatever the mix.  Lines naming another base are left over from a crash
between a base's rename and the journal's reset, and are ignored; a
torn final line is cut off before the next append.  The schema is
versioned; loading a checkpoint from a different schema (or a corrupt
file) raises :class:`CheckpointError` rather than resuming from
garbage.  The layout is validated in CI against
``schemas/checkpoint.schema.json`` and
``schemas/checkpoint-journal.schema.json``.
"""

from __future__ import annotations

import json
import os
from functools import partial
from pathlib import Path

from repro import ReproError
from repro._util import atomic_write, fsync_dir, fsync_file, read_artifact
from repro.logs.integrity import crc32c

#: Bump on any change to the checkpoint document layout.
CHECKPOINT_SCHEMA_VERSION = 1

CHECKPOINT_NAME = "checkpoint.json"
JOURNAL_NAME = "checkpoint.journal"

_HINT = (
    "start over with --no-resume (or delete the checkpoint directory) -- "
    "a damaged checkpoint, or one from another schema, cannot be resumed"
)


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint could not be loaded (corrupt, or wrong schema)."""


def _compact(doc) -> bytes:
    # No indent: any indent forces json's pure-Python encoder.
    return json.dumps(doc, separators=(",", ":")).encode()


def delta_ops(state: dict, keyed: dict[tuple, int]) -> list[dict]:
    """Journal ops that bring a checkpoint document up to ``state``.

    ``state`` is a changed-only view of the document: the row lists at
    the ``keyed`` paths (``"*"`` matches any list index) hold only the
    rows that changed, and become ``upsert`` ops with the path's key
    width (0: rows are appended).  Every other value is ``set`` whole.
    """
    ops: list[dict] = []

    def matches(pattern: tuple, path: tuple) -> bool:
        return all(p == "*" or p == k for p, k in zip(pattern, path))

    def walk(node, path: tuple) -> None:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            p = path + (key,)
            width = next(
                (w for pat, w in keyed.items()
                 if len(pat) == len(p) and matches(pat, p)),
                None,
            )
            if width is not None and value is not None:
                if value:
                    ops.append({
                        "op": "upsert", "path": list(p), "width": width,
                        "rows": value,
                    })
            elif isinstance(value, (dict, list)) and any(
                len(pat) > len(p) and matches(pat, p) for pat in keyed
            ):
                walk(value, p)
            else:
                ops.append({"op": "set", "path": list(p), "value": value})

    walk(state, ())
    return ops


def _row_key(row: list, width: int) -> tuple:
    return tuple(
        tuple(k) if isinstance(k, list) else k for k in row[:width]
    )


def apply_ops(doc: dict, ops: list) -> None:
    """Apply one journal line's ops to a checkpoint document in place.

    Upserted lists come back sorted by key, as the holders write them,
    so a merged document equals the full one written at the same point.
    """
    for op in ops:
        kind, path = op["op"], op["path"]
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        last = path[-1]
        if kind == "set":
            parent[last] = op["value"]
        elif kind == "upsert":
            width, rows = op["width"], op["rows"]
            if width == 0:
                parent[last] = parent[last] + rows
                continue
            merged = {_row_key(r, width): r for r in parent[last]}
            merged.update((_row_key(r, width), r) for r in rows)
            parent[last] = [merged[k] for k in sorted(merged)]
        else:
            raise ValueError(f"unknown journal op {kind!r}")


class CheckpointStore:
    """Atomic, versioned checkpoint persistence in one directory."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        #: CRC-32C (hex) of the base the journal extends; None until a
        #: base was written or loaded.
        self.base_crc: str | None = None
        self.base_bytes = 0
        #: Bytes of journal lines that extend the current base.
        self.journal_bytes = 0

    @property
    def path(self) -> Path:
        return self.directory / CHECKPOINT_NAME

    @property
    def journal_path(self) -> Path:
        return self.directory / JOURNAL_NAME

    def exists(self) -> bool:
        return self.path.exists()

    @property
    def compaction_due(self) -> bool:
        """True when the next checkpoint must be a full base.

        That is before any base, and once the journal's bytes reach the
        base's: rewriting then costs no more than the journal already
        did, so a checkpoint stays O(changed entries) amortised.
        """
        return self.base_crc is None or self.journal_bytes >= self.base_bytes

    def save(self, state: dict) -> Path:
        """Durably persist ``state`` as the new base; returns its path.

        Written with :func:`~repro._util.atomic_write`: a rename rolled
        back by a power cut would resurface the previous checkpoint
        after the caller was told the new one is durable, and resume
        would replay records the pipeline already acknowledged.  The
        journal is emptied only after the base is durable; if a crash
        loses that reset, its lines name the previous base and
        :meth:`load` ignores them.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = _compact({"schema_version": CHECKPOINT_SCHEMA_VERSION, **state})
        atomic_write(self.path, payload)
        if self.journal_path.exists():
            os.truncate(self.journal_path, 0)
        self.base_crc = f"{crc32c(payload):08x}"
        self.base_bytes = len(payload)
        self.journal_bytes = 0
        return self.path

    def append(self, ops: list) -> int:
        """Durably append one journal line of ``ops``; returns its bytes.

        The line is fsynced (:func:`~repro._util.fsync_file`) before
        this returns.  Bytes past the last line that counts -- a torn
        line from a crash mid-append -- are cut off first.
        """
        if self.base_crc is None:
            raise CheckpointError(
                f"{self.journal_path}: no base checkpoint to extend"
            )
        line = _compact({"base": self.base_crc, "ops": ops}) + b"\n"
        created = not self.journal_path.exists()
        with open(self.journal_path, "ab") as fh:
            if fh.tell() != self.journal_bytes:
                fh.truncate(self.journal_bytes)
            fh.write(line)
            fsync_file(fh)
        if created:
            fsync_dir(self.directory)
        self.journal_bytes += len(line)
        return len(line)

    def load(self, decode=lambda doc: doc):
        """``decode`` (run inside the reader's guard) of the current
        checkpoint document, or None when none exists."""
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return None
        return read_artifact(
            self.path, CheckpointError,
            lambda doc: decode(self._merge_journal(raw, doc)),
            what=f"checkpoint {self.path}", data=raw, hint=_HINT,
            version=("schema_version", CHECKPOINT_SCHEMA_VERSION),
        )

    def _merge_journal(self, raw: bytes, doc: dict) -> dict:
        """``doc`` with the journal lines naming its base applied."""
        self.base_crc = f"{crc32c(raw):08x}"
        self.base_bytes = len(raw)
        self.journal_bytes = 0
        try:
            journal = self.journal_path.read_bytes()
        except FileNotFoundError:
            journal = b""
        end = 0
        # The piece after the last newline is empty or a torn line.
        for number, line in enumerate(journal.split(b"\n")[:-1], 1):
            end += len(line) + 1
            if read_artifact(
                self.journal_path, CheckpointError,
                partial(self._apply_line, doc), data=line,
                what=f"{self.journal_path}: corrupt journal line {number}",
                hint=_HINT,
            ):
                self.journal_bytes = end
        return doc

    def _apply_line(self, doc: dict, entry: dict) -> bool:
        if entry["base"] != self.base_crc:  # from before a base rewrite
            return False
        apply_ops(doc, entry["ops"])
        return True
