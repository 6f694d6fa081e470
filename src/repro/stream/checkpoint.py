"""Crash-safe snapshots of the streaming pipeline's state.

One checkpoint is one JSON document holding everything needed to resume
exactly where a killed pipeline stopped: per-file byte offsets and line
numbers, raw per-family :class:`~repro.logs.ingest.IngestStats` plus
the deferred re-sort accounting, the online coalescer's group state,
the alert engine's rule state and the alert sink's position, and the
pipeline's own counters.  Resuming from it replays nothing: bytes
before the stored offsets are never re-read, so no record is
double-counted and no alert fires twice.

Writes go through :func:`repro._util.atomic_write`, so a crash
mid-write leaves the previous checkpoint intact.  The schema is
versioned; loading a checkpoint from a different schema (or a corrupt
file) raises :class:`CheckpointError` rather than resuming from
garbage.  The document layout is validated in CI against
``schemas/checkpoint.schema.json``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro._util import atomic_write, mismatch

#: Bump on any change to the checkpoint document layout.
CHECKPOINT_SCHEMA_VERSION = 1

CHECKPOINT_NAME = "checkpoint.json"


class CheckpointError(RuntimeError):
    """A checkpoint could not be loaded (corrupt, or wrong schema)."""


class CheckpointStore:
    """Atomic, versioned checkpoint persistence in one directory."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)

    @property
    def path(self) -> Path:
        return self.directory / CHECKPOINT_NAME

    def exists(self) -> bool:
        return self.path.exists()

    def save(self, state: dict) -> Path:
        """Durably persist ``state``; returns the checkpoint path.

        Written with :func:`~repro._util.atomic_write`: a rename rolled
        back by a power cut would resurface the previous checkpoint
        after the caller was told the new one is durable, and resume
        would replay records the pipeline already acknowledged.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        doc = {"schema_version": CHECKPOINT_SCHEMA_VERSION, **state}
        atomic_write(self.path, json.dumps(doc, indent=1).encode())
        return self.path

    def load(self) -> dict | None:
        """The current checkpoint document, or None when none exists."""
        try:
            raw = self.path.read_text()
        except FileNotFoundError:
            return None
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"{self.path}: corrupt checkpoint ({exc})"
            ) from exc
        if not isinstance(doc, dict):
            raise CheckpointError(
                f"{self.path}: checkpoint must be a JSON object"
            )
        version = doc.get("schema_version")
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise mismatch(
                CheckpointError, f"{self.path}: checkpoint schema_version",
                repr(version), CHECKPOINT_SCHEMA_VERSION,
                "start over with --no-resume (or delete the checkpoint "
                "directory) -- checkpoints do not migrate across schemas",
            )
        return doc
