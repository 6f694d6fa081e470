"""Shared ingest policy, statistics and quarantine for dirty telemetry.

The study's eight months of Astra telemetry were production logs:
truncated syslog lines, BMC sensor dropouts, inventory gaps.  Every
parser in :mod:`repro.logs` therefore takes an :class:`IngestPolicy`:

- ``strict`` -- the first unparseable record raises a typed
  :class:`MalformedRecordError` naming the file, line and reason;
- ``repair`` -- salvage what can be salvaged (fill truncated fields
  with sentinels, re-sort out-of-order timestamps) and quarantine the
  rest to a sidecar file;
- ``skip`` -- quarantine every unparseable record, repair nothing.

Each ingest returns an :class:`IngestStats` that accounts for every
input record: ``seen == parsed + repaired + quarantined`` always holds,
and ``coverage`` is the fraction of records that made it through.  The
experiment harness uses coverage to downgrade its verdicts
(``pass-degraded`` / ``skipped-insufficient-data``) instead of silently
passing on partial data.

Quarantined records go to ``<log>.quarantine`` as tab-separated
``line_no<TAB>reason<TAB>raw-line`` rows so no byte of telemetry is
ever silently discarded.

Parsing itself has two gears (DESIGN.md section 9).  The *fast path*
reads the file in large binary blocks, parses lines that match the
writer's exact grammar column-wise with the :mod:`repro.logs.fastpath`
primitives, and routes every other line -- garbled, truncated,
non-ASCII, or merely unusual -- through the same per-line
``parse_line``/``repair_line`` machinery the slow path uses, in file
order.  Policies, stats, quarantine sidecars and error messages are
byte-for-byte identical either way; ``fast=False`` or the
``ASTRA_MEMREPRO_SLOW_INGEST`` environment variable force the per-line
path everywhere.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from repro import ReproError
from repro.logs import fastpath


def fastpath_enabled(fast: bool = True) -> bool:
    """Whether the vectorised fast path should run.

    ``fast`` is the per-call switch; the ``ASTRA_MEMREPRO_SLOW_INGEST``
    environment variable is the global escape hatch (any non-empty
    value forces the per-line path, for debugging and for the
    differential parity suite).
    """
    return bool(fast) and not os.environ.get("ASTRA_MEMREPRO_SLOW_INGEST")


class IngestPolicy(str, Enum):
    """How a parser treats records it cannot parse."""

    STRICT = "strict"
    REPAIR = "repair"
    SKIP = "skip"

    @classmethod
    def coerce(cls, value) -> "IngestPolicy":
        """Accept an IngestPolicy, its string name, or None (-> STRICT)."""
        if value is None:
            return cls.STRICT
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            names = ", ".join(p.value for p in cls)
            raise ValueError(
                f"unknown ingest policy {value!r}; expected one of: {names}"
            ) from None


class IngestError(ReproError, ValueError):
    """Base class for typed ingest failures.

    Subclasses ``ValueError`` so existing callers (and the campaign
    cache's corruption handling) keep working unchanged.
    """


class MalformedRecordError(IngestError):
    """A record could not be parsed under the ``strict`` policy."""

    def __init__(self, family: str, source, line_no: int, line: str, reason: str):
        self.family = family
        self.source = str(source)
        self.line_no = line_no
        self.line = line
        self.reason = reason
        super().__init__(
            f"{self.source}:{line_no}: malformed {family} record "
            f"({reason}): {line!r}"
        )


class CampaignFormatError(IngestError):
    """A campaign directory is missing or corrupt beyond recovery.

    Raised with the offending file and the expected directory layout so
    the user sees what is wrong instead of an opaque numpy traceback.
    """

    LAYOUT = (
        "manifest.txt, errors.npy (+ optional ce.log text mirror), "
        "replacements.npy, het.npy (+ optional het.log text mirror)"
    )

    def __init__(self, path, reason: str):
        self.path = str(path)
        self.reason = reason
        super().__init__(
            f"{self.path}: {reason} (expected campaign layout: {self.LAYOUT})"
        )


@dataclass
class IngestStats:
    """Accounting for one record family's ingest.

    The invariant ``seen == parsed + repaired + quarantined`` holds for
    every policy; ``coverage`` is the usable fraction.  A family whose
    source is entirely missing sets ``missing`` and reports zero
    coverage even though no lines were seen.
    """

    family: str
    seen: int = 0
    parsed: int = 0
    repaired: int = 0
    quarantined: int = 0
    #: The family's source files were absent or unrecoverable.
    missing: bool = False
    #: Where the source was read from (``"binary"``, ``"text"``, ...).
    source: str = ""
    #: Lines parsed by the vectorised fast path (a subset of ``parsed``;
    #: zero on the per-line path).  Excluded from parity comparisons.
    fast_lines: int = 0

    @property
    def coverage(self) -> float:
        """Fraction of seen records that were parsed or repaired."""
        if self.missing:
            return 0.0
        if self.seen == 0:
            return 1.0
        return (self.parsed + self.repaired) / self.seen

    def check_invariant(self) -> None:
        """Raise if the accounting does not balance."""
        if self.seen != self.parsed + self.repaired + self.quarantined:
            raise AssertionError(
                f"{self.family}: seen={self.seen} != parsed={self.parsed} "
                f"+ repaired={self.repaired} + quarantined={self.quarantined}"
            )

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "seen": self.seen,
            "parsed": self.parsed,
            "repaired": self.repaired,
            "quarantined": self.quarantined,
            "missing": self.missing,
            "source": self.source,
            "coverage": self.coverage,
            "fast_lines": self.fast_lines,
        }


def coverage_map(ingest: dict) -> dict:
    """``{family: coverage}`` from a ``{family: IngestStats}`` mapping."""
    return {family: stats.coverage for family, stats in (ingest or {}).items()}


# ----------------------------------------------------------------------
def quarantine_path(path: str | os.PathLike) -> Path:
    """Sidecar path holding a log's quarantined records."""
    return Path(f"{path}.quarantine")


class Quarantine:
    """Collects unparseable records and writes the sidecar file.

    The sidecar is only written when at least one record was
    quarantined, so clean ingests leave no droppings.
    """

    def __init__(self, source: str | os.PathLike):
        self.source = source
        self.entries: list[tuple[int, str, str]] = []

    def add(self, line_no: int, reason: str, line: str) -> None:
        self.entries.append((line_no, reason, line))

    def flush(self) -> Path | None:
        """Write the sidecar; returns its path (None when empty)."""
        if not self.entries:
            return None
        path = quarantine_path(self.source)
        with open(path, "w") as fh:
            for line_no, reason, line in self.entries:
                fh.write(f"{line_no}\t{reason}\t{line}\n")
        return path


def read_quarantine(path: str | os.PathLike) -> list[tuple[int, str, str]]:
    """Parse a quarantine sidecar back into (line_no, reason, line) rows."""
    out = []
    with open(path) as fh:
        for row in fh:
            row = row.rstrip("\n")
            if not row:
                continue
            line_no, reason, line = row.split("\t", 2)
            out.append((int(line_no), reason, line))
    return out


# ----------------------------------------------------------------------
def ingest_one(line_no: int, line: str, parse_line, stats: IngestStats,
               policy: IngestPolicy, quarantine: Quarantine | None,
               repair_line, source) -> object | None:
    """Run one stripped, non-empty line through the policy machinery.

    Returns the parsed row, or ``None`` when the line was quarantined.
    This is the single strict/repair/skip decision point shared by the
    per-line generator (:func:`ingest_lines`) and the fast path's
    fallback routing -- both gears account records identically because
    they run the same code.
    """
    stats.seen += 1
    try:
        row = parse_line(line)
    except (ValueError, IndexError, KeyError) as exc:
        if policy is IngestPolicy.STRICT:
            raise MalformedRecordError(
                stats.family, source, line_no, line, str(exc),
            ) from exc
        if policy is IngestPolicy.REPAIR and repair_line is not None:
            try:
                row = repair_line(line)
            except (ValueError, IndexError, KeyError):
                row = None
            if row is not None:
                stats.repaired += 1
                return row
        stats.quarantined += 1
        if quarantine is not None:
            quarantine.add(line_no, str(exc), line)
        return None
    stats.parsed += 1
    return row


def ingest_lines(fh, parse_line, stats: IngestStats, policy: IngestPolicy,
                 quarantine: Quarantine | None = None, repair_line=None):
    """Yield parsed rows from a text stream under an ingest policy.

    ``parse_line`` maps a stripped line to a parsed row (raising
    ``ValueError``/``IndexError``/``KeyError`` on garbage); the optional
    ``repair_line`` is tried under the ``repair`` policy before
    quarantining.  Tallies every outcome into ``stats`` and records
    drops in ``quarantine``.  This is the single lenient/strict code
    path shared by every text parser.
    """
    source = getattr(fh, "name", "<stream>")
    for line_no, raw in enumerate(fh, 1):
        line = raw.strip()
        if not line:
            continue
        row = ingest_one(line_no, line, parse_line, stats, policy,
                         quarantine, repair_line, source)
        if row is not None:
            yield row


def _merge_ordered(fast_out, fast_pos, slow_out, slow_pos):
    """Interleave fast-parsed and fallback rows back into file order."""
    if not len(slow_out):
        return fast_out
    merge = getattr(fast_out, "merge_ordered", None)
    if merge is not None:
        # Containers with a bulk-insertion layout (e.g. the inventory
        # family's run structure) splice the few fallback rows in
        # without materialising a tuple per fast row -- degrading every
        # row to the generic sorted-pairs path was the two-gear tax
        # that made corrupted inventory ingest slower than per-line.
        return merge(fast_pos, slow_out, slow_pos)
    if isinstance(fast_out, np.ndarray):
        if not len(fast_out):
            return slow_out
        pos = np.concatenate([fast_pos, slow_pos])
        order = np.argsort(pos, kind="stable")
        return np.concatenate([fast_out, slow_out])[order]
    pairs = sorted(
        zip(list(fast_pos) + list(slow_pos), list(fast_out) + list(slow_out))
    )
    return [row for _, row in pairs]


def ingest_stream_fast(
    fh,
    parse_line,
    stats: IngestStats,
    policy: IngestPolicy,
    quarantine: Quarantine | None = None,
    repair_line=None,
    *,
    fast_chunk,
    rows_to_records,
    first_line_no: int = 1,
    chunk_bytes: int = fastpath.DEFAULT_CHUNK_BYTES,
):
    """Chunked fast-path ingest driver; yields per-block record batches.

    ``fh`` must be a *binary* stream.  ``fast_chunk`` maps a
    :class:`~repro.logs.fastpath.Chunk` of candidate lines to
    ``(records, ok)`` -- the column-parsed records for the lines whose
    grammar matched, and the mask saying which.  Everything else (plus
    non-ASCII and pathological-whitespace lines) goes through
    :func:`ingest_one` with its original line number, and
    ``rows_to_records`` lifts those rows into the same container type
    so each batch comes back in exact file order.

    The fast path never quarantines and never repairs: any line it
    cannot prove conforming is the slow path's to judge, which is what
    keeps the two gears byte-for-byte equivalent.
    """
    source = getattr(fh, "name", "<stream>")
    line_no0 = first_line_no
    for data, l_starts, l_ends in fastpath.iter_blocks(fh, chunk_bytes):
        cs, ce, empty, dirty = fastpath.clean_spans(data, l_starts, l_ends)
        cand = ~empty & ~dirty
        cand_idx = np.flatnonzero(cand)
        if cand_idx.size:
            chunk = fastpath.Chunk(data, cs[cand_idx], ce[cand_idx])
            records, ok = fast_chunk(chunk)
        else:
            records, ok = rows_to_records([]), np.zeros(0, dtype=bool)
        fast_pos = cand_idx[ok]
        fallback = np.sort(
            np.concatenate([cand_idx[~ok], np.flatnonzero(dirty)])
        )
        slow_rows: list = []
        slow_pos: list[int] = []
        if fallback.size:
            raw = data.tobytes()
            for i in fallback.tolist():
                if cand[i]:
                    line = raw[cs[i]:ce[i]].decode("utf-8")
                else:
                    line = raw[l_starts[i]:l_ends[i]].decode("utf-8").strip()
                    if not line:
                        continue
                row = ingest_one(line_no0 + i, line, parse_line, stats,
                                 policy, quarantine, repair_line, source)
                if row is not None:
                    slow_rows.append(row)
                    slow_pos.append(i)
        n_fast = int(fast_pos.size)
        stats.seen += n_fast
        stats.parsed += n_fast
        stats.fast_lines += n_fast
        yield _merge_ordered(records, fast_pos,
                             rows_to_records(slow_rows), slow_pos)
        line_no0 += l_starts.size


def resort_by_time(records: np.ndarray, stats: IngestStats,
                   policy: IngestPolicy) -> np.ndarray:
    """Repair out-of-order timestamps by a stable re-sort.

    Under ``repair``, records that arrived behind an already-seen later
    timestamp (clock skew, interleaved writers) are re-sorted into place
    and re-counted from ``parsed`` to ``repaired``.  Other policies
    return the stream untouched -- order was never a parse error.
    """
    if policy is not IngestPolicy.REPAIR or records.size == 0:
        return records
    if "time" not in (records.dtype.names or ()):
        return records
    times = records["time"]
    # Tolerance is one unit-in-the-last-place of the largest magnitude in
    # the stream: anything the time dtype itself cannot resolve (float32
    # round-trip jitter, accumulated float error) is not an inversion.
    # Integer time dtypes resolve everything, so their tolerance is zero.
    if times.dtype.kind == "f":
        tol = np.finfo(times.dtype).eps * max(float(np.max(np.abs(times))), 1.0)
    else:
        tol = 0
    out_of_order = int(np.sum(times < np.maximum.accumulate(times) - tol))
    if out_of_order == 0:
        return records
    moved = min(out_of_order, stats.parsed)
    stats.parsed -= moved
    stats.repaired += moved
    return records[np.argsort(times, kind="stable")]
