"""Offset-tracked incremental readers over growing telemetry files.

A :class:`LogTailer` owns one append-only log file and one family's
parsing machinery.  Each :meth:`~LogTailer.poll` reads the bytes
appended since the last poll, cuts the read at the final line
terminator (a partial trailing line stays on disk, unconsumed, until
its newline arrives), and runs the complete region through exactly the
same two-gear machinery batch ingest uses: the vectorised fast path of
:func:`repro.logs.ingest.ingest_stream_fast` with per-line
``ingest_one`` fallback, or the pure per-line gear when
``ASTRA_MEMREPRO_SLOW_INGEST`` forces it.  Policies, line numbers,
quarantine entries and :class:`~repro.logs.ingest.IngestStats` are
byte-for-byte what a batch ingest of the same file would have produced
-- the differential suite holds the tailer to that.

The one batch behaviour that cannot run incrementally is the ``repair``
policy's out-of-order re-sort: it needs the whole stream.  The tailer
instead tallies the margins by which records arrived behind the
running time maximum, and :meth:`~LogTailer.final_stats` applies the
batch path's exact tolerance arithmetic at the end, so the final
accounting still matches (live consumers -- the online coalescer, the
alert rules -- are arrival-order-insensitive by design).  The tally is
bounded: see :data:`MARGIN_DECIDED`.

Family specifics (parser, repairer, fast-path chunk parser, container
type, header handling) come from the :data:`FAMILY_SPECS` registry.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro import ReproError
from repro.faults.types import empty_errors
from repro.logs import bmc, het, inventory, syslog
from repro.logs.ingest import (
    IngestPolicy,
    IngestStats,
    MalformedRecordError,
    Quarantine,
    fastpath_enabled,
    ingest_one,
    ingest_stream_fast,
)
from repro.machine.sensors import NodeSensorComplement
from repro.synth.het import HET_DTYPE


class TailError(ReproError, RuntimeError):
    """Telemetry files that cannot be tailed, or stopped being tailable.

    Raised at set-up when a directory holds no tailable telemetry file,
    a file's name identifies no telemetry family, the batch size is not
    positive, or a checkpoint restores a file into another family's
    tailer.  Raised mid-stream when a file shrinks below the consumed
    offset (rotation or truncation), which would silently desynchronise
    line numbers and offsets; the operator must restart the tailer (or
    resume from a checkpoint taken before the rotation).
    """


#: Every tailed family parses times as whole seconds of an int64 clock,
#: so ``|t| <= 2**63`` and the re-sort tolerance ``eps * max|t|`` can
#: never exceed ``eps * 2**63`` (2048 s).  A late margin above this
#: counts as out of order whatever arrives later, so the tally keeps
#: one bucket for all of them; below it, margins are whole seconds
#: too, so at most 2048 distinct values are ever pending.
MARGIN_DECIDED = float(np.finfo(np.float64).eps * 2.0**63)


def _concat_arrays(empty):
    def concat(batches: list) -> np.ndarray:
        batches = [b for b in batches if len(b)]
        if not batches:
            return empty(0)
        if len(batches) == 1:
            return batches[0]
        return np.concatenate(batches)
    return concat


def _bmc_parse_line():
    name_to_idx = {
        name: i for i, name in enumerate(NodeSensorComplement().names)
    }

    def parse(line: str) -> tuple:
        return bmc._parse_sample_line(line, name_to_idx)

    return parse


@dataclass(frozen=True)
class FamilySpec:
    """Everything the tailer needs to ingest one record family."""

    family: str
    #: Build the per-line parser (factories, because some parsers close
    #: over machine vocabulary built at ingest time).
    make_parse_line: callable
    #: Build the repair callable used under ``repair`` (None: the
    #: family has no salvageable partial form, repair behaves as skip).
    make_repair_line: callable | None
    #: Build the fast-path column parser for ``ingest_stream_fast``.
    make_fast_chunk: callable
    #: Lift fallback rows into the family's container type.
    rows_to_records: callable
    #: Merge per-block containers into one poll result.
    concat: callable
    #: The file opens with a ``timestamp,...`` header line (BMC CSV).
    has_header: bool = False
    #: Records carry a ``time`` field the repair policy re-sorts on.
    time_ordered: bool = True


def _sensors_empty(n: int) -> np.ndarray:
    return np.zeros(n, dtype=bmc.SENSOR_SAMPLE_DTYPE)


def _het_empty(n: int) -> np.ndarray:
    return np.zeros(n, dtype=HET_DTYPE)


#: Registry of tailable text families, keyed by family name.
FAMILY_SPECS: dict[str, FamilySpec] = {
    "errors": FamilySpec(
        family="errors",
        make_parse_line=lambda: syslog._parse_line,
        make_repair_line=lambda: syslog._repair_line,
        make_fast_chunk=lambda: syslog._fast_ce_chunk,
        rows_to_records=syslog._rows_to_array,
        concat=_concat_arrays(empty_errors),
    ),
    "het": FamilySpec(
        family="het",
        make_parse_line=lambda: het._parse_line,
        make_repair_line=lambda: het._repair_line,
        make_fast_chunk=lambda: het._fast_het_chunk,
        rows_to_records=het._rows_to_het,
        concat=_concat_arrays(_het_empty),
    ),
    "sensors": FamilySpec(
        family="sensors",
        make_parse_line=_bmc_parse_line,
        make_repair_line=None,
        make_fast_chunk=lambda: bmc._make_fast_bmc_chunk(
            NodeSensorComplement().names
        ),
        rows_to_records=bmc._rows_to_samples,
        concat=_concat_arrays(_sensors_empty),
        has_header=True,
    ),
    "inventory": FamilySpec(
        family="inventory",
        make_parse_line=lambda: inventory._parse_snapshot_line,
        make_repair_line=None,
        make_fast_chunk=lambda: inventory._fast_snapshot_chunk,
        rows_to_records=list,
        # Inventory batches stay as-is: _SnapshotBatch carries a bulk
        # dict-insertion path the consumer wants to keep using.
        concat=lambda batches: [b for b in batches if len(b)],
        time_ordered=False,
    ),
}


def spec_for_path(path: str | Path) -> FamilySpec | None:
    """Map a telemetry file name to its family spec (None: not ours)."""
    name = Path(path).name
    if name.endswith(".quarantine"):
        return None
    if name == "ce.log":
        return FAMILY_SPECS["errors"]
    if name == "het.log":
        return FAMILY_SPECS["het"]
    if name.startswith("bmc"):
        return FAMILY_SPECS["sensors"]
    if name.startswith("inventory"):
        return FAMILY_SPECS["inventory"]
    return None


class _NamedBytesIO(io.BytesIO):
    """BytesIO carrying the tailed file's name, so strict-mode errors
    and quarantine sources point at the real path, not ``<stream>``."""

    def __init__(self, data: bytes, name: str):
        super().__init__(data)
        self.name = name


class LogTailer:
    """Incrementally ingest one growing log file.

    Parameters
    ----------
    path:
        The file to tail; it may not exist yet (polls return None until
        it appears).
    spec:
        Family machinery, usually from :data:`FAMILY_SPECS`.
    policy:
        Ingest policy, exactly as batch ingest interprets it.
    quarantine:
        Collect unparseable lines for the ``<path>.quarantine`` sidecar
        (written by :meth:`flush_quarantine`, not on every poll).
    batch_bytes:
        Target bytes consumed per poll.  Reads extend past this only
        when no line terminator fits inside it.
    """

    def __init__(
        self,
        path: str | Path,
        spec: FamilySpec,
        policy: IngestPolicy | str = IngestPolicy.REPAIR,
        quarantine: bool = True,
        batch_bytes: int = 1 << 20,
        fast: bool = True,
    ):
        if batch_bytes < 1:
            raise TailError("batch_bytes must be positive")
        self.path = Path(path)
        self.spec = spec
        self.policy = IngestPolicy.coerce(policy)
        self.batch_bytes = int(batch_bytes)
        self.fast = bool(fast)
        self.stats = IngestStats(family=spec.family, source="text")
        self.quarantine = Quarantine(self.path) if quarantine else None
        self._parse = spec.make_parse_line()
        self._repair = (
            spec.make_repair_line()
            if spec.make_repair_line is not None
            and self.policy is IngestPolicy.REPAIR
            else None
        )
        self._fast_chunk = spec.make_fast_chunk()
        #: Bytes of the file fully consumed (always a line boundary,
        #: except for the held-back partial tail which is simply not
        #: consumed yet).
        self.offset = 0
        #: Line number the next consumed line will carry.
        self.line_no = 1
        self.header_done = not spec.has_header
        # Deferred repair-policy re-sort accounting: the running maxima
        # the batch tolerance derives from, plus a tally {margin: count}
        # of how far records arrived behind the running time maximum.
        # The tolerance only grows, so margins at or below it are
        # dropped, and margins above MARGIN_DECIDED share one bucket.
        self._time_cummax: float | None = None
        self._time_max_abs = 0.0
        self._late: dict[float, int] = {}
        #: Quarantine entries already in a checkpoint.
        self._quarantine_saved = 0

    # ------------------------------------------------------------------
    def lag_bytes(self) -> int:
        """Unconsumed bytes currently sitting in the file."""
        try:
            return max(self.path.stat().st_size - self.offset, 0)
        except FileNotFoundError:
            return 0

    def _read_region(self, eof_flush: bool) -> tuple[bytes, int] | None:
        """Read the next consumable region; None when nothing is ready.

        Returns ``(region, consumed)`` where ``region`` ends at a line
        terminator unless ``eof_flush`` forced out an unterminated
        final line.
        """
        try:
            size = self.path.stat().st_size
        except FileNotFoundError:
            # Batch parity: a file that never appeared reports missing.
            if self.offset == 0 and self.stats.seen == 0:
                self.stats.missing = True
            return None
        if size < self.offset:
            raise TailError(
                f"{self.path}: file shrank below consumed offset "
                f"({size} < {self.offset}); rotated or truncated? "
                "To recover, restore the pre-rotation checkpoint (or "
                "delete the checkpoint directory to re-ingest from the "
                "start of the current file)."
            )
        self.stats.missing = False
        if size == self.offset:
            return None
        with open(self.path, "rb") as fh:
            fh.seek(self.offset)
            data = fh.read(self.batch_bytes)
            # A line longer than batch_bytes must still be consumable:
            # keep doubling the read until a terminator shows up.
            want = self.batch_bytes
            while (
                b"\n" not in data and b"\r" not in data
                and self.offset + len(data) < size
            ):
                want *= 2
                more = fh.read(want)
                if not more:
                    break
                data += more
        at_eof = self.offset + len(data) >= size
        flush = eof_flush and at_eof
        # A trailing \r may be the first half of a split \r\n pair, so
        # it cannot terminate a line yet -- unless we are flushing at
        # EOF, where text mode would translate it to a newline.
        search = data[:-1] if data.endswith(b"\r") and not flush else data
        if flush:
            return (data, len(data)) if data else None
        cut = max(search.rfind(b"\n"), search.rfind(b"\r"))
        if cut < 0:
            return None
        return data[: cut + 1], cut + 1

    def _take_header(self, region: bytes) -> tuple[bytes, int]:
        """Consume (or judge) the leading header line of a BMC CSV."""
        nl = region.find(b"\n")
        cr = region.find(b"\r")
        end = min(x for x in (nl, cr, len(region)) if x >= 0)
        header = region[:end]
        if header.startswith(b"timestamp,"):
            tlen = 2 if region[end : end + 2] == b"\r\n" else 1
            skip = min(end + tlen, len(region))
            self.header_done = True
            return region[skip:], skip
        if self.policy is IngestPolicy.STRICT:
            raise MalformedRecordError(
                "sensors", self.path, 1,
                header.decode("utf-8").strip(), "missing header",
            )
        # Lenient: the first line is data (it will fail to parse and be
        # quarantined, keeping it in the accounting -- batch behaviour).
        self.header_done = True
        return region, 0

    def _track_order(self, records) -> None:
        """Accumulate deferred re-sort accounting for this poll."""
        if (
            self.policy is not IngestPolicy.REPAIR
            or not self.spec.time_ordered
            or not isinstance(records, np.ndarray)
            or records.size == 0
        ):
            return
        times = records["time"]
        prefix = np.maximum.accumulate(times)
        before = np.empty_like(prefix)
        before[0] = self._time_cummax if self._time_cummax is not None else -np.inf
        before[1:] = prefix[:-1]
        np.maximum(before, before[0], out=before)  # carry-in vs prefix
        margins = before - times
        self._time_cummax = float(max(before[-1], times[-1]))
        self._time_max_abs = max(
            self._time_max_abs, float(np.max(np.abs(times)))
        )
        self._tally_late(margins)

    def _tolerance(self) -> float:
        """The batch re-sort tolerance over the times seen so far."""
        return float(np.finfo(np.float64).eps * max(self._time_max_abs, 1.0))

    def _tally_late(self, margins: np.ndarray) -> None:
        """Fold margins into the tally; drop every one now <= the tolerance."""
        tol = self._tolerance()
        margins = margins[margins > tol]
        late = self._late
        if margins.size:
            margins[margins > MARGIN_DECIDED] = 2 * MARGIN_DECIDED
            values, counts = np.unique(margins, return_counts=True)
            for m, n in zip(values.tolist(), counts.tolist()):
                late[m] = late.get(m, 0) + n
        for m in [m for m in late if m <= tol]:
            del late[m]

    def poll(self, eof_flush: bool = False):
        """Consume newly appended complete lines; returns the records.

        Returns ``None`` when nothing new was consumable (file absent,
        unchanged, or holding only a partial line).  ``eof_flush``
        additionally consumes an unterminated final line -- batch
        parity for a file that will not grow any more.
        """
        got = self._read_region(eof_flush)
        if got is None:
            return None
        region, consumed = got
        if not self.header_done:
            region, _ = self._take_header(region)
        self.offset += consumed
        if not region:
            return self.spec.concat([])
        translated = region.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        n_lines = translated.count(b"\n")
        if not translated.endswith(b"\n"):
            n_lines += 1  # eof-flushed unterminated final line

        if fastpath_enabled(self.fast):
            fh = _NamedBytesIO(region, str(self.path))
            batches = list(
                ingest_stream_fast(
                    fh, self._parse, self.stats, self.policy,
                    self.quarantine, self._repair,
                    fast_chunk=self._fast_chunk,
                    rows_to_records=self.spec.rows_to_records,
                    first_line_no=self.line_no,
                )
            )
        else:
            # Mirror ingest_lines exactly, with our running line_no.
            lines = translated.decode("utf-8").split("\n")
            if lines and lines[-1] == "":
                lines.pop()
            rows = []
            source = str(self.path)
            for ln, raw in enumerate(lines, self.line_no):
                line = raw.strip()
                if not line:
                    continue
                row = ingest_one(
                    ln, line, self._parse, self.stats, self.policy,
                    self.quarantine, self._repair, source,
                )
                if row is not None:
                    rows.append(row)
            batches = [self.spec.rows_to_records(rows)]
        self.line_no += n_lines
        records = self.spec.concat(batches)
        self._track_order(records)
        return records

    # ------------------------------------------------------------------
    def final_stats(self) -> IngestStats:
        """Stats as batch ingest would report them at this point.

        Applies the deferred ``repair`` re-sort accounting with the
        batch path's exact tolerance (one ulp of the largest time
        magnitude seen); the live ``stats`` attribute is left raw so
        polling can continue.
        """
        out = replace(self.stats)
        if self.policy is IngestPolicy.REPAIR and self._late:
            tol = self._tolerance()
            out_of_order = sum(n for m, n in self._late.items() if m > tol)
            moved = min(out_of_order, out.parsed)
            out.parsed -= moved
            out.repaired += moved
        out.check_invariant()
        return out

    def flush_quarantine(self) -> Path | None:
        """(Re)write the sidecar from all entries so far; idempotent."""
        if self.quarantine is None:
            return None
        return self.quarantine.flush()

    # -- checkpoint (de)serialisation ----------------------------------
    def to_state(self, changed: bool = False) -> dict:
        """Checkpoint state; ``changed`` keeps only the quarantine entries
        added since :meth:`clear_changes` (a journal delta)."""
        s = self.stats
        return {
            "path": str(self.path),
            "family": self.spec.family,
            "offset": self.offset,
            "line_no": self.line_no,
            "header_done": self.header_done,
            "stats": {
                "seen": s.seen, "parsed": s.parsed,
                "repaired": s.repaired, "quarantined": s.quarantined,
                "missing": s.missing, "source": s.source,
                "fast_lines": s.fast_lines,
            },
            "order": {
                "cummax": self._time_cummax,
                "max_abs": self._time_max_abs,
                "margins": [[m, n] for m, n in sorted(self._late.items())],
            },
            "quarantine": (
                [
                    list(e) for e in self.quarantine.entries[
                        self._quarantine_saved if changed else 0:
                    ]
                ]
                if self.quarantine is not None else None
            ),
        }

    def clear_changes(self) -> None:
        """Mark the current state as checkpointed."""
        if self.quarantine is not None:
            self._quarantine_saved = len(self.quarantine.entries)

    def restore(self, state: dict) -> None:
        self.offset = int(state["offset"])
        self.line_no = int(state["line_no"])
        self.header_done = bool(state["header_done"])
        st = state["stats"]
        self.stats = IngestStats(
            family=self.spec.family, seen=int(st["seen"]),
            parsed=int(st["parsed"]), repaired=int(st["repaired"]),
            quarantined=int(st["quarantined"]), missing=bool(st["missing"]),
            source=str(st["source"]), fast_lines=int(st["fast_lines"]),
        )
        order = state["order"]
        self._time_cummax = order["cummax"]
        self._time_max_abs = float(order["max_abs"])
        self._late = {
            float(m[0]): int(m[1])
            for m in order["margins"] if isinstance(m, list)
        }
        # Older checkpoints list every margin; they fold into the tally.
        self._tally_late(np.array(
            [m for m in order["margins"] if not isinstance(m, list)],
            dtype=np.float64,
        ))
        if self.quarantine is not None:
            self.quarantine.entries = [
                (int(ln), reason, line)
                for ln, reason, line in (state["quarantine"] or [])
            ]
            self._quarantine_saved = len(self.quarantine.entries)
