"""HET (Hardware Event Tracker) log lines.

Section 3.5: uncorrectable errors and related hardware events are recorded
in the syslog by the HET, with a severity field.  Line format::

    2019-08-30T07:12:44 astra-n0123 HET severity=NON-RECOVERABLE \
        event=uncorrectableECC

Event names come from Figure 15's legend verbatim.  Parsing goes
through the shared :mod:`repro.logs.ingest` policy machinery:
:func:`ingest_het_log` under ``strict`` raises a typed error on any
malformed record, and under the lenient policies quarantines garbage
and repairs records whose severity flag contradicts their event type.
"""

from __future__ import annotations

import os

import numpy as np

from repro._util import iso
from repro.logs import fastpath
from repro.logs.ingest import (
    IngestPolicy,
    IngestStats,
    Quarantine,
    fastpath_enabled,
    ingest_lines,
    ingest_stream_fast,
    resort_by_time,
)
from repro.synth.het import EVENT_TYPES, HET_DTYPE, NON_RECOVERABLE_EVENTS

_SEVERITY_CHOICES = [b"INFORMATIONAL", b"NON-RECOVERABLE"]
_EVENT_CHOICES = [name.encode() for name in EVENT_TYPES]

#: Last epoch second that renders as a 19-char ISO timestamp (year 9999).
_ISO_MAX_S = 253402300800


def _format_het_record(rec) -> str:
    severity = "NON-RECOVERABLE" if rec["non_recoverable"] else "INFORMATIONAL"
    name = EVENT_TYPES[int(rec["event"])]
    return (
        f"{iso(float(rec['time']))} astra-n{int(rec['node']):04d} HET "
        f"severity={severity} event={name}\n"
    )


def _emit_het_chunk(chunk: np.ndarray) -> bytes | None:
    """Render a record chunk column-wise; None -> use the per-record path."""
    t = chunk["time"]
    if not np.all(np.isfinite(t)):
        return None
    t64 = t.astype(np.int64)
    event = chunk["event"].astype(np.int64)
    if (
        np.any(t64 < 0)
        or np.any(t64 >= _ISO_MAX_S)
        or np.any(chunk["node"] < 0)
        or np.any(event < 0)
        or np.any(event >= len(EVENT_TYPES))
    ):
        return None
    return fastpath.build_lines(
        int(chunk.size),
        [
            fastpath.iso_bytes(t64),
            b" astra-n",
            fastpath.uint_digits(chunk["node"], 4),
            b" HET severity=",
            fastpath.choice_bytes(
                chunk["non_recoverable"].astype(np.int64), _SEVERITY_CHOICES
            ),
            b" event=",
            fastpath.choice_bytes(event, _EVENT_CHOICES),
        ],
    )


def write_het_log(events: np.ndarray, path: str | os.PathLike,
                  fast: bool = True) -> int:
    """Write HET records as text lines; returns the line count."""
    if events.dtype != HET_DTYPE:
        raise ValueError(f"expected HET_DTYPE, got {events.dtype}")
    with open(path, "wb") as fh:
        use_fast = fastpath_enabled(fast)
        for start in range(0, events.size, 65536):
            chunk = events[start : start + 65536]
            payload = _emit_het_chunk(chunk) if use_fast and chunk.size else None
            if payload is None:
                payload = "".join(
                    _format_het_record(rec) for rec in chunk
                ).encode("utf-8")
            fh.write(payload)
    return int(events.size)


_NAME_TO_IDX = {name: i for i, name in enumerate(EVENT_TYPES)}


def _parse_line(line: str) -> tuple:
    # The event name may contain spaces ("... de-asserted"), so split on
    # the known markers instead of naive whitespace.
    head, _, event_part = line.partition(" event=")
    parts = head.split()
    if len(parts) != 4 or parts[2] != "HET" or not event_part:
        raise ValueError("not a HET record")
    t = float(np.datetime64(parts[0]).astype("datetime64[s]").astype(np.int64))
    if not parts[1].startswith("astra-n"):
        raise ValueError("unknown host format")
    node = int(parts[1][len("astra-n") :])
    severity = parts[3].split("=", 1)[1]
    if event_part not in _NAME_TO_IDX:
        raise ValueError(f"unknown HET event: {event_part!r}")
    event = _NAME_TO_IDX[event_part]
    non_recoverable = severity == "NON-RECOVERABLE"
    if (event in NON_RECOVERABLE_EVENTS) != non_recoverable:
        raise ValueError("severity flag inconsistent with event type")
    return (t, node, event, non_recoverable)


def _repair_line(line: str) -> tuple:
    """Repair a HET record whose severity contradicts its event type.

    The event vocabulary is authoritative (Figure 15b fixes which events
    are NON-RECOVERABLE), so a garbled severity field is recoverable as
    long as the rest of the line parses.
    """
    head, _, event_part = line.partition(" event=")
    parts = head.split()
    if len(parts) != 4 or parts[2] != "HET" or not event_part:
        raise ValueError("not a repairable HET record")
    t = float(np.datetime64(parts[0]).astype("datetime64[s]").astype(np.int64))
    if not parts[1].startswith("astra-n"):
        raise ValueError("unknown host format")
    node = int(parts[1][len("astra-n") :])
    if event_part not in _NAME_TO_IDX:
        raise ValueError(f"unknown HET event: {event_part!r}")
    event = _NAME_TO_IDX[event_part]
    return (t, node, event, event in NON_RECOVERABLE_EVENTS)


def _rows_to_het(rows: list[tuple]) -> np.ndarray:
    out = np.zeros(len(rows), dtype=HET_DTYPE)
    for i, row in enumerate(rows):
        out[i] = row
    return out


_NON_RECOVERABLE_SET = np.array(sorted(NON_RECOVERABLE_EVENTS), dtype=np.int64)


def _fast_het_chunk(chunk: "fastpath.Chunk"):
    """Column-parse canonical HET lines; returns ``(records, ok)``.

    Accepts the writer's grammar only: four single-space head tokens
    (19-char ISO timestamp, ``astra-n<digits>``, the literal ``HET``,
    ``severity=`` with a known severity) and an ``event=`` tail naming a
    known event -- the tail is free-form because event names may contain
    spaces.  Severity must agree with the event type, exactly as the
    per-line parser's consistency check demands; inconsistent lines fall
    back so the slow path raises or repairs them identically.
    """
    data = chunk.data
    ts, te, ok = fastpath.split_head_tokens(data, chunk.starts, chunk.ends, 4)
    t_sec, ok_t = fastpath.parse_iso_seconds(data, ts[:, 0], te[:, 0])
    ok &= ok_t
    ok &= fastpath.has_prefix(data, ts[:, 1], te[:, 1], b"astra-n")
    node, ok_n = fastpath.parse_uint(data, ts[:, 1] + 7, te[:, 1])
    ok &= ok_n & (node <= np.iinfo(np.int32).max)
    ok &= fastpath.token_equals(data, ts[:, 2], te[:, 2], b"HET")
    ok &= fastpath.has_prefix(data, ts[:, 3], te[:, 3], b"severity=")
    sev, ok_s = fastpath.match_vocab(data, ts[:, 3] + 9, te[:, 3], _SEVERITY_CHOICES)
    ok &= ok_s
    ok &= fastpath.has_prefix(data, ts[:, 4], te[:, 4], b"event=")
    event, ok_e = fastpath.match_vocab(data, ts[:, 4] + 6, te[:, 4], _EVENT_CHOICES)
    ok &= ok_e
    non_recoverable = sev == 1
    ok &= np.isin(event, _NON_RECOVERABLE_SET) == non_recoverable

    out = np.zeros(int(np.count_nonzero(ok)), dtype=HET_DTYPE)
    out["time"] = t_sec[ok]
    out["node"] = node[ok]
    out["event"] = event[ok]
    out["non_recoverable"] = non_recoverable[ok]
    return out, ok


def ingest_het_log(
    path: str | os.PathLike,
    policy: IngestPolicy | str = IngestPolicy.REPAIR,
    quarantine: bool = True,
    fast: bool = True,
) -> tuple[np.ndarray, IngestStats]:
    """Parse a HET log under an ingest policy; returns (events, stats).

    Quarantined lines land in ``<path>.quarantine`` unless ``quarantine``
    is False.  ``fast`` selects the chunked column-wise parser
    (identical results; see DESIGN.md section 9).
    """
    from repro import obs

    policy = IngestPolicy.coerce(policy)
    stats = IngestStats(family="het", source="text")
    sidecar = Quarantine(path) if quarantine else None
    repair = _repair_line if policy is IngestPolicy.REPAIR else None
    with obs.span("ingest.het", attrs={"policy": policy.value}) as sp:
        if fastpath_enabled(fast):
            with open(path, "rb") as fh:
                batches = list(
                    ingest_stream_fast(
                        fh, _parse_line, stats, policy, sidecar, repair,
                        fast_chunk=_fast_het_chunk,
                        rows_to_records=_rows_to_het,
                    )
                )
            out = (
                np.concatenate(batches) if batches
                else np.zeros(0, dtype=HET_DTYPE)
            )
        else:
            with open(path) as fh:
                rows = list(
                    ingest_lines(fh, _parse_line, stats, policy, sidecar, repair)
                )
            out = _rows_to_het(rows)
        if sidecar is not None:
            sidecar.flush()
        out = resort_by_time(out, stats, policy)
        stats.check_invariant()
        sp.add(**obs.record_ingest(stats))
    return out, stats
