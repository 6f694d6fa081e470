"""Correctable-error records as syslog text lines.

Astra's OS polls the memory controller's CE log every few seconds and
writes each record to the syslog (section 2.3).  The fields match the
data-release description of section 2.4: timestamp, node ID, socket, type
of failure, DIMM slot, row, rank, bank, bit position, physical address and
vendor-specific syndrome data.

The line format used here::

    2019-03-04T12:34:56 astra-n0123 kernel: EDAC CE socket=0 slot=J \
        rank=0 bank=3 row=- col=17 bit=42 addr=0x000000012340 synd=0x2b

Unavailable fields (the row on Astra; the whole positional payload for
storm records) are written as ``-``.  Parsing goes through the shared
:mod:`repro.logs.ingest` machinery: ``strict`` raises a typed error on
the first bad line, ``skip`` quarantines garbage with a per-line reason,
and ``repair`` additionally salvages truncated lines (filling the
missing trailing fields with sentinels, as the real payload-less storm
records already do) and re-sorts out-of-order timestamps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.faults.types import ERROR_DTYPE, empty_errors
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
from repro.machine.node import DIMM_SLOTS, slot_index, slot_letter
from repro._util import iso


def format_ce_record(record) -> str:
    """Format one CE record as a syslog line."""

    def opt(value: int, fmt: str = "{}") -> str:
        return "-" if value < 0 else fmt.format(value)

    slot = "-" if record["slot"] < 0 else slot_letter(int(record["slot"]))
    return (
        f"{iso(float(record['time']))} astra-n{int(record['node']):04d} "
        f"kernel: EDAC CE socket={int(record['socket'])} slot={slot} "
        f"rank={int(record['rank'])} bank={opt(int(record['bank']))} "
        f"row={opt(int(record['row']))} col={opt(int(record['column']))} "
        f"bit={opt(int(record['bit_pos']))} "
        f"addr=0x{int(record['address']):012x} "
        f"synd=0x{int(record['syndrome']):02x}"
    )


#: Writer-side slot vocabulary: index -1 renders as ``-``, 0..15 as A..P.
_SLOT_CHOICES = [b"-"] + [letter.encode() for letter in DIMM_SLOTS]

#: Last epoch second that renders as a 19-char ISO timestamp (year 9999).
_ISO_MAX_S = 253402300800


def _emit_ce_chunk(chunk: np.ndarray) -> bytes | None:
    """Render a record chunk column-wise; None -> use the per-record path.

    Bails out (returning None) whenever any record would not format the
    way the column assembler assumes -- non-finite or out-of-ISO-range
    times, negative direct-printed ints, addresses wider than 12 hex
    digits, slot indices past P -- so abnormal chunks fall back to
    :func:`format_ce_record` and keep its exact behaviour, including its
    exceptions.
    """
    t = chunk["time"]
    if not np.all(np.isfinite(t)):
        return None
    t64 = t.astype(np.int64)
    if (
        np.any(t64 < 0)
        or np.any(t64 >= _ISO_MAX_S)
        or np.any(chunk["node"] < 0)
        or np.any(chunk["socket"] < 0)
        or np.any(chunk["rank"] < 0)
        or np.any(chunk["slot"] >= len(DIMM_SLOTS))
        or np.any(chunk["address"] >= np.uint64(16) ** np.uint64(12))
    ):
        return None
    slot_idx = chunk["slot"].astype(np.int64)
    slot_idx = np.where(slot_idx < 0, 0, slot_idx + 1)
    return fastpath.build_lines(
        int(chunk.size),
        [
            fastpath.iso_bytes(t64),
            b" astra-n",
            fastpath.uint_digits(chunk["node"], 4),
            b" kernel: EDAC CE socket=",
            fastpath.uint_digits(chunk["socket"]),
            b" slot=",
            fastpath.choice_bytes(slot_idx, _SLOT_CHOICES),
            b" rank=",
            fastpath.uint_digits(chunk["rank"]),
            b" bank=",
            fastpath.opt_uint_digits(chunk["bank"]),
            b" row=",
            fastpath.opt_uint_digits(chunk["row"]),
            b" col=",
            fastpath.opt_uint_digits(chunk["column"]),
            b" bit=",
            fastpath.opt_uint_digits(chunk["bit_pos"]),
            b" addr=0x",
            fastpath.hex_digits(chunk["address"], 12),
            b" synd=0x",
            fastpath.hex_digits(chunk["syndrome"], 2),
        ],
    )


def write_ce_log(errors: np.ndarray, path: str | os.PathLike,
                 fast: bool = True) -> int:
    """Write CE records to a syslog file; returns the line count.

    Uses chunked formatting so multi-million-record logs stream without
    building one giant string.  ``fast`` selects the column-wise byte
    assembler (same output, per chunk) with automatic per-record
    fallback for abnormal chunks.
    """
    if errors.dtype != ERROR_DTYPE:
        raise ValueError(f"expected ERROR_DTYPE, got {errors.dtype}")
    n = 0
    with open(path, "wb") as fh:
        use_fast = fastpath_enabled(fast)
        for start in range(0, errors.size, 65536):
            chunk = errors[start : start + 65536]
            payload = _emit_ce_chunk(chunk) if use_fast and chunk.size else None
            if payload is None:
                text = "\n".join(format_ce_record(r) for r in chunk)
                payload = text.encode("utf-8") + (b"\n" if chunk.size else b"")
            fh.write(payload)
            n += chunk.size
    return n


@dataclass
class ParseResult:
    """Outcome of parsing a CE log."""

    errors: np.ndarray
    stats: IngestStats

    @property
    def n_malformed(self) -> int:
        """Records neither parsed nor repaired (back-compat alias)."""
        return self.stats.quarantined


def _parse_int(token: str, default: int = -1) -> int:
    value = token.split("=", 1)[1]
    if value == "-":
        return default
    return int(value, 0)  # handles 0x prefixes


def _rows_to_array(rows: list[dict]) -> np.ndarray:
    out = empty_errors(len(rows))
    for i, row in enumerate(rows):
        for key, value in row.items():
            out[i][key] = value
    return out


#: Fused prefix table for tokens 1..13 of a canonical CE line (token 0,
#: the timestamp, is validated by :func:`fastpath.parse_iso_seconds`).
_CE_PREFIX_TABLE = fastpath.compile_prefixes(
    [
        b"astra-n", b"kernel:", b"EDAC", b"CE",
        b"socket=", b"slot=", b"rank=", b"bank=",
        b"row=", b"col=", b"bit=", b"addr=0x", b"synd=0x",
    ]
)

#: The six ``key=<decimal|->`` fields, batched into one parse pass:
#: token column, prefix length, dash default, and dtype ceiling (so the
#: eventual array assignment cannot overflow differently from the slow
#: path's Python ints).
_KV_COLS = np.array([5, 7, 8, 9, 10, 11])
_KV_PLEN = np.array([7, 5, 5, 4, 4, 4])  # socket= rank= bank= row= col= bit=
_KV_DEFAULT = np.array([0, 0, -1, -1, -1, -1], dtype=np.int64)
_KV_HI = np.array(
    [
        np.iinfo(np.int8).max, np.iinfo(np.int8).max, np.iinfo(np.int8).max,
        np.iinfo(np.int32).max, np.iinfo(np.int16).max, np.iinfo(np.int16).max,
    ],
    dtype=np.int64,
)

#: slot= value byte -> slot index (-1 for ``-``, -2 for anything else).
_SLOT_LUT = np.full(256, -2, dtype=np.int64)
_SLOT_LUT[ord("-")] = -1
for _i, _letter in enumerate(DIMM_SLOTS):
    _SLOT_LUT[ord(_letter)] = _i


def _fast_ce_chunk(chunk: "fastpath.Chunk"):
    """Column-parse canonical CE lines; returns ``(records, ok)``.

    The accepted grammar is exactly the writer's output: 14 single-space
    tokens, 19-char ISO timestamp, ``astra-n<digits>`` host, the literal
    ``kernel: EDAC CE`` marker, and the nine key=value fields in
    canonical order with in-range values.  Anything else -- reordered
    keys, extra whitespace, truncations, out-of-range values -- gets
    ``ok`` False and is re-parsed by the per-line machinery.
    """
    data = chunk.data
    ts, te, ok = fastpath.split_tokens(data, chunk.starts, chunk.ends, 14)
    ok &= fastpath.has_prefixes(data, ts[:, 1:], te[:, 1:], _CE_PREFIX_TABLE)
    w = te - ts
    # The three literal tokens must match exactly, not just by prefix.
    ok &= (w[:, 2] == 7) & (w[:, 3] == 4) & (w[:, 4] == 2)
    t_sec, ok_t = fastpath.parse_iso_seconds(data, ts[:, 0], te[:, 0])
    ok &= ok_t
    node, ok_n = fastpath.parse_uint(data, ts[:, 1] + 7, te[:, 1])
    ok &= ok_n & (node <= np.iinfo(np.int32).max)

    # slot= carries exactly one byte from the letter vocabulary (or -).
    slot = _SLOT_LUT[np.take(data, ts[:, 6] + 5, mode="clip")]
    ok &= (w[:, 6] == 6) & (slot > -2)

    # One batched parse over the six decimal fields (field-major): a
    # value is either the literal dash (taking the field's default) or
    # leading-zero-free decimal digits within the target dtype's range,
    # mirroring the slow path's ``int(x, 0)`` grammar exactly.
    n = ts.shape[0]
    vs = (ts[:, _KV_COLS] + _KV_PLEN[None, :]).T.ravel()
    ve = te[:, _KV_COLS].T.ravel()
    val, ok_v = fastpath.parse_uint(data, vs, ve)
    ok_v &= ~fastpath.leading_zero(data, vs, ve)
    dash = ((ve - vs) == 1) & (np.take(data, vs, mode="clip") == 45)
    val = val.reshape(len(_KV_COLS), n)
    ok_v = ok_v.reshape(len(_KV_COLS), n) & (val <= _KV_HI[:, None])
    dash = dash.reshape(len(_KV_COLS), n)
    ok &= np.all(dash | ok_v, axis=0)
    val = np.where(dash, _KV_DEFAULT[:, None], val)
    socket, rank, bank, row, col, bit = val

    addr, ok_a = fastpath.parse_hex(data, ts[:, 12] + 7, te[:, 12])
    ok &= ok_a & (addr <= (1 << 60) - 1)
    synd, ok_s = fastpath.parse_hex(data, ts[:, 13] + 7, te[:, 13])
    ok &= ok_s & (synd <= 255)

    out = empty_errors(int(np.count_nonzero(ok)))
    out["time"] = t_sec[ok]
    out["node"] = node[ok]
    out["socket"] = socket[ok]
    out["slot"] = slot[ok]
    out["rank"] = rank[ok]
    out["bank"] = bank[ok]
    out["row"] = row[ok]
    out["column"] = col[ok]
    out["bit_pos"] = bit[ok]
    out["address"] = addr[ok]
    out["syndrome"] = synd[ok]
    return out, ok


def ingest_ce_log(
    path: str | os.PathLike,
    policy: IngestPolicy | str = IngestPolicy.REPAIR,
    quarantine: bool = True,
    fast: bool = True,
) -> ParseResult:
    """Parse a CE syslog file under an ingest policy.

    ``strict`` raises :class:`~repro.logs.ingest.MalformedRecordError`
    on the first bad line; ``skip`` quarantines bad lines; ``repair``
    additionally salvages truncated lines and re-sorts out-of-order
    timestamps.  Quarantined lines land in ``<path>.quarantine`` unless
    ``quarantine`` is False.  ``fast`` selects the chunked column-wise
    parser (identical results; see DESIGN.md section 9).
    """
    from repro import obs

    policy = IngestPolicy.coerce(policy)
    stats = IngestStats(family="errors", source="text")
    sidecar = Quarantine(path) if quarantine else None
    repair = _repair_line if policy is IngestPolicy.REPAIR else None
    with obs.span("ingest.errors", attrs={"policy": policy.value}) as sp:
        if fastpath_enabled(fast):
            with open(path, "rb") as fh:
                batches = list(
                    ingest_stream_fast(
                        fh, _parse_line, stats, policy, sidecar, repair,
                        fast_chunk=_fast_ce_chunk,
                        rows_to_records=_rows_to_array,
                    )
                )
            arr = np.concatenate(batches) if batches else empty_errors(0)
        else:
            with open(path) as fh:
                rows = list(
                    ingest_lines(fh, _parse_line, stats, policy, sidecar, repair)
                )
            arr = _rows_to_array(rows)
        if sidecar is not None:
            sidecar.flush()
        out = resort_by_time(arr, stats, policy)
        stats.check_invariant()
        sp.add(**obs.record_ingest(stats))
    return ParseResult(errors=out, stats=stats)


def stream_ce_batches(
    path: str | os.PathLike,
    policy: IngestPolicy | str = IngestPolicy.REPAIR,
    quarantine: bool = True,
    fast: bool = True,
    stats: IngestStats | None = None,
    chunk_records: int = 100_000,
):
    """Stream a CE log as ERROR_DTYPE batches under an ingest policy.

    The block-granular two-gear reader of :func:`ingest_ce_log` without
    materialising the whole stream: each yielded batch is ready for
    online aggregation (e.g. ``OnlineCoalescer.add``, whose result is
    batching-insensitive).  ``stats`` -- an :class:`IngestStats`,
    created when ``None`` -- accumulates the same per-line accounting as
    :func:`ingest_ce_log`, minus the cross-stream time re-sort: repair
    applies per line only, so out-of-order timestamps are not
    reclassified as repairs.  ``chunk_records`` caps a batch on the
    per-line gear; the fast gear yields one batch per block.
    """
    if chunk_records < 1:
        raise ValueError("chunk_records must be positive")
    policy = IngestPolicy.coerce(policy)
    if stats is None:
        stats = IngestStats(family="errors", source="text")
    sidecar = Quarantine(path) if quarantine else None
    repair = _repair_line if policy is IngestPolicy.REPAIR else None
    try:
        if fastpath_enabled(fast):
            with open(path, "rb") as fh:
                yield from ingest_stream_fast(
                    fh, _parse_line, stats, policy, sidecar, repair,
                    fast_chunk=_fast_ce_chunk,
                    rows_to_records=_rows_to_array,
                )
        else:
            rows: list[dict] = []
            with open(path) as fh:
                for row in ingest_lines(
                    fh, _parse_line, stats, policy, sidecar, repair
                ):
                    rows.append(row)
                    if len(rows) >= chunk_records:
                        yield _rows_to_array(rows)
                        rows = []
            if rows:
                yield _rows_to_array(rows)
        stats.check_invariant()
    finally:
        if sidecar is not None:
            sidecar.flush()


#: Fields a complete CE line must carry (strict mode requires them all).
_REQUIRED_KEYS = ("socket", "slot", "rank", "bank", "row", "col", "bit", "addr", "synd")


def _parse_line(line: str) -> dict:
    parts = line.split()
    # [timestamp, host, 'kernel:', 'EDAC', 'CE', kv...]
    if len(parts) < 13 or parts[3] != "EDAC" or parts[4] != "CE":
        raise ValueError("not a CE record")
    return _parse_fields(parts, require=True)


def _repair_line(line: str) -> dict:
    """Salvage a truncated CE line: present fields win, the rest default.

    A line qualifies for repair when its head (timestamp, host, EDAC CE
    marker) survived; missing trailing key=value fields take the same
    sentinels payload-less storm records already use.
    """
    parts = line.split()
    if len(parts) < 5 or parts[3] != "EDAC" or parts[4] != "CE":
        raise ValueError("not a repairable CE record")
    return _parse_fields(parts)


def _parse_fields(parts: list[str], require: bool = False) -> dict:
    t = float(np.datetime64(parts[0]).astype("datetime64[s]").astype(np.int64))
    host = parts[1]
    if not host.startswith("astra-n"):
        raise ValueError("unknown host format")
    node = int(host[len("astra-n") :])
    kv = {p.split("=", 1)[0]: p for p in parts[5:] if "=" in p}
    if require:
        missing = [k for k in _REQUIRED_KEYS if k not in kv]
        if missing:
            raise ValueError(f"missing fields: {', '.join(missing)}")

    def get_int(key: str, default: int = -1) -> int:
        return _parse_int(kv[key], default) if key in kv else default

    slot_tok = kv["slot"].split("=", 1)[1] if "slot" in kv else "-"
    return dict(
        time=t,
        node=node,
        socket=get_int("socket", 0),
        slot=-1 if slot_tok == "-" else slot_index(slot_tok),
        rank=get_int("rank", 0),
        bank=get_int("bank"),
        row=get_int("row"),
        column=get_int("col"),
        bit_pos=get_int("bit"),
        address=get_int("addr", 0),
        syndrome=get_int("synd", 0),
    )
