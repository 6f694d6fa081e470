"""BMC sensor logs: per-minute samples as CSV.

Section 2.2: each node's BMC reports six temperature sensors and one DC
power sensor once per minute into a back-end database; the release ships
them as text.  Format::

    timestamp,node,sensor,value
    2019-06-01T00:00:00,0123,dimm_jlnp,41.50

Raw logs include the invalid samples a real BMC produces (stuck zeros,
impossible power readings); :func:`filter_valid_samples` applies the same
sub-1% exclusion the paper describes.
"""

from __future__ import annotations

import os

import numpy as np

from repro._util import iso
from repro.logs import fastpath
from repro.logs.ingest import (
    IngestPolicy,
    IngestStats,
    MalformedRecordError,
    Quarantine,
    fastpath_enabled,
    ingest_lines,
    ingest_stream_fast,
    resort_by_time,
)
from repro.machine.sensors import NodeSensorComplement

#: Last epoch second that renders as a 19-char ISO timestamp (year 9999).
_ISO_MAX_S = 253402300800

#: One sensor sample.
SENSOR_SAMPLE_DTYPE = np.dtype(
    [
        ("time", np.float64),
        ("node", np.int32),
        ("sensor", np.int8),
        ("value", np.float32),
    ]
)


def _fixed2_digits(vals):
    """``%.2f`` as integer hundredths; ``None`` -> caller goes slow.

    ``round(v * 100)`` half-even equals Python's ``%.2f`` except when
    the float product lands within one ulp of a rounding tie -- there
    the tie direction depends on decimal digits the product cannot
    represent, so those (vanishingly rare) rows are re-derived from
    Python's own formatting.
    """
    v64 = np.asarray(vals, dtype=np.float64)
    if not np.all(np.isfinite(v64)):
        return None, None
    v100 = np.abs(v64) * 100.0
    if np.any(v100 >= 1e15):
        return None, None
    q = np.round(v100).astype(np.int64)
    danger = np.abs(v100 - np.floor(v100) - 0.5) <= np.maximum(
        1e-6, np.spacing(v100)
    )
    for i in np.flatnonzero(danger).tolist():
        whole, frac = f"{abs(v64[i]):.2f}".split(".")
        q[i] = int(whole) * 100 + int(frac)
    return q, np.signbit(v64).astype(np.int64)


def _emit_bmc_chunk(tt, nn, name: str, vals) -> bytes | None:
    """Render one (time-chunk, sensor) batch column-wise; None -> slow."""
    if not np.all(np.isfinite(tt)):
        return None
    t64 = np.asarray(tt).astype(np.int64)
    if np.any(t64 < 0) or np.any(t64 >= _ISO_MAX_S) or np.any(nn < 0):
        return None
    q, neg = _fixed2_digits(vals)
    if q is None:
        return None
    return fastpath.build_lines(
        int(t64.size),
        [
            fastpath.iso_bytes(t64),
            b",",
            fastpath.uint_digits(nn, 4),
            b"," + name.encode("utf-8") + b",",
            fastpath.choice_bytes(neg, [b"", b"-"]),
            fastpath.uint_digits(q // 100),
            b".",
            fastpath.uint_digits(q % 100, 2),
        ],
    )


def write_bmc_log(
    path: str | os.PathLike,
    sensor_model,
    node_ids,
    t0: float,
    t1: float,
    cadence_s: float = 60.0,
    sensors: tuple[int, ...] | None = None,
    fast: bool = True,
) -> int:
    """Sample the sensor field and write a BMC CSV; returns sample count.

    Samples every ``cadence_s`` seconds in ``[t0, t1)`` for each node and
    sensor.  Raw (possibly invalid) readings are written, as a BMC would.
    """
    if t1 <= t0:
        raise ValueError("empty time window")
    complement = NodeSensorComplement()
    sensor_list = sensors if sensors is not None else tuple(range(len(complement)))
    names = complement.names
    nodes = np.asarray(node_ids, dtype=np.int64)
    times = np.arange(t0, t1, cadence_s)

    n = 0
    use_fast = fastpath_enabled(fast)
    with open(path, "wb") as fh:
        fh.write(b"timestamp,node,sensor,value\n")
        for t_chunk_start in range(0, times.size, 4096):
            t_chunk = times[t_chunk_start : t_chunk_start + 4096]
            for s in sensor_list:
                # node-major within the chunk for locality
                tt = np.repeat(t_chunk, nodes.size)
                nn = np.tile(nodes, t_chunk.size)
                vals = sensor_model.raw_samples(nn, np.full(nn.size, s), tt)
                payload = (
                    _emit_bmc_chunk(tt, nn, names[s], vals)
                    if use_fast and tt.size else None
                )
                if payload is None:
                    lines = [
                        f"{iso(t)},{node:04d},{names[s]},{v:.2f}"
                        for t, node, v in zip(tt, nn, vals)
                    ]
                    payload = ("\n".join(lines) + "\n").encode("utf-8")
                fh.write(payload)
                n += int(tt.size)
    return n


def _parse_sample_line(line: str, name_to_idx: dict) -> tuple:
    ts, node, name, value = line.split(",")
    t = float(np.datetime64(ts).astype("datetime64[s]").astype(np.int64))
    return (t, int(node), name_to_idx[name], float(value))


def _rows_to_samples(rows: list[tuple]) -> np.ndarray:
    out = np.zeros(len(rows), dtype=SENSOR_SAMPLE_DTYPE)
    for i, row in enumerate(rows):
        out[i] = row
    return out


def _make_fast_bmc_chunk(names):
    """Build the column-wise parser for one ingest's sensor vocabulary."""
    vocab = [name.encode("utf-8") for name in names]

    def fast_chunk(chunk: "fastpath.Chunk"):
        data = chunk.data
        ts, te, ok = fastpath.split_tokens(
            data, chunk.starts, chunk.ends, 4, sep=44
        )
        t_sec, ok_t = fastpath.parse_iso_seconds(data, ts[:, 0], te[:, 0])
        ok &= ok_t
        node, ok_n = fastpath.parse_uint(data, ts[:, 1], te[:, 1])
        ok &= ok_n & (node <= np.iinfo(np.int32).max)
        sensor, ok_s = fastpath.match_vocab(data, ts[:, 2], te[:, 2], vocab)
        ok &= ok_s
        value, ok_v = fastpath.parse_decimal(data, ts[:, 3], te[:, 3])
        ok &= ok_v

        out = np.zeros(int(np.count_nonzero(ok)), dtype=SENSOR_SAMPLE_DTYPE)
        out["time"] = t_sec[ok]
        out["node"] = node[ok]
        out["sensor"] = sensor[ok]
        out["value"] = value[ok]
        return out, ok

    return fast_chunk


def ingest_bmc_log(
    path: str | os.PathLike,
    policy: IngestPolicy | str = IngestPolicy.REPAIR,
    quarantine: bool = True,
    fast: bool = True,
) -> tuple[np.ndarray, IngestStats]:
    """Parse a BMC CSV under an ingest policy; returns (samples, stats).

    A missing header raises under ``strict``; the lenient policies fall
    back to treating the first line as data (the header itself fails to
    parse and is quarantined, so it still shows up in the accounting).
    ``fast`` selects the chunked column-wise parser (identical results;
    see DESIGN.md section 9).
    """
    from repro import obs

    policy = IngestPolicy.coerce(policy)
    complement = NodeSensorComplement()
    name_to_idx = {name: i for i, name in enumerate(complement.names)}
    stats = IngestStats(family="sensors", source="text")
    sidecar = Quarantine(path) if quarantine else None

    def parse(line: str) -> tuple:
        return _parse_sample_line(line, name_to_idx)

    with obs.span("ingest.sensors", attrs={"policy": policy.value}) as sp:
        if fastpath_enabled(fast):
            with open(path, "rb") as fh:
                header = fh.readline()
                if not header.startswith(b"timestamp,"):
                    if policy is IngestPolicy.STRICT:
                        raise MalformedRecordError(
                            "sensors", path, 1,
                            header.decode("utf-8").strip(), "missing header",
                        )
                    fh.seek(0)
                batches = list(
                    ingest_stream_fast(
                        fh, parse, stats, policy, sidecar,
                        fast_chunk=_make_fast_bmc_chunk(complement.names),
                        rows_to_records=_rows_to_samples,
                    )
                )
            out = (
                np.concatenate(batches) if batches
                else np.zeros(0, dtype=SENSOR_SAMPLE_DTYPE)
            )
        else:
            with open(path) as fh:
                header = fh.readline()
                if not header.startswith("timestamp,"):
                    if policy is IngestPolicy.STRICT:
                        raise MalformedRecordError(
                            "sensors", path, 1, header.strip(), "missing header"
                        )
                    fh.seek(0)
                rows = list(ingest_lines(fh, parse, stats, policy, sidecar))
            out = _rows_to_samples(rows)
        if sidecar is not None:
            sidecar.flush()
        out = resort_by_time(out, stats, policy)
        stats.check_invariant()
        sp.add(**obs.record_ingest(stats))
    return out, stats


def sensor_dropout_windows(samples: np.ndarray) -> list[tuple[float, float]]:
    """Detect BMC reporting gaps: windows with no samples from any node.

    A gap longer than :data:`DROPOUT_GAP_S` between consecutive distinct
    sample timestamps is reported as a ``(start, end)`` dropout window --
    the sensor-side analogue of the syslog truncations the ingest layer
    quarantines.  Experiments can subtract these windows from their
    denominator instead of treating silence as healthy telemetry.
    """
    starts, ends, _ = dropout_gaps(samples["time"])
    return list(zip(starts.tolist(), ends.tolist()))


#: BMC silence longer than this (three 60 s sample cadences) is one
#: sensor dropout, for every holder that counts dropouts.
DROPOUT_GAP_S = 180.0


def dropout_gaps(
    times: np.ndarray, watermark: float | None = None
) -> tuple[np.ndarray, np.ndarray, float | None]:
    """Gaps wider than :data:`DROPOUT_GAP_S` in a sample-time stream,
    past a watermark.

    The one sensor-dropout walk, shared by :func:`sensor_dropout_windows`
    (no watermark), the live ``sensor_dropout`` alert rule and the
    rollup dropout tallies (both carry ``watermark`` across batches).
    Distinct times at or below the watermark are late replays and are
    dropped; the watermark is prepended to the rest, so a gap can open
    at the previous batch's last sample.  Returns ``(starts, ends,
    new_watermark)``.
    """
    times = np.unique(times)
    if watermark is not None:
        times = np.concatenate(([watermark], times[times > watermark]))
    if times.size == 0:
        return times, times, watermark
    idx = np.flatnonzero(np.diff(times) > DROPOUT_GAP_S)
    return times[idx], times[idx + 1], float(times[-1])


def filter_valid_samples(samples: np.ndarray) -> tuple[np.ndarray, float]:
    """Drop invalid samples; returns (valid_samples, excluded_fraction).

    Mirrors the paper's exclusion of non-functioning sensor readings and
    clearly-invalid power values (section 2.2); the excluded fraction on
    Astra was well under 1%.
    """
    if samples.dtype != SENSOR_SAMPLE_DTYPE:
        raise ValueError(f"expected SENSOR_SAMPLE_DTYPE, got {samples.dtype}")
    if samples.size == 0:
        return samples.copy(), 0.0
    complement = NodeSensorComplement()
    ok = complement.is_valid_sample(samples["sensor"], samples["value"])
    return samples[ok], float(1.0 - ok.mean())
