"""Shard integrity: CRC-32C content checksums and sidecar verification.

``.npy`` carries no checksum, so a torn write (crash mid-``write``), a
truncated copy, or a flipped bit in the payload is consumed as truth --
the header still parses and the damage silently poisons every reduction
downstream.  This module closes that hole the way production object
stores do: every binary shard/mirror gets a ``<name>.crc32c`` sidecar
written at synthesis time (CRC-32C of the full file bytes, Castagnoli
polynomial -- the same checksum ext4, iSCSI and most object stores
use), and loads verify it before the payload is trusted.  A mismatch
raises the typed :class:`ShardIntegrityError` (a ``ValueError``
subclass, so existing binary-mirror -> text-log fallback ladders treat
it exactly like an unreadable mirror), which the fleet supervisor
routes into the quarantine path instead of the reduction.

The checksum itself is computed without native dependencies at useful
speed: the register update for one byte is GF(2)-linear, so the payload
is split into fixed-width chunks whose partial CRCs are computed in
lock-step with numpy table gathers (one Python iteration per *column*
of the chunk matrix, not per byte) and then folded together with a
precomputed "advance by one chunk of zeros" linear operator.  Small
buffers take a scalar slicing-by-8 path where numpy overhead would
dominate.  Both paths produce standard CRC-32C values (e.g.
``crc32c(b"123456789") == 0xE3069283``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro._util import atomic_write

#: CRC-32C (Castagnoli), reflected representation.
_POLY = 0x82F63B78

#: Chunk width for the vectorised path: one Python iteration per byte
#: column, so wider chunks mean fewer, fatter gathers.  4 KiB keeps the
#: fold loop (one iteration per chunk) short without needing huge rows.
_CHUNK = 4096

#: Buffers below this take the scalar path (numpy setup costs more than
#: it saves on a few KiB).
_VECTOR_MIN = 64 * 1024

#: Sidecar suffix appended to the checksummed file's own name, chosen so
#: ``*.npy`` globs never match a sidecar.
SIDECAR_SUFFIX = ".crc32c"


class ShardIntegrityError(ValueError):
    """A binary shard/mirror failed its content checksum.

    Subclasses ``ValueError`` so every existing "unreadable mirror"
    except-ladder (binary -> text fallback, CLI exit-2 mapping) handles
    a checksum mismatch exactly like a corrupt npy header, while
    callers that care (the fleet supervisor's quarantine path) can
    match the precise type.
    """

    def __init__(self, path, reason: str):
        self.path = Path(path)
        self.reason = reason
        super().__init__(f"{self.path}: {reason}")

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the formatted
        # message) into ``__init__``, which needs (path, reason) -- so a
        # worker-raised instance would fail to unpickle in the parent
        # and be misclassified as a retryable pool error.
        return (type(self), (str(self.path), self.reason))


# ----------------------------------------------------------------------
# CRC-32C kernels
# ----------------------------------------------------------------------
def _make_tables(n: int = 8) -> np.ndarray:
    """Slicing tables: ``T[k][b]`` advances byte ``b`` past ``k`` more bytes."""
    t = np.zeros((n, 256), dtype=np.uint32)
    for i in range(256):
        c = i
        for _ in range(8):
            c = (c >> 1) ^ _POLY if c & 1 else c >> 1
        t[0, i] = c
    for k in range(1, n):
        for i in range(256):
            c = int(t[k - 1, i])
            t[k, i] = int(t[0, c & 0xFF]) ^ (c >> 8)
    return t


_T = _make_tables(8)
#: Python-int copies for the scalar loop (uint32 indexing is slower).
_TL = [row.tolist() for row in _T]


def _update_scalar(reg: int, data) -> int:
    """Advance the raw CRC register over ``data``, slicing-by-8."""
    t0, t1, t2, t3, t4, t5, t6, t7 = _TL
    mv = memoryview(data).cast("B")
    n = len(mv)
    i = 0
    end8 = n - (n % 8)
    while i < end8:
        b = mv[i : i + 8]
        reg = (
            t7[(reg ^ b[0]) & 0xFF]
            ^ t6[((reg >> 8) ^ b[1]) & 0xFF]
            ^ t5[((reg >> 16) ^ b[2]) & 0xFF]
            ^ t4[((reg >> 24) ^ b[3]) & 0xFF]
            ^ t3[b[4]]
            ^ t2[b[5]]
            ^ t1[b[6]]
            ^ t0[b[7]]
        )
        i += 8
    while i < n:
        reg = t0[(reg ^ mv[i]) & 0xFF] ^ (reg >> 8)
        i += 1
    return reg


def _byte_matrix() -> np.ndarray:
    """The one-zero-byte register advance as a GF(2) matrix.

    Column ``j`` is the register produced from the basis register
    ``1 << j``; applying the operator is XOR-ing the columns selected
    by the input's set bits.
    """
    cols = np.zeros(32, dtype=np.uint32)
    for j in range(32):
        cols[j] = _update_scalar(1 << j, b"\x00")
    return cols


def _mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Compose two 32-column GF(2) operators (apply ``b``, then ``a``)."""
    out = np.zeros(32, dtype=np.uint32)
    for j in range(32):
        v = int(b[j])
        acc = 0
        k = 0
        while v:
            if v & 1:
                acc ^= int(a[k])
            v >>= 1
            k += 1
        out[j] = acc
    return out


def _operator_tables(mat: np.ndarray) -> np.ndarray:
    """Expand a GF(2) operator into 4x256 byte-indexed XOR tables."""
    tables = np.zeros((4, 256), dtype=np.uint32)
    for byte_idx in range(4):
        for value in range(256):
            acc = 0
            for bit in range(8):
                if value >> bit & 1:
                    acc ^= int(mat[byte_idx * 8 + bit])
            tables[byte_idx, value] = acc
    return tables


def _advance_tables(n_bytes: int) -> np.ndarray:
    """Tables applying "advance register past ``n_bytes`` zero bytes"."""
    mat = _byte_matrix()
    # mat currently advances 1 byte; exponentiate to n_bytes.
    result = None
    power = mat
    n = n_bytes
    while n:
        if n & 1:
            result = power if result is None else _mat_mul(power, result)
        n >>= 1
        power = _mat_mul(power, power)
    assert result is not None
    return _operator_tables(result)


#: Fold operator for one full chunk of zeros, built once at import.
_FOLD = _advance_tables(_CHUNK)


def _apply_fold(reg: int) -> int:
    """Advance ``reg`` past one chunk width of zero bytes."""
    return int(
        _FOLD[0, reg & 0xFF]
        ^ _FOLD[1, (reg >> 8) & 0xFF]
        ^ _FOLD[2, (reg >> 16) & 0xFF]
        ^ _FOLD[3, (reg >> 24) & 0xFF]
    )


def _update_vector(reg: int, data: np.ndarray) -> int:
    """Advance the register over a large buffer, chunk-parallel.

    The first ``K * _CHUNK`` bytes become a ``K x _CHUNK`` matrix whose
    per-chunk partial CRCs (zero initial register) are computed with one
    table gather per byte column; the serial dependency collapses to a
    ``K``-step fold of 4 table lookups each.  The tail shorter than one
    chunk finishes on the scalar path.
    """
    n = data.size
    k = n // _CHUNK
    body = data[: k * _CHUNK].reshape(k, _CHUNK)
    t0 = _T[0]
    z = np.zeros(k, dtype=np.uint32)
    for col in range(_CHUNK):
        z = t0[(z ^ body[:, col]) & np.uint32(0xFF)] ^ (z >> np.uint32(8))
    for partial in z.tolist():
        reg = _apply_fold(reg) ^ int(partial)
    tail = data[k * _CHUNK :]
    if tail.size:
        reg = _update_scalar(reg, tail.tobytes())
    return reg


def crc32c(data, value: int = 0) -> int:
    """Standard CRC-32C of ``data`` (bytes-like), optionally chained.

    ``value`` is a previous :func:`crc32c` result to continue from, so
    large files can be checksummed in streamed blocks.
    """
    reg = (~value) & 0xFFFFFFFF
    buf = np.frombuffer(memoryview(data).cast("B"), dtype=np.uint8)
    if buf.size >= _VECTOR_MIN:
        reg = _update_vector(reg, buf)
    else:
        reg = _update_scalar(reg, buf.tobytes())
    return (~reg) & 0xFFFFFFFF


def crc32c_file(path: str | os.PathLike, block_bytes: int = 1 << 24) -> tuple:
    """``(crc32c, size)`` of a file's full contents, read in blocks."""
    value = 0
    size = 0
    with open(path, "rb") as fh:
        while True:
            block = fh.read(block_bytes)
            if not block:
                break
            value = crc32c(block, value)
            size += len(block)
    return value, size


# ----------------------------------------------------------------------
# Sidecars
# ----------------------------------------------------------------------
def sidecar_path(path: str | os.PathLike) -> Path:
    """The checksum sidecar belonging to ``path``."""
    path = Path(path)
    return path.with_name(path.name + SIDECAR_SUFFIX)


def write_checksum(path: str | os.PathLike) -> Path:
    """Checksum ``path`` and write its sidecar; returns the sidecar path."""
    value, size = crc32c_file(path)
    doc = {"algorithm": "crc32c", "crc32c": f"{value:08x}", "size": size}
    side = sidecar_path(path)
    atomic_write(side, (json.dumps(doc) + "\n").encode())
    return side


def verify_checksum(path: str | os.PathLike, required: bool = False) -> bool:
    """Verify ``path`` against its sidecar, if one exists.

    Returns ``True`` when the checksum was present and matched and
    ``False`` when no sidecar exists (legacy data; ``required=True``
    turns that into an error).  Any mismatch -- wrong length (torn or
    truncated write) or wrong CRC (bit damage) -- raises
    :class:`ShardIntegrityError`.
    """
    side = sidecar_path(path)
    try:
        doc = json.loads(side.read_text())
    except FileNotFoundError:
        if required:
            raise ShardIntegrityError(
                path, f"no {SIDECAR_SUFFIX} sidecar to verify against"
            ) from None
        return False
    except (OSError, json.JSONDecodeError) as exc:
        raise ShardIntegrityError(
            path, f"unreadable checksum sidecar ({exc})"
        ) from exc
    if not isinstance(doc, dict) or doc.get("algorithm") != "crc32c":
        raise ShardIntegrityError(
            path, f"unsupported checksum sidecar {side.name}"
        )
    value, size = crc32c_file(path)
    want_size = doc.get("size")
    if want_size is not None and size != int(want_size):
        raise ShardIntegrityError(
            path,
            f"size mismatch ({size} bytes vs {want_size} recorded); "
            "torn or truncated write",
        )
    want = str(doc.get("crc32c", ""))
    if f"{value:08x}" != want.lower():
        raise ShardIntegrityError(
            path,
            f"crc32c mismatch ({value:08x} vs {want} recorded); "
            "payload corrupted",
        )
    return True
