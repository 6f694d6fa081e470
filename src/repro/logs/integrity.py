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
is split into chunks whose partial CRCs are computed in lock-step with
numpy table gathers (one Python iteration per 4-byte *column* of the
chunk matrix, not per byte) and then folded together by a pairwise
tree of "advance by 2**k zero bytes" linear operators.  The chunk width
follows the buffer size -- a power of two near ``sqrt(n) / 4`` (64
bytes at 64 KiB, 256 at 1 MiB, 1 KiB at 16 MiB) -- so the Python loop
count grows like ``sqrt(n)``, with no fixed per-call floor; the
operator tables are built on first use and cached, none at import.
Small buffers take a scalar slicing-by-8 path where numpy overhead
would dominate.  Both paths produce standard CRC-32C values (e.g.
``crc32c(b"123456789") == 0xE3069283``).
"""

from __future__ import annotations

import json
import os
from functools import partial
from pathlib import Path

import numpy as np

from repro import ReproError
from repro._util import atomic_write, read_artifact

#: CRC-32C (Castagnoli), reflected representation.
_POLY = 0x82F63B78

#: Buffers below this take the scalar path (numpy setup costs more than
#: it saves on a few KiB).
_VECTOR_MIN = 64 * 1024

#: Sidecar suffix appended to the checksummed file's own name, chosen so
#: ``*.npy`` globs never match a sidecar.
SIDECAR_SUFFIX = ".crc32c"


class ShardIntegrityError(ReproError, ValueError):
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


#: ``_BYTE_BITS[v, b]`` is bit ``b`` of byte value ``v``.
_BYTE_BITS = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(bool)


def _operator_tables(mat: np.ndarray) -> np.ndarray:
    """Expand a GF(2) operator into 4x256 byte-indexed XOR tables.

    ``tables[i, v]`` XORs the operator columns selected by the set bits
    of byte ``i`` of the register holding value ``v``.
    """
    cols = mat.astype(np.uint32).reshape(4, 1, 8)
    picked = np.where(_BYTE_BITS, cols, np.uint32(0))
    return np.bitwise_xor.reduce(picked, axis=2)


def _apply(tables: np.ndarray, regs):
    """Apply an operator (its :func:`_operator_tables`) to registers."""
    return (
        tables[0][regs & 0xFF]
        ^ tables[1][(regs >> 8) & 0xFF]
        ^ tables[2][(regs >> 16) & 0xFF]
        ^ tables[3][regs >> 24]
    )


#: ``level -> tables`` advancing a register past ``2**level`` zero
#: bytes; filled on first use, never at import.
_ADVANCE: dict[int, np.ndarray] = {}

_BASIS = np.uint32(1) << np.arange(32, dtype=np.uint32)


def _advance_tables(level: int) -> np.ndarray:
    """Tables applying "advance register past ``2**level`` zero bytes"."""
    tables = _ADVANCE.get(level)
    if tables is None:
        if level == 0:
            mat = _byte_matrix()
        else:
            # Squaring: advancing 2**level bytes is advancing half that
            # twice; the basis registers' images are the new columns.
            half = _advance_tables(level - 1)
            mat = _apply(half, _apply(half, _BASIS))
        tables = _ADVANCE[level] = _operator_tables(mat)
    return tables


def _chunk_width(n: int) -> int:
    """Chunk width for an ``n``-byte buffer: about sqrt(n) / 4.

    The column loop costs one Python iteration per 4 bytes of width and
    the fold one per doubling of the chunk count, so the loop count is
    ~sqrt(n) / 16 + log2(n): a 64 KiB buffer gets 64-byte chunks, 1 MiB
    256 and 16 MiB 1 KiB.  A power of two (and a multiple of 4, for the
    word view) so every fold level is one cached table.
    """
    return 1 << max(n.bit_length() // 2 - 2, 2)


def _update_vector(reg: int, data: np.ndarray) -> int:
    """Advance the register over a large buffer, chunk-parallel.

    The first ``K * w`` bytes (``w`` from :func:`_chunk_width`) become
    ``K`` rows of little-endian 32-bit words, whose per-row CRCs are
    computed together, one slicing-by-4 table gather per word column.
    Row 0 starts from ``reg``, the others from zero.  A pairwise tree
    then folds the rows: each level advances every left partial past
    the length of its right neighbour (one cached table per level) and
    XORs the pair, since the register update is GF(2)-linear.  A zero
    row prepended to odd levels is neutral.  The tail shorter than one
    chunk finishes on the scalar path.
    """
    n = data.size
    w = _chunk_width(n)
    k = n // w
    words = np.ascontiguousarray(
        data[: k * w].view("<u4").reshape(k, w // 4).T
    )
    t0, t1, t2, t3 = _T[0], _T[1], _T[2], _T[3]
    mask = np.uint32(0xFF)
    z = np.zeros(k, dtype=np.uint32)
    z[0] = reg
    for col in words:
        x = z ^ col
        z = t3[x & mask] ^ t2[(x >> 8) & mask] ^ t1[(x >> 16) & mask] \
            ^ t0[x >> 24]
    level = w.bit_length() - 1
    while z.size > 1:
        if z.size & 1:
            z = np.concatenate([np.zeros(1, dtype=np.uint32), z])
        z = _apply(_advance_tables(level), z[0::2]) ^ z[1::2]
        level += 1
    reg = int(z[0])
    tail = data[k * w :]
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
    verified = read_artifact(
        side, partial(ShardIntegrityError, path),
        partial(_check_against, path), what=f"checksum sidecar {side.name}",
        hint=f"re-fetch the shard, or rewrite its {SIDECAR_SUFFIX} sidecar",
        kind=("algorithm", "crc32c"), absent=False,
    )
    if not verified and required:
        raise ShardIntegrityError(
            path, f"no {SIDECAR_SUFFIX} sidecar to verify against"
        )
    return verified


def _check_against(path, doc: dict) -> bool:
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
