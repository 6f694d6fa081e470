"""Binary record store with per-rack sharding and memory-mapped reads.

Text logs are the interchange format; repeated analysis runs want
something faster.  ``save_records``/``load_records`` wrap ``.npy`` files
with dtype checking, and :func:`shard_by_rack` splits an error stream
into one file per rack -- the unit of work for the fleet engine
(:mod:`repro.fleet`).

Loading supports two modes:

- eager (default): the whole array is read into memory;
- memory-mapped (``mmap=True``): ``np.load(mmap_mode="r")`` returns a
  read-only view backed by the page cache, so fleet-scale aggregation
  can stream per-shard slices without rehydrating 100M+ rows at once.
  :func:`iter_shards` yields those zero-copy views one shard at a time.

Zero-row shards are legal everywhere: an empty rack's file loads back
as an empty array of the stored dtype (numpy cannot always map a
zero-length buffer, so those fall back to an eager load), and
``shard_by_rack(..., include_empty=True)`` writes one shard per rack so
even an empty stream round-trips its dtype through the shard set.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.logs.integrity import (
    ShardIntegrityError,
    verify_checksum,
    write_checksum,
)
from repro.machine.topology import AstraTopology


def save_records(
    path: str | os.PathLike, records: np.ndarray, checksum: bool = True
) -> None:
    """Save a structured record array to ``.npy``.

    ``checksum`` (the default) also writes a ``.crc32c`` content-checksum
    sidecar beside the file, so later loads can detect torn, truncated or
    bit-flipped payloads (see :mod:`repro.logs.integrity`).
    """
    if records.dtype.names is None:
        raise ValueError("save_records expects a structured array")
    np.save(path, records, allow_pickle=False)
    if checksum:
        # np.save appends ".npy" when the suffix is missing; checksum the
        # file that actually landed on disk.
        path = Path(path)
        if path.suffix != ".npy":
            path = path.with_name(path.name + ".npy")
        write_checksum(path)


def load_records(
    path: str | os.PathLike,
    expected_dtype=None,
    mmap: bool = False,
    verify: bool = False,
) -> np.ndarray:
    """Load a structured record array, optionally checking its dtype.

    ``mmap`` opens the file memory-mapped read-only -- a zero-copy view
    whose pages are faulted in on access, the unit the fleet engine
    aggregates over.  Zero-row files (an empty rack's shard) cannot be
    mapped on every platform and are loaded eagerly instead; they are
    header-only, so the fallback costs nothing.

    ``verify`` checks the file against its ``.crc32c`` sidecar (when one
    exists) *before* the payload is trusted, raising
    :class:`~repro.logs.integrity.ShardIntegrityError` on a torn,
    truncated or bit-damaged file; files without a sidecar (legacy
    data, hand-written fixtures) load unverified.
    """
    if verify:
        verify_checksum(path)
    if mmap:
        try:
            out = np.load(path, mmap_mode="r", allow_pickle=False)
        except ValueError:
            out = np.load(path, allow_pickle=False)
    else:
        out = np.load(path, allow_pickle=False)
    if out.dtype.names is None:
        raise ValueError(f"{path}: not a structured record file")
    if expected_dtype is not None and out.dtype != expected_dtype:
        raise ValueError(
            f"{path}: dtype mismatch (got {out.dtype}, want {expected_dtype})"
        )
    return out


def shard_by_rack(
    errors: np.ndarray,
    directory: str | os.PathLike,
    topology: AstraTopology | None = None,
    prefix: str = "errors-rack",
    include_empty: bool = False,
) -> list[Path]:
    """Split an error stream into one npy shard per rack.

    By default only racks that actually contain records get a shard;
    ``include_empty`` writes a (zero-row) shard for every rack, so a
    shard set always round-trips the stream's dtype -- including the
    degenerate empty stream.  Returns the shard paths in rack order;
    shards concatenate back (after a time sort) to the original stream.
    """
    topo = topology or AstraTopology()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    racks = topo.rack_of(errors["node"]) if errors.size else np.zeros(0, np.int64)
    # Pad rack numbers to the topology's width so shards past rack 99
    # still list lexicographically in rack order.
    width = max(2, len(str(topo.n_racks - 1)))
    paths = []
    for rack in range(topo.n_racks):
        shard = errors[racks == rack]
        if shard.size == 0 and not include_empty:
            continue
        path = directory / f"{prefix}{rack:0{width}d}.npy"
        save_records(path, shard)
        paths.append(path)
    return paths


def iter_shards(paths, expected_dtype=None, mmap: bool = True, verify: bool = False):
    """Yield one (memory-mapped) view per shard, in the given order.

    The streaming complement of :func:`load_shards`: per-shard
    aggregation touches one shard's pages at a time instead of
    materialising the concatenated stream.  ``verify`` checksums each
    shard against its sidecar before yielding it.
    """
    for path in paths:
        yield load_records(path, expected_dtype, mmap=mmap, verify=verify)


def load_shards(
    paths, expected_dtype=None, mmap: bool = False, verify: bool = False
) -> np.ndarray:
    """Concatenate shards back into one stream.

    Streams with a ``"time"`` field come back time-ordered; structured
    arrays without one (e.g. derived or aggregate records) concatenate
    in shard order.  ``mmap`` reads each shard as a view (the
    concatenation itself still materialises; use :func:`iter_shards`
    when the whole stream should never exist in memory).  A shard set
    whose files hold zero rows total returns an empty array of the
    stored dtype instead of raising.
    """
    parts = [
        load_records(p, expected_dtype, mmap=mmap, verify=verify) for p in paths
    ]
    if not parts:
        if expected_dtype is None:
            raise ValueError("no shards and no dtype to build an empty array")
        return np.zeros(0, dtype=expected_dtype)
    out = np.concatenate(parts)
    if "time" in (out.dtype.names or ()):
        return out[np.argsort(out["time"], kind="stable")]
    return out
