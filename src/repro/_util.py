"""Small shared utilities: time handling, durable artifact writes, the
found/expected refusal, and stateless hash noise.

The sensor field generator needs *stateless* pseudo-randomness -- the value
of sensor ``s`` on node ``n`` at minute ``t`` must be computable in any
order, for any subset, without materialising a 10^9-sample series.  A
SplitMix64-style integer mixer provides that: uniform, deterministic,
vectorisable, seedable.
"""

from __future__ import annotations

import os

import numpy as np

#: Seconds per day; the study's natural reporting granularity.
DAY_S = 86400.0
#: Seconds per hour.
HOUR_S = 3600.0
#: Average seconds per month (30.44 days); used for "monthly" windows.
MONTH_S = 2_629_746.0
#: Hours per year, used by FIT computations.
HOURS_PER_YEAR = 24 * 365


def epoch(date: str) -> float:
    """Unix epoch seconds (UTC) for an ISO date or datetime string.

    >>> epoch("1970-01-02")
    86400.0
    """
    return float(np.datetime64(date).astype("datetime64[s]").astype(np.int64))


def iso(t: float) -> str:
    """ISO-8601 UTC timestamp (second resolution) for epoch seconds."""
    return str(np.datetime64(int(t), "s"))


def month_index(times, t0: float) -> np.ndarray:
    """0-based month bucket of each timestamp relative to ``t0``.

    Buckets are fixed-width average months (30.44 days), matching how the
    paper bins its "per month" series (Figure 4a x-axis is month number).
    """
    t = np.asarray(times, dtype=np.float64)
    out = np.floor((t - t0) / MONTH_S).astype(np.int64)
    return out if out.ndim else int(out)


def day_index(times, t0: float) -> np.ndarray:
    """0-based day bucket of each timestamp relative to ``t0``."""
    t = np.asarray(times, dtype=np.float64)
    out = np.floor((t - t0) / DAY_S).astype(np.int64)
    return out if out.ndim else int(out)


def full_jitter_backoff(
    attempt: int, base_s: float, max_s: float, rng
) -> float:
    """Full-jitter exponential backoff delay for retry ``attempt`` (1-based).

    The classic AWS "full jitter" scheme: sample uniformly from
    ``[0, min(max_s, base_s * 2**(attempt-1))]``.  Jitter decorrelates
    retries that failed together (a broken pool re-queues several tasks
    at once; unjittered backoff would stampede them back in lock-step),
    and the cap keeps the worst-case sleep bounded no matter how many
    attempts a caller allows.  ``rng`` is a ``random.Random`` (seeded by
    the caller, so retry schedules are reproducible in tests).
    """
    cap = min(float(max_s), float(base_s) * (2.0 ** (max(attempt, 1) - 1)))
    return rng.uniform(0.0, cap)


def fsync_dir(directory) -> None:
    """fsync a directory so a rename/create inside it survives power loss.

    ``os.replace`` makes a rename atomic with respect to *crashes of the
    process*, but the new directory entry itself lives in the directory
    inode -- until that is flushed, a power cut can roll the rename back
    (or lose a freshly created file entirely).  POSIX requires opening
    the directory read-only and fsyncing the fd.  Platforms whose
    directory handles refuse fsync (some network filesystems, Windows)
    are skipped silently -- the data fsync still happened, this is
    best-effort hardening of the metadata.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def fsync_file(fh) -> None:
    """Flush an open binary file and fsync its data to stable storage."""
    fh.flush()
    os.fsync(fh.fileno())


def atomic_write(path, data: bytes) -> None:
    """Durably replace ``path`` with ``data``; the one artifact write path.

    ``data`` lands in ``<name>.tmp`` beside ``path``, which is fsynced,
    renamed over ``path`` with ``os.replace``, and then the directory is
    fsynced (:func:`fsync_dir`).

    Crash-ordering invariant: (1) the temp file's *data* is durable
    before the rename, so the rename can never expose a half-written
    file; (2) the *directory* is fsynced after the rename, so a power
    cut cannot roll the rename back and resurface the previous version
    after the caller was told the new one is durable.  A crash at any
    point therefore leaves ``path`` holding either all of the old bytes
    or all of the new ones.  Callers that publish several files in a
    dependency order (payload before the manifest naming it, rollup
    snapshot before the checkpoint naming it) get that order on disk by
    calling this once per file in that order.
    """
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fsync_file(fh)
    os.replace(tmp, path)
    fsync_dir(os.path.dirname(path) or ".")


def mismatch(error_cls, what: str, found, expected, hint: str) -> Exception:
    """The uniform found/expected refusal every artifact loader raises.

    Returns ``error_cls("<what> mismatch: found <found>, expected
    <expected>; hint: <hint>")`` for the caller to ``raise``.  Values
    are formatted with ``str``; pass ``repr(value)`` where quotes help.
    """
    return error_cls(
        f"{what} mismatch: found {found}, expected {expected}; hint: {hint}"
    )


_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(x) -> np.ndarray:
    """SplitMix64 finaliser: a high-quality 64-bit integer mixer."""
    with np.errstate(over="ignore"):
        z = (np.asarray(x, dtype=np.uint64) + _GAMMA) * np.uint64(1)
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def hash_uniform(*keys, seed: int = 0) -> np.ndarray:
    """Stateless uniform [0, 1) noise keyed by integer arrays.

    All key arrays broadcast together; the same keys and seed always give
    the same value.  Used for sensor noise, utilisation blocks, and
    invalid-sample marking.
    """
    keys = [np.asarray(k) for k in keys]
    shape = np.broadcast(*keys).shape if keys else ()
    acc = np.full(shape, np.uint64(seed) ^ np.uint64(0xA076_1D64_78BD_642F))
    with np.errstate(over="ignore"):
        for k in keys:
            acc = splitmix64(acc ^ (np.asarray(k).astype(np.uint64) * _GAMMA))
    # 53-bit mantissa for a clean float in [0, 1).
    return (acc >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def hash_normalish(*keys, seed: int = 0) -> np.ndarray:
    """Stateless roughly-normal noise (mean 0, sd ~1) from 4 uniforms.

    The sum of four uniforms (Irwin-Hall) is close enough to Gaussian for
    sensor jitter; it avoids Box-Muller's log/sqrt on the hot path.
    """
    acc = np.zeros(np.broadcast(*[np.asarray(k) for k in keys]).shape)
    for i in range(4):
        acc = acc + hash_uniform(*keys, seed=seed * 7919 + i)
    return (acc - 2.0) * np.sqrt(3.0)
