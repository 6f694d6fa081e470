"""Merging per-shard partial results.

Sharding by rack is *exact* for this workload: the coalescing key
(node, slot, rank, bank) never spans racks, so per-structure counts of
the shards add up to the counts of the whole stream.
"""

from __future__ import annotations

import numpy as np


def merge_counts(partials: list[np.ndarray]) -> np.ndarray:
    """Sum equal-length partial count arrays (pad to the longest)."""
    if not partials:
        raise ValueError("nothing to merge")
    n = max(p.size for p in partials)
    out = np.zeros(n, dtype=np.int64)
    for p in partials:
        out[: p.size] += p
    return out
