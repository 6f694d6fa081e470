"""Process-pool execution of the analyses.

The natural units of parallelism are the experiment and the rack shard
(nodes never share faults across racks, and every positional
aggregation is a sum of per-rack partials).  This subpackage provides:

- :mod:`repro.parallel.executor` -- :func:`map_tasks`, the plain
  ordered map with a serial fallback, and :func:`supervise`, the one
  supervised scheduler under the experiment runner and the fleet
  supervisor (deadlines, slot write-off, pool recreation, requeue);
- :mod:`repro.parallel.sharding` -- merging per-shard partial counts.
"""

from repro.parallel.executor import map_tasks, supervise
from repro.parallel.sharding import merge_counts

__all__ = ["map_tasks", "merge_counts", "supervise"]
