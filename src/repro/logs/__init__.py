"""On-disk log formats and the columnar record store.

The paper's pipeline starts from text logs (section 2.4): syslog CE
records, BMC sensor streams, daily inventory scans, and HET machine-check
records.  This subpackage provides faithful writers and parsers for each,
so the analysis can run end-to-end from files exactly as the original
study did, plus a fast binary store for repeated analysis runs.

- :mod:`repro.logs.syslog` -- correctable-error records as syslog lines.
- :mod:`repro.logs.bmc` -- per-minute sensor samples as CSV.
- :mod:`repro.logs.inventory` -- daily inventory snapshots with serial
  numbers; replacements are detected by diffing consecutive scans, the
  same method as section 3.1.
- :mod:`repro.logs.het` -- HET event lines with severities.
- :mod:`repro.logs.store` -- binary (npy) record store with per-rack
  sharding for the parallel engine.
- :mod:`repro.logs.campaign_io` -- write/load a whole campaign directory.
- :mod:`repro.logs.ingest` -- the shared ingest policy machinery
  (strict/repair/skip), per-family :class:`IngestStats` accounting, and
  the quarantine sidecar format for unparseable records.
"""

from repro.logs.ingest import (
    CampaignFormatError,
    IngestError,
    IngestPolicy,
    IngestStats,
    MalformedRecordError,
    coverage_map,
    quarantine_path,
    read_quarantine,
)
from repro.logs.syslog import (
    write_ce_log,
    ingest_ce_log,
    format_ce_record,
)
from repro.logs.bmc import (
    SENSOR_SAMPLE_DTYPE,
    write_bmc_log,
    ingest_bmc_log,
    filter_valid_samples,
    sensor_dropout_windows,
)
from repro.logs.inventory import (
    InventoryModel,
    write_inventory_snapshots,
    ingest_inventory_snapshots,
    diff_inventories,
)
from repro.logs.het import write_het_log, ingest_het_log
from repro.logs.release import write_release, read_release
from repro.logs.store import save_records, load_records, shard_by_rack

__all__ = [
    "CampaignFormatError",
    "IngestError",
    "IngestPolicy",
    "IngestStats",
    "MalformedRecordError",
    "coverage_map",
    "quarantine_path",
    "read_quarantine",
    "write_ce_log",
    "ingest_ce_log",
    "ingest_bmc_log",
    "ingest_het_log",
    "ingest_inventory_snapshots",
    "sensor_dropout_windows",
    "format_ce_record",
    "SENSOR_SAMPLE_DTYPE",
    "write_bmc_log",
    "filter_valid_samples",
    "InventoryModel",
    "write_inventory_snapshots",
    "diff_inventories",
    "write_het_log",
    "write_release",
    "read_release",
    "save_records",
    "load_records",
    "shard_by_rack",
]
