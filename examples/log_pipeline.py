#!/usr/bin/env python
"""The real study's workflow: text logs in, conclusions out.

Writes a campaign out as the text log families described in the paper's
data release (syslog CE records, BMC sensor CSV, inventory snapshots,
HET lines), then runs the whole analysis *from the parsed text*,
demonstrating that the pipeline never needs the generator's ground truth.
"""

import tempfile
from pathlib import Path

import numpy as np

from repro._util import DAY_S
from repro.analysis.replacements import replacement_table
from repro.faults.classify import mode_counts
from repro.faults.coalesce import coalesce
from repro.faults.types import FaultMode
from repro.logs.bmc import filter_valid_samples, ingest_bmc_log, write_bmc_log
from repro.logs.het import ingest_het_log, write_het_log
from repro.logs.inventory import (
    InventoryModel,
    replacements_from_snapshot_file,
    write_inventory_snapshots,
)
from repro.logs.syslog import ingest_ce_log, write_ce_log
from repro.synth import CampaignGenerator
from repro.synth.replacements import Component


def main() -> None:
    campaign = CampaignGenerator(seed=11, scale=0.01).generate()
    workdir = Path(tempfile.mkdtemp(prefix="astra-logs-"))
    print(f"writing text logs to {workdir}")

    # 1. Syslog CE records -> parse -> coalesce -> fault modes.
    ce_path = workdir / "ce.log"
    n = write_ce_log(campaign.errors, ce_path)
    parsed = ingest_ce_log(ce_path, policy="skip", quarantine=False)
    print(f"\nCE log: wrote {n} lines, parsed {parsed.errors.size} "
          f"({parsed.n_malformed} malformed)")
    faults = coalesce(parsed.errors)
    for mode, count in mode_counts(faults).items():
        if count:
            print(f"  {mode.label:<14} {count} faults")

    # 2. Inventory snapshots -> diff -> Table 1.
    inv_path = workdir / "inventory.csv"
    model = InventoryModel(
        campaign.replacements, campaign.topology, campaign.node_config
    )
    t0, t1 = campaign.calibration.inventory_window
    scan_days = list(np.arange(t0, t1, 7 * DAY_S))  # weekly scans
    write_inventory_snapshots(inv_path, model, scan_days)
    recovered = replacements_from_snapshot_file(inv_path)
    print(f"\ninventory: {len(scan_days)} scans, "
          f"{recovered.size} replacements recovered by diffing")
    for row in replacement_table(recovered, campaign.topology, campaign.node_config):
        print(f"  {row.render()}")

    # 3. BMC sensor CSV -> validity filtering.
    bmc_path = workdir / "bmc.csv"
    t0, _ = campaign.calibration.sensor_window
    write_bmc_log(bmc_path, campaign.sensors, [0, 1, 2, 3], t0, t0 + DAY_S)
    samples, _ = ingest_bmc_log(bmc_path, policy="strict", quarantine=False)
    valid, excluded = filter_valid_samples(samples)
    print(f"\nBMC log: {samples.size} samples, {excluded:.2%} excluded as invalid")
    temps = valid[valid["sensor"] < 6]["value"]
    print(f"  temperature range {temps.min():.1f}..{temps.max():.1f} degC")

    # 4. HET lines -> DUE subset.
    het_path = workdir / "het.log"
    write_het_log(campaign.het, het_path)
    het, _ = ingest_het_log(het_path, policy="strict", quarantine=False)
    print(f"\nHET log: {het.size} events, "
          f"{int(het['non_recoverable'].sum())} NON-RECOVERABLE")


if __name__ == "__main__":
    main()
