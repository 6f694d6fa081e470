#!/usr/bin/env python
"""Fleet triage: what an Astra operator would do with this library.

Consumes a campaign the way a site reliability run-book would: coalesce
the CE stream into faults, build a rack "heat map" of errors vs faults,
flag exclude-list candidates, and list the DIMM slots to inspect during
the next maintenance window.
"""

import numpy as np

from repro.analysis.counts import counts_by
from repro.analysis.distributions import concentration_curve, per_node_counts
from repro.experiments.base import sparkline
from repro.faults.coalesce import coalesce
from repro.machine.node import DIMM_SLOTS
from repro.mitigation.exclude_list import ExcludeListPolicy, simulate_exclude_list
from repro.synth import CampaignGenerator


def main() -> None:
    campaign = CampaignGenerator(seed=13, scale=0.1).generate()
    topo = campaign.topology
    print(f"triage over {campaign.n_errors:,} CEs on {topo.n_nodes} nodes\n")

    # Coalescing (for archive-sized logs, `repro fleet` runs it per rack
    # shard on a process pool, with the same answer).
    faults = coalesce(campaign.errors)
    print(f"{faults.size} distinct faults after coalescing\n")

    # Rack heat map: errors spike somewhere faults do not.
    racks_e = np.bincount(topo.rack_of(campaign.errors["node"]), minlength=36)
    racks_f = np.bincount(
        topo.rack_of(faults["node"].astype(np.int64)), minlength=36
    )
    print("rack heat map (racks 0..35):")
    print(f"  errors  {sparkline(racks_e, width=36)}")
    print(f"  faults  {sparkline(racks_f, width=36)}")
    spike = int(np.argmax(racks_e))
    print(
        f"  -> rack {spike} carries {racks_e[spike] / racks_e.sum():.0%} of all"
        f" CEs but {racks_f[spike] / max(racks_f.sum(), 1):.0%} of faults:"
        " a logging storm, not a sick rack\n"
    )

    # Exclude-list candidates.
    per_node = per_node_counts(campaign.errors, topo.n_nodes)
    curve = concentration_curve(per_node)
    worst = np.argsort(per_node)[::-1][:8]
    print("exclude-list candidates (top-8 CE nodes, "
          f"{curve.share_of_top(8):.0%} of the fleet's CEs):")
    for node in worst:
        loc = topo.locate(int(node))
        print(
            f"  node {int(node):4d}  rack {loc.rack:2d} chassis {loc.chassis:2d}"
            f"  {per_node[node]:>8,} CEs"
        )
    report = simulate_exclude_list(
        campaign.errors, ExcludeListPolicy(ce_budget=500, window_s=7 * 86400)
    )
    print(
        f"  policy check: budget-500/week excludes {report.nodes_excluded} "
        f"nodes and absorbs {report.avoided_fraction:.0%} of CEs\n"
    )

    # Maintenance hit list: which slots keep faulting.
    slot_faults, _ = counts_by(faults, "slot")
    order = np.argsort(slot_faults)[::-1]
    print("DIMM slots by fault count (inspect the top of this list):")
    print("  " + "  ".join(f"{DIMM_SLOTS[i]}:{slot_faults[i]}" for i in order))


if __name__ == "__main__":
    main()
