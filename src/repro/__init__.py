"""astra-memrepro: reproduction of the HPDC'22 Astra memory-failure study.

The package is layered bottom-up:

- :mod:`repro.machine` -- the Astra platform model (topology, node
  internals, DRAM geometry, ECC, sensors, cooling).
- :mod:`repro.faults` -- fault/error taxonomy, error-to-fault coalescing
  and fault-mode classification.
- :mod:`repro.synth` -- calibrated synthetic telemetry generators standing
  in for the proprietary production logs (see DESIGN.md section 2).
- :mod:`repro.logs` -- on-disk log formats (syslog CE records, BMC sensor
  streams, inventory scans, HET records) and the columnar record store.
- :mod:`repro.analysis` -- the statistics the paper applies: power-law
  fits, uniformity tests, concentration curves, temperature and
  utilisation correlation, positional aggregation, FIT rates.
- :mod:`repro.mitigation` -- page-retirement and node-exclusion
  simulators for the mitigation implications the paper argues for.
- :mod:`repro.experiments` -- one module per paper table/figure that
  regenerates its rows/series.
- :mod:`repro.parallel` -- shard-parallel execution of the analyses.

Quickstart::

    from repro.synth import CampaignGenerator
    from repro import experiments
    campaign = CampaignGenerator(seed=7).generate()
    result = experiments.run("fig05", campaign)
    print(result.render())
"""

__version__ = "0.1.0"


class ReproError(Exception):
    """Root of every refusal the program reports to an operator.

    Each user-facing typed error (ingest, integrity, fleet, ledger,
    checkpoint, tail, rollup, query, predict, serve) subclasses it next
    to its builtin base, so the CLI maps all of them to one
    ``error: ...`` line and exit 2 while existing ``except ValueError``
    / ``except RuntimeError`` ladders keep working.  Kept here, free of
    imports, so ``import repro.cli`` loads no subsystem.
    """


__all__ = ["ReproError", "__version__"]
