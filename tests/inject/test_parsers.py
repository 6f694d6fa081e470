"""Every corruption type against every hardened parser.

For each text parser (CE syslog, HET, BMC CSV, inventory snapshots) and
each line-fault kind, the corrupted log must ingest without crashing
under the lenient policies, with the stats invariant
``seen == parsed + repaired + quarantined`` intact and every quarantined
record present in the sidecar; under ``strict`` a damaged log raises a
typed :class:`MalformedRecordError`.
"""

import numpy as np
import pytest

from repro.inject import InjectionProfile, LogCorruptor
from repro.logs.bmc import ingest_bmc_log, sensor_dropout_windows
from repro.logs.het import ingest_het_log, write_het_log
from repro.logs.ingest import (
    IngestPolicy,
    MalformedRecordError,
    quarantine_path,
    read_quarantine,
)
from repro.logs.inventory import ingest_inventory_snapshots
from repro.logs.syslog import ingest_ce_log, write_ce_log
from repro.machine.sensors import NodeSensorComplement
from repro.synth.het import HET_DTYPE
from util import bit_error, make_errors

N_RECORDS = 120

FAULTS = {
    "truncate": dict(truncate_rate=0.2),
    "garble": dict(garble_rate=0.2),
    "duplicate": dict(duplicate_rate=0.1),
    "reorder": dict(reorder_windows=2, reorder_span=16),
    "clock-skew": dict(clock_skew_windows=1, clock_skew_span=16),
    "drop-range": dict(drop_ranges=1, drop_span=20),
}


def _write_ce(path):
    errors = make_errors(
        [bit_error(node=i % 50, slot=i % 16, bank=i % 16, t=60.0 * i)
         for i in range(N_RECORDS)]
    )
    write_ce_log(errors, path)


def _write_het(path):
    events = np.zeros(N_RECORDS, dtype=HET_DTYPE)
    events["time"] = 60.0 * np.arange(N_RECORDS)
    events["node"] = np.arange(N_RECORDS) % 50
    events["event"] = np.arange(N_RECORDS) % 8
    events["non_recoverable"] = np.isin(events["event"], (4, 6))
    write_het_log(events, path)


def _write_bmc(path):
    name = NodeSensorComplement().names[0]
    with open(path, "w") as fh:
        fh.write("timestamp,node,sensor,value\n")
        for i in range(N_RECORDS):
            t = np.datetime64("2019-01-01T00:00:00") + np.timedelta64(60 * i, "s")
            fh.write(f"{t},{i % 50:04d},{name},{40 + i % 7}.50\n")


def _write_inventory(path):
    with open(path, "w") as fh:
        for i in range(N_RECORDS):
            kind = ("processor", "motherboard", "dimm")[i % 3]
            fh.write(f"2019-01-{1 + i // 60:02d},n{i % 50:04d},{kind},{i % 4},SN{i:06d}\n")


def _ingest_ce(path, policy):
    result = ingest_ce_log(path, policy=policy)
    return result.errors, result.stats


PARSERS = {
    "ce": (_write_ce, _ingest_ce, "ce.log"),
    "het": (_write_het, lambda p, pol: ingest_het_log(p, policy=pol), "het.log"),
    "bmc": (_write_bmc, lambda p, pol: ingest_bmc_log(p, policy=pol), "bmc.csv"),
    "inventory": (
        _write_inventory,
        lambda p, pol: ingest_inventory_snapshots(p, policy=pol),
        "inventory.log",
    ),
}


@pytest.fixture(params=sorted(PARSERS))
def parser(request, tmp_path):
    writer, ingest, filename = PARSERS[request.param]
    path = tmp_path / filename
    writer(path)
    return path, ingest


class TestEveryFaultEveryParser:
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("policy", [IngestPolicy.REPAIR, IngestPolicy.SKIP])
    def test_lenient_ingest_accounts_for_everything(self, parser, fault, policy):
        path, ingest = parser
        profile = InjectionProfile(name=f"only-{fault}", **FAULTS[fault])
        corruptor = LogCorruptor(profile, seed=3)
        manifest = corruptor.corrupt_text_file(
            path, has_header=path.suffix == ".csv"
        )
        n_lines = sum(
            1 for line in path.read_text().splitlines() if line.strip()
        ) - (1 if path.suffix == ".csv" else 0)

        _, stats = ingest(path, policy)

        stats.check_invariant()
        assert stats.seen == n_lines  # every surviving line accounted for
        sidecar = quarantine_path(path)
        if stats.quarantined:
            assert len(read_quarantine(sidecar)) == stats.quarantined
        else:
            assert not sidecar.exists()
        # Damage never exceeds what was injected.
        assert stats.quarantined <= manifest.total()

    @pytest.mark.parametrize("fault", ["truncate"])
    def test_strict_raises_typed_error(self, parser, fault):
        path, ingest = parser
        profile = InjectionProfile(name="hacksaw", **FAULTS[fault])
        LogCorruptor(profile, seed=3).corrupt_text_file(
            path, has_header=path.suffix == ".csv"
        )
        with pytest.raises(MalformedRecordError) as err:
            ingest(path, IngestPolicy.STRICT)
        assert str(path) in str(err.value)
        assert err.value.line_no > 0

    def test_clean_log_full_coverage(self, parser):
        path, ingest = parser
        _, stats = ingest(path, IngestPolicy.REPAIR)
        assert stats.coverage == 1.0
        assert stats.quarantined == 0
        assert not quarantine_path(path).exists()


class TestRepairSemantics:
    def test_ce_truncated_lines_salvaged(self, tmp_path):
        path = tmp_path / "ce.log"
        _write_ce(path)
        profile = InjectionProfile(name="trunc", truncate_rate=0.3)
        LogCorruptor(profile, seed=1).corrupt_text_file(path)
        _, repair_stats = _ingest_ce(path, IngestPolicy.REPAIR)
        _, skip_stats = _ingest_ce(tmp_path / "ce.log", IngestPolicy.SKIP)
        assert repair_stats.repaired > 0
        assert repair_stats.coverage > skip_stats.coverage

    def test_ce_clock_skew_resorted(self, tmp_path):
        path = tmp_path / "ce.log"
        _write_ce(path)
        profile = InjectionProfile(
            name="skew", clock_skew_windows=1, clock_skew_span=16
        )
        LogCorruptor(profile, seed=1).corrupt_text_file(path)
        errors, stats = _ingest_ce(path, IngestPolicy.REPAIR)
        assert np.all(np.diff(errors["time"]) >= 0)  # monotone again
        assert stats.repaired > 0  # re-sorted records counted as repairs

    def test_het_severity_contradiction_repaired(self, tmp_path):
        path = tmp_path / "het.log"
        with open(path, "w") as fh:
            fh.write(
                "2019-01-01T00:00:00 astra-n0001 HET "
                "severity=BOGUS event=uncorrectableECC\n"
            )
        events, stats = ingest_het_log(path, policy=IngestPolicy.REPAIR)
        assert stats.repaired == 1
        assert bool(events["non_recoverable"][0])  # trusted the event type

    def test_bmc_dropout_detected(self, tmp_path):
        path = tmp_path / "bmc.csv"
        _write_bmc(path)
        profile = InjectionProfile(
            name="dropout", bmc_dropout_windows=1, bmc_dropout_fraction=0.2
        )
        LogCorruptor(profile, seed=2).corrupt_text_file(
            path, has_header=True, dropout_windows=1
        )
        samples, stats = ingest_bmc_log(path, policy=IngestPolicy.REPAIR)
        stats.check_invariant()
        windows = sensor_dropout_windows(samples)
        assert len(windows) >= 1
        start, end = windows[0]
        assert end - start > 3 * 60.0
