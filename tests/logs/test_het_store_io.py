"""Tests for HET logs, the binary store, and campaign IO."""

import numpy as np
import pytest

from repro.faults.types import ERROR_DTYPE
from repro.logs.het import ingest_het_log, write_het_log
from repro.logs.store import load_records, load_shards, save_records, shard_by_rack
from repro.logs.campaign_io import load_campaign_records, write_campaign
from repro.machine.topology import AstraTopology
from repro.synth.het import HET_DTYPE, HetGenerator


@pytest.fixture(scope="module")
def het_events():
    return HetGenerator(seed=8, scale=1.0).generate()


class TestHetLog:
    def test_roundtrip(self, tmp_path, het_events):
        path = tmp_path / "het.log"
        n = write_het_log(het_events, path)
        assert n == het_events.size
        back = ingest_het_log(path, policy="strict", quarantine=False)[0]
        assert np.max(np.abs(back["time"] - het_events["time"])) < 1.0
        for field in ("node", "event", "non_recoverable"):
            np.testing.assert_array_equal(back[field], het_events[field])

    def test_event_names_with_spaces_roundtrip(self, tmp_path, het_events):
        # "powerSupplyFailureDetected de-asserted" has a space.
        from repro.synth.het import EVENT_TYPES

        idx = EVENT_TYPES.index("powerSupplyFailureDetected de-asserted")
        sel = het_events[het_events["event"] == idx]
        if sel.size == 0:
            pytest.skip("no such events generated for this seed")
        path = tmp_path / "spaces.log"
        write_het_log(sel, path)
        back = ingest_het_log(path, policy="strict", quarantine=False)[0]
        assert np.all(back["event"] == idx)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("nothing to see here\n")
        with pytest.raises(ValueError):
            ingest_het_log(path, policy="strict", quarantine=False)[0]

    def test_unknown_event_rejected(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text(
            "2019-08-30T00:00:00 astra-n0001 HET severity=INFORMATIONAL "
            "event=mysteryEvent\n"
        )
        with pytest.raises(ValueError):
            ingest_het_log(path, policy="strict", quarantine=False)[0]

    def test_wrong_dtype(self, tmp_path):
        with pytest.raises(ValueError):
            write_het_log(np.zeros(3), tmp_path / "x.log")


class TestStore:
    def test_save_load(self, tmp_path, het_events):
        path = tmp_path / "records.npy"
        save_records(path, het_events)
        back = load_records(path, HET_DTYPE)
        np.testing.assert_array_equal(back, het_events)

    def test_dtype_check(self, tmp_path, het_events):
        path = tmp_path / "records.npy"
        save_records(path, het_events)
        with pytest.raises(ValueError):
            load_records(path, ERROR_DTYPE)

    def test_unstructured_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_records(tmp_path / "x.npy", np.zeros(3))

    def test_shard_roundtrip(self, tmp_path, small_campaign):
        paths = shard_by_rack(
            small_campaign.errors, tmp_path / "shards", small_campaign.topology
        )
        assert len(paths) >= 1
        back = load_shards(paths, ERROR_DTYPE)
        assert back.size == small_campaign.errors.size
        # Same multiset of records: compare after identical sorting.
        key = ("time", "node", "address")
        a = np.sort(small_campaign.errors, order=key)
        b = np.sort(back, order=key)
        np.testing.assert_array_equal(a, b)

    def test_shards_pure_by_rack(self, tmp_path, small_campaign):
        topo = small_campaign.topology
        paths = shard_by_rack(small_campaign.errors, tmp_path / "s2", topo)
        for p in paths:
            shard = load_records(p, ERROR_DTYPE)
            racks = np.unique(topo.rack_of(shard["node"]))
            assert racks.size == 1

    def test_load_shards_empty(self):
        with pytest.raises(ValueError):
            load_shards([])
        out = load_shards([], expected_dtype=ERROR_DTYPE)
        assert out.size == 0


class TestCampaignIO:
    def test_roundtrip(self, tmp_path, small_campaign):
        directory = write_campaign(small_campaign, tmp_path / "camp", text_logs=False)
        records = load_campaign_records(directory)
        np.testing.assert_array_equal(records.errors, small_campaign.errors)
        np.testing.assert_array_equal(
            records.replacements, small_campaign.replacements
        )
        np.testing.assert_array_equal(records.het, small_campaign.het)
        assert records.seed == small_campaign.seed
        assert records.scale == small_campaign.scale

    def test_text_logs_written(self, tmp_path, small_campaign):
        directory = write_campaign(small_campaign, tmp_path / "camp2", text_logs=True)
        assert (directory / "ce.log").exists()
        assert (directory / "het.log").exists()

    def test_shards_written(self, tmp_path, small_campaign):
        directory = write_campaign(
            small_campaign, tmp_path / "camp3", text_logs=False, shards=True
        )
        assert any((directory / "shards").iterdir())
