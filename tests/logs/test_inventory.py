"""Tests for inventory snapshots and diff-based replacement detection."""

import numpy as np
import pytest

from repro._util import DAY_S, epoch
from repro.logs.inventory import (
    InventoryModel,
    diff_inventories,
    ingest_inventory_snapshots,
    replacements_from_snapshot_file,
    write_inventory_snapshots,
)
from repro.machine.node import NodeConfig
from repro.machine.topology import AstraTopology
from repro.synth.replacements import REPLACEMENT_DTYPE, Component

TINY = AstraTopology(n_racks=1, chassis_per_rack=3, nodes_per_chassis=2)
T0 = epoch("2019-02-17")


def make_events(rows):
    out = np.zeros(len(rows), dtype=REPLACEMENT_DTYPE)
    for i, (t, comp, node, sock, slot) in enumerate(rows):
        out[i] = (t, comp, node, sock, slot)
    return out[np.argsort(out["time"])]


@pytest.fixture()
def model():
    events = make_events(
        [
            (T0 + 0.5 * DAY_S, Component.PROCESSOR, 1, 0, -1),
            (T0 + 1.5 * DAY_S, Component.DIMM, 2, -1, 9),
            (T0 + 1.6 * DAY_S, Component.DIMM, 2, -1, 9),  # swapped twice
            (T0 + 2.5 * DAY_S, Component.MOTHERBOARD, 3, -1, -1),
        ]
    )
    return InventoryModel(events, TINY, NodeConfig())


class TestModel:
    def test_counts_before(self, model):
        counts = model.replacement_counts_before(T0 + 2 * DAY_S)
        assert counts[Component.PROCESSOR][1, 0] == 1
        assert counts[Component.DIMM][2, 9] == 2
        assert counts[Component.MOTHERBOARD][3, 0] == 0

    def test_serials_change_on_replacement(self, model):
        before = model.replacement_counts_before(T0)
        after = model.replacement_counts_before(T0 + 3 * DAY_S)
        s0 = model.serial(Component.PROCESSOR, 1, 0, int(before[Component.PROCESSOR][1, 0]))
        s1 = model.serial(Component.PROCESSOR, 1, 0, int(after[Component.PROCESSOR][1, 0]))
        assert s0 != s1

    def test_snapshot_covers_all_positions(self, model):
        snap = model.snapshot(T0)
        cfg = NodeConfig()
        expected = TINY.n_nodes * (cfg.n_sockets + 1 + cfg.dimms_per_node)
        assert len(snap) == expected

    def test_wrong_dtype_rejected(self):
        with pytest.raises(ValueError):
            InventoryModel(np.zeros(1), TINY, NodeConfig())


class TestDiffPipeline:
    def test_roundtrip_daily_counts(self, model, tmp_path):
        """events -> snapshots -> diff recovers per-day, per-kind counts."""
        path = tmp_path / "inventory.csv"
        days = [T0 + i * DAY_S for i in range(5)]
        write_inventory_snapshots(path, model, days)
        recovered = replacements_from_snapshot_file(path)
        # 4 events across 3 scan intervals; double swap at one position
        # collapses to one serial change -- exactly what a daily scan sees.
        assert recovered.size == 3
        kinds = np.bincount(recovered["component"], minlength=3)
        assert kinds[Component.PROCESSOR] == 1
        assert kinds[Component.DIMM] == 1
        assert kinds[Component.MOTHERBOARD] == 1

    def test_positions_recovered(self, model, tmp_path):
        path = tmp_path / "inventory.csv"
        days = [T0 + i * DAY_S for i in range(5)]
        write_inventory_snapshots(path, model, days)
        recovered = replacements_from_snapshot_file(path)
        dimm = recovered[recovered["component"] == Component.DIMM][0]
        assert dimm["node"] == 2 and dimm["slot"] == 9
        proc = recovered[recovered["component"] == Component.PROCESSOR][0]
        assert proc["node"] == 1 and proc["socket"] == 0

    def test_diff_ignores_one_sided_keys(self):
        prev = {("dimm", 0, 0): "a", ("dimm", 0, 1): "b"}
        curr = {("dimm", 0, 0): "a2"}
        events = diff_inventories(prev, curr)
        assert events.size == 1

    def test_identical_snapshots_no_events(self):
        snap = {("processor", 1, 0): "x"}
        assert diff_inventories(snap, snap).size == 0

    def test_read_rejects_unknown_component(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2019-02-17,n0001,gpu,0,SN-X\n")
        with pytest.raises(ValueError):
            ingest_inventory_snapshots(
                path, policy="strict", quarantine=False
            )

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert replacements_from_snapshot_file(path).size == 0
