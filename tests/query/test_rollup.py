"""RollupStore unit and differential tests.

The load-bearing contracts: incremental batch updates build the exact
cubes a one-shot update builds; merging split stores reproduces the
whole-stream store; the payload round-trip is lossless; and every
mismatch error names what was found, what was expected, and a recovery
hint.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.coalesce import coalesce
from repro.logs.bmc import DROPOUT_GAP_S
from repro.query.engine import build_store
from repro.query.rollup import RollupConfig, RollupError, RollupStore

from .conftest import synth_errors, synth_sensors


class TestIncremental:
    def test_batched_updates_equal_one_shot(self, corpus, sensors):
        errors, faults = corpus
        one_shot = build_store(
            errors, faults=faults, sensor_samples=sensors
        )
        inc = RollupStore(RollupConfig())
        for lo in range(0, errors.size, 997):  # deliberately ragged
            inc.update(errors[lo : lo + 997])
        for lo in range(0, sensors.size, 101):
            inc.observe_sensors(sensors[lo : lo + 101])
        inc.set_faults(faults)
        assert one_shot.equal(inc)

    def test_error_cubes_are_strictly_additive(self, corpus):
        errors, _ = corpus
        a = RollupStore(RollupConfig())
        a.update(errors)
        b = RollupStore(RollupConfig())
        b.update(errors)
        b.update(errors)
        assert b.errors_seen == 2 * a.errors_seen
        assert np.array_equal(b.node_errors_padded(2592),
                              2 * a.node_errors_padded(2592))

    def test_set_faults_refreshes_not_accumulates(self, corpus):
        errors, faults = corpus
        store = RollupStore(RollupConfig())
        store.update(errors)
        store.set_faults(faults)
        first = store.mode_error_totals.copy()
        store.set_faults(faults)
        assert np.array_equal(store.mode_error_totals, first)
        assert store.n_faults == faults.size

    def test_empty_update_is_a_noop(self):
        store = RollupStore(RollupConfig())
        store.update(synth_errors(0))
        assert store.errors_seen == 0
        assert store.n_nodes_seen == 0


class TestMerge:
    def test_split_halves_merge_to_whole(self, corpus, sensors):
        errors, faults = corpus
        whole = build_store(errors, faults=faults, sensor_samples=sensors)
        mid = errors.size // 2
        left = build_store(errors[:mid], sensor_samples=sensors)
        right = build_store(errors[mid:])
        left.merge(right)
        left.set_faults(faults)
        assert whole.equal(left)

    def test_merge_into_empty_store(self, corpus):
        errors, faults = corpus
        whole = build_store(errors, faults=faults)
        empty = RollupStore(RollupConfig())
        empty.merge_payload(whole.to_payload())
        assert whole.equal(empty)

    def test_node_offset_lifts_shard_local_ids(self, corpus):
        errors, _ = corpus
        offset = 5 * 72  # five racks
        shifted = RollupStore(RollupConfig())
        shifted.update(errors, node_offset=offset)
        direct = RollupStore(RollupConfig())
        lifted = errors.copy()
        lifted["node"] += offset
        direct.update(lifted)
        assert shifted.equal(direct)

    def test_config_mismatch_names_found_and_expected(self, corpus):
        errors, _ = corpus
        a = build_store(errors)
        b = RollupStore(RollupConfig(bucket_s=3600.0))
        with pytest.raises(RollupError, match="found.*expected"):
            a.merge(b)


class TestPayload:
    def test_payload_round_trip_is_lossless(self, store):
        clone = RollupStore.from_payload(store.to_payload())
        assert store.equal(clone)
        assert clone.source == store.source
        assert clone.sensor_tallies() == store.sensor_tallies()

    def test_equal_ignores_provenance(self, corpus):
        errors, faults = corpus
        a = build_store(errors, faults=faults, source="stream",
                        policy="repair")
        b = build_store(errors, faults=faults, source="fleet", policy="skip")
        assert a.equal(b)

    def test_equal_detects_any_cube_divergence(self, corpus):
        errors, faults = corpus
        a = build_store(errors, faults=faults)
        b = build_store(errors, faults=faults)
        b.node_errors[0] += 1
        assert not a.equal(b)


class TestDifferentialVsAnalysis:
    def test_node_cube_matches_per_node_counts(self, corpus):
        from repro.analysis.distributions import per_node_counts

        errors, _ = corpus
        store = build_store(errors)
        assert np.array_equal(
            store.node_errors_padded(2592), per_node_counts(errors, 2592)
        )

    def test_rack_cube_matches_counts_by_rack(self, corpus):
        from repro.analysis.positional import counts_by_rack
        from repro.machine.topology import AstraTopology

        errors, _ = corpus
        store = build_store(errors)
        topo = AstraTopology()
        assert np.array_equal(
            store.rack_error_totals(topo.n_racks),
            counts_by_rack(errors, topo),
        )

    def test_dropout_tallies_match_alert_rule_walk(self, sensors):
        store = RollupStore(RollupConfig())
        store.observe_sensors(sensors)
        ts = np.unique(sensors["time"])
        gaps = np.diff(ts)
        limit = DROPOUT_GAP_S
        tallies = store.sensor_tallies()
        assert tallies["samples"] == sensors.size
        assert tallies["dropouts"] == int((gaps > limit).sum())
        assert tallies["gap_seconds"] == pytest.approx(
            float(gaps[gaps > limit].sum())
        )
