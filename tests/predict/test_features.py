"""FeatureState: incremental == one-shot, checkpoint exactness.

The contract under test is the one that makes online scoring honest:
every counter is a pure function of the *set* of folded events, so any
batching (and any batch ordering) of the same events yields the
byte-identical feature matrix at the same extraction instant.
"""

import json

import numpy as np
import pytest

from repro.faults.types import ERROR_DTYPE
from repro.logs.bmc import DROPOUT_GAP_S
from repro.predict.errors import PredictError
from repro.predict.features import (
    FEATURE_INDEX,
    FEATURE_NAMES,
    FeatureConfig,
    FeatureState,
)
from repro.stream.online_coalesce import OnlineCoalescer
from repro.synth.het import HET_DTYPE

WINDOW = 3600.0


def _errors(rows):
    """rows: [(time, node, bank, row, col, bit), ...] -> ERROR_DTYPE."""
    out = np.zeros(len(rows), dtype=ERROR_DTYPE)
    for i, (t, node, bank, r, c, bit) in enumerate(rows):
        out[i]["time"] = t
        out[i]["node"] = node
        out[i]["bank"] = bank
        out[i]["row"] = r
        out[i]["column"] = c
        out[i]["bit_pos"] = bit
    return out


def _random_errors(rng, n, n_nodes=8, t0=0.0, t1=200 * WINDOW):
    out = np.zeros(n, dtype=ERROR_DTYPE)
    out["time"] = np.sort(rng.uniform(t0, t1, size=n))
    out["node"] = rng.integers(0, n_nodes, size=n)
    out["bank"] = rng.integers(0, 16, size=n)
    out["row"] = rng.integers(0, 1 << 16, size=n)
    out["column"] = rng.integers(0, 1 << 10, size=n)
    out["bit_pos"] = rng.integers(0, 64, size=n)
    return out


class TestIncrementalExactness:
    @pytest.mark.parametrize("n_batches", [1, 2, 7, 23])
    def test_any_batching_is_byte_identical(self, n_batches):
        rng = np.random.default_rng(5)
        errors = _random_errors(rng, 400)

        one = FeatureState()
        one.fold_errors(errors)

        many = FeatureState()
        for part in np.array_split(errors, n_batches):
            if part.size:
                many.fold_errors(part)

        nodes = one.nodes_seen
        assert nodes == many.nodes_seen
        at = one.watermark
        assert at == many.watermark
        assert one.extract(nodes, at=at).tobytes() == many.extract(
            nodes, at=at
        ).tobytes()

    def test_batch_order_does_not_matter(self):
        rng = np.random.default_rng(6)
        errors = _random_errors(rng, 300)
        parts = np.array_split(errors, 5)

        forward = FeatureState()
        for p in parts:
            forward.fold_errors(p)
        backward = FeatureState()
        for p in reversed(parts):
            backward.fold_errors(p)

        nodes = forward.nodes_seen
        at = forward.watermark
        assert backward.watermark == at
        assert forward.extract(nodes, at=at).tobytes() == backward.extract(
            nodes, at=at
        ).tobytes()

    def test_matches_stream_scorer_fold(self, train_campaign):
        """Campaign-sized cross-check, coalescer features included."""
        errors = train_campaign.errors[:5000]

        one = FeatureState()
        one_co = OnlineCoalescer()
        one.fold_errors(errors)
        one_co.add(errors)

        many = FeatureState()
        many_co = OnlineCoalescer()
        for part in np.array_split(errors, 13):
            if part.size:
                many.fold_errors(part)
                many_co.add(part)

        nodes = one.nodes_seen
        at = one.watermark
        assert one.extract(nodes, one_co, at=at).tobytes() == many.extract(
            nodes, many_co, at=at
        ).tobytes()


class TestCounters:
    def test_horizons_and_totals(self):
        state = FeatureState()
        t = 1000 * WINDOW
        state.fold_errors(_errors([
            (t + 0.5 * WINDOW, 3, 0, 1, 1, 1),      # current window
            (t - 4 * WINDOW, 3, 0, 1, 1, 2),        # inside w6
            (t - 20 * WINDOW, 3, 0, 1, 1, 3),       # inside w24
            (t - 100 * WINDOW, 3, 0, 1, 1, 4),      # inside w168
            (t - 500 * WINDOW, 3, 0, 1, 1, 5),      # beyond every horizon
        ]))
        row = state.extract([3], at=t + 0.5 * WINDOW)[0]
        assert row[FEATURE_INDEX["ce_w1"]] == 1
        assert row[FEATURE_INDEX["ce_w6"]] == 2
        assert row[FEATURE_INDEX["ce_w24"]] == 3
        assert row[FEATURE_INDEX["ce_w168"]] == 4
        assert row[FEATURE_INDEX["ce_total"]] == 5
        assert row[FEATURE_INDEX["active_w24"]] == 3
        assert row[FEATURE_INDEX["gap_w"]] == 0
        assert row[FEATURE_INDEX["age_w"]] == 500

    def test_future_events_do_not_leak_into_window_counts(self):
        """Events folded past the extraction instant stay out of every
        windowed feature (the dataset builder additionally never folds
        them at all; see test_dataset)."""
        state = FeatureState()
        t = 50 * WINDOW
        state.fold_errors(_errors([(t, 1, 0, 1, 1, 1)]))
        before = state.extract([1], at=t)[0]
        state.fold_errors(_errors([(t + 10 * WINDOW, 1, 0, 1, 1, 2)]))
        after = state.extract([1], at=t)[0]
        for name in ("ce_w1", "ce_w6", "ce_w24", "ce_w168", "active_w24"):
            assert after[FEATURE_INDEX[name]] == before[FEATURE_INDEX[name]]

    def test_ue_features(self):
        state = FeatureState()
        t = 300 * WINDOW
        state.fold_errors(_errors([(t, 2, 0, 1, 1, 1)]))
        het = np.zeros(3, dtype=HET_DTYPE)
        het["time"] = (t - 200 * WINDOW, t - 10 * WINDOW, t)
        het["node"] = 2
        het["non_recoverable"] = (True, True, False)
        state.fold_het(het)
        row = state.extract([2], at=t)[0]
        assert row[FEATURE_INDEX["ue_total"]] == 2
        assert row[FEATURE_INDEX["ue_w168"]] == 1

    def test_dropout_walk(self):
        limit = DROPOUT_GAP_S
        state = FeatureState(FeatureConfig())
        t0 = 10 * WINDOW
        # Exactly at the limit: not a dropout (strict >); beyond: one.
        state.observe_sensor_times(np.array([t0, t0 + limit]))
        assert state.dropout_total == 0
        state.observe_sensor_times(np.array([t0 + 2 * limit + 1.0]))
        assert state.dropout_total == 1
        # Sensor ticks never advance the event watermark.
        assert state.watermark is None
        row = state.extract([0], at=t0 + 2 * limit + 1.0)[0]
        assert row[FEATURE_INDEX["dropout_w24"]] == 1
        assert row[FEATURE_INDEX["dropout_total"]] == 1

    def test_dropout_split_across_calls_equals_one_call(self):
        times = np.array([0.0, 100.0, 5000.0, 5100.0, 30000.0])
        one = FeatureState()
        one.observe_sensor_times(times)
        many = FeatureState()
        for t in times:
            many.observe_sensor_times(np.array([t]))
        assert one.dropout_total == many.dropout_total
        assert one.to_state()["dropout"] == many.to_state()["dropout"]


class TestStateRoundTrip:
    def test_json_round_trip_is_exact(self, train_campaign):
        state = FeatureState()
        state.fold_errors(train_campaign.errors[:3000])
        het = train_campaign.het
        state.fold_het(het[: min(200, het.size)])
        state.observe_sensor_times(np.array([0.0, 1e6, 2e6]))

        wire = json.dumps(state.to_state())
        back = FeatureState.from_state(json.loads(wire))

        nodes = state.nodes_seen
        assert back.nodes_seen == nodes
        assert back.watermark == state.watermark
        at = state.watermark
        assert state.extract(nodes, at=at).tobytes() == back.extract(
            nodes, at=at
        ).tobytes()

    def test_empty_state_round_trip(self):
        back = FeatureState.from_state(
            json.loads(json.dumps(FeatureState().to_state()))
        )
        assert back.watermark is None
        assert back.nodes_seen == []


class TestErrors:
    def test_extract_without_events_or_at_raises(self):
        with pytest.raises(PredictError, match="no events"):
            FeatureState().extract([1])

    def test_wrong_dtype_refused(self):
        with pytest.raises(ValueError, match="ERROR_DTYPE"):
            FeatureState().fold_errors(np.zeros(3, dtype=np.float64))
        with pytest.raises(ValueError, match="HET_DTYPE"):
            FeatureState().fold_het(np.zeros(3, dtype=np.float64))

    def test_feature_layout_is_stable(self):
        # The model artifact records this exact tuple; reordering it is
        # a feature-schema version bump, not a silent edit.
        assert len(FEATURE_NAMES) == 20
        assert FEATURE_NAMES[0] == "ce_w1"
        assert FEATURE_INDEX["dropout_total"] == 19
