"""Alert rule catalog and the exactly-once JSONL sink."""

import json

import numpy as np
import pytest

from repro.logs.bmc import DROPOUT_GAP_S, sensor_dropout_windows
from repro.stream.alerts import (
    AlertEngine,
    AlertRules,
    AlertSink,
    read_alerts,
)
from repro.stream.online_coalesce import OnlineCoalescer
from repro.synth.het import HET_DTYPE, NON_RECOVERABLE_EVENTS
from util import bit_error, make_errors


def engine(**rule_kw):
    oc = OnlineCoalescer()
    return AlertEngine(oc, AlertRules(**rule_kw)), oc


def observe(eng, oc, errors, batch=0):
    created, touched = oc.add(errors)
    return eng.observe_errors(errors, created, touched, batch)


class TestFaultRules:
    def test_new_fault_alert(self):
        eng, oc = engine()
        errors = make_errors([bit_error(node=3, slot=2, t=10.0)])
        alerts = observe(eng, oc, errors)
        (alert,) = [a for a in alerts if a["rule"] == "new_fault"]
        assert alert["node"] == 3
        assert alert["time"] == 10.0
        assert alert["detail"]["slot"] == 2
        assert alert["detail"]["mode"] == "single-bit"

    def test_new_fault_fires_once_per_group(self):
        eng, oc = engine()
        errors = make_errors(
            [bit_error(t=1.0), bit_error(t=2.0), bit_error(t=3.0)]
        )
        assert len(observe(eng, oc, errors, 0)) == 1
        more = make_errors([bit_error(t=4.0)])
        assert observe(eng, oc, more, 1) == []

    def test_mode_transition(self):
        eng, oc = engine()
        first = make_errors([bit_error(column=5, bit=3, t=1.0)])
        observe(eng, oc, first, 0)
        # Same word, different bit: single-bit -> single-word.
        second = make_errors([bit_error(column=5, bit=9, t=2.0)])
        alerts = observe(eng, oc, second, 1)
        (alert,) = [a for a in alerts if a["rule"] == "mode_transition"]
        assert alert["detail"]["from_mode"] == "single-bit"
        assert alert["detail"]["to_mode"] != "single-bit"
        assert alert["time"] == 2.0
        # Stable mode: no further transition alerts.
        third = make_errors([bit_error(column=5, bit=9, t=3.0)])
        assert observe(eng, oc, third, 2) == []


class TestCeRate:
    def errors_at(self, node, times):
        return make_errors(
            [bit_error(node=node, t=float(t)) for t in times]
        )

    def test_threshold_crossing_time(self):
        eng, oc = engine(ce_rate_threshold=3, ce_rate_window_s=100.0)
        alerts = observe(eng, oc, self.errors_at(1, [10, 20, 30, 40]))
        (alert,) = [a for a in alerts if a["rule"] == "ce_rate"]
        assert alert["node"] == 1
        assert alert["time"] == 30.0  # the third record crossed
        assert alert["detail"]["count"] == 4
        assert alert["detail"]["threshold"] == 3
        assert alert["detail"]["window_start"] == 0.0

    def test_fires_once_per_window_across_batches(self):
        eng, oc = engine(ce_rate_threshold=3, ce_rate_window_s=100.0)
        a1 = observe(eng, oc, self.errors_at(1, [10, 20]), 0)
        assert [a for a in a1 if a["rule"] == "ce_rate"] == []
        a2 = observe(eng, oc, self.errors_at(1, [30, 40]), 1)
        (alert,) = [a for a in a2 if a["rule"] == "ce_rate"]
        assert alert["time"] == 30.0
        a3 = observe(eng, oc, self.errors_at(1, [50, 60]), 2)
        assert [a for a in a3 if a["rule"] == "ce_rate"] == []
        # A new window starts counting from zero.
        a4 = observe(eng, oc, self.errors_at(1, [110, 120, 130]), 3)
        (alert,) = [a for a in a4 if a["rule"] == "ce_rate"]
        assert alert["detail"]["window_start"] == 100.0
        assert alert["time"] == 130.0

    def test_counts_are_per_node(self):
        eng, oc = engine(ce_rate_threshold=3, ce_rate_window_s=100.0)
        mixed = make_errors(
            [bit_error(node=n, t=float(10 + i)) for i, n in
             enumerate([1, 2, 1, 2, 1])]
        )
        alerts = [a for a in observe(eng, oc, mixed) if a["rule"] == "ce_rate"]
        assert [a["node"] for a in alerts] == [1]


class TestHetAndSensors:
    def test_uncorrectable_per_record(self):
        eng, _ = engine()
        events = np.zeros(3, dtype=HET_DTYPE)
        events["time"] = [1.0, 2.0, 3.0]
        events["node"] = [5, 6, 7]
        bad = sorted(NON_RECOVERABLE_EVENTS)[0]
        events["event"] = [0, bad, bad]
        events["non_recoverable"] = [False, True, True]
        alerts = eng.observe_het(events, 0)
        assert [a["node"] for a in alerts] == [6, 7]
        assert all(a["rule"] == "uncorrectable" for a in alerts)
        assert alerts[0]["detail"]["event"] == bad
        assert isinstance(alerts[0]["detail"]["event_name"], str)

    def samples(self, times):
        out = np.zeros(len(times), dtype=[("time", "f8"), ("node", "i8")])
        out["time"] = times
        return out

    def test_sensor_dropout_positive(self):
        eng, _ = engine()
        alerts = eng.observe_sensors(self.samples([0, 60, 120, 600]), 0)
        (alert,) = alerts
        assert alert["rule"] == "sensor_dropout"
        assert alert["node"] == -1
        assert alert["detail"] == {
            "gap_start": 120.0, "gap_end": 600.0, "gap_s": 480.0,
        }

    def test_dropout_matches_batch_windows(self):
        rng = np.random.default_rng(4)
        times = np.cumsum(rng.choice([60.0, 60.0, 60.0, 400.0], 200))
        all_samples = self.samples(np.repeat(times, 2))  # two nodes
        eng, _ = engine()
        got = []
        for chunk in np.array_split(all_samples, 7):
            got.extend(eng.observe_sensors(chunk, 0))
        windows = sensor_dropout_windows(all_samples)
        assert [
            (a["detail"]["gap_start"], a["detail"]["gap_end"]) for a in got
        ] == windows

    def test_watermark_ignores_out_of_order_past(self):
        eng, _ = engine()
        assert eng.observe_sensors(self.samples([0, 60]), 0) == []
        # Late replay of old timestamps must not create a fake gap.
        assert eng.observe_sensors(self.samples([0]), 1) == []
        assert eng.observe_sensors(self.samples([120]), 2) == []


def _sensor_samples(times):
    out = np.zeros(len(times), dtype=[("time", "f8"), ("node", "i8")])
    out["time"] = times
    return out


def _reference_dropout_walk(times_batches, gap_limit):
    """The per-timestamp high-water-mark loop the alert rule and the
    rollup tallies each used to run: ``(gaps, final watermark)``."""
    gaps, prev = [], None
    for times in times_batches:
        for t in np.unique(times).tolist():
            if prev is not None and t > prev and (t - prev) > gap_limit:
                gaps.append((prev, t))
            prev = t if prev is None else max(prev, t)
    return gaps, prev


class TestDropoutWalk:
    def test_matches_reference_loop(self):
        from repro.query.rollup import RollupConfig, RollupStore

        rng = np.random.default_rng(11)
        steps = rng.choice([0.0, 30.0, 60.0, 60.0, 250.0, 900.0], 400)
        times = np.cumsum(steps)  # zero steps: duplicate timestamps
        batches = np.array_split(times, 9)
        # Late replays: each later batch repeats times at or below the
        # watermark the batches before it left.
        for i in range(1, len(batches)):
            old = np.concatenate(batches[:i])
            late = rng.choice(old, 5)
            batches[i] = np.concatenate([late, [old.max()], batches[i]])
        eng, _ = engine()
        limit = DROPOUT_GAP_S
        store = RollupStore(RollupConfig())
        got = []
        for i, batch in enumerate(batches):
            got.extend(eng.observe_sensors(_sensor_samples(batch), i))
            store.observe_sensors(_sensor_samples(batch))
        want, watermark = _reference_dropout_walk(batches, limit)
        assert want  # the stream really has gaps
        assert [
            (a["detail"]["gap_start"], a["detail"]["gap_end"]) for a in got
        ] == want
        assert eng._sensor_watermark == watermark
        tallies = store.sensor_tallies()
        assert tallies["dropouts"] == len(want)
        assert tallies["watermark"] == watermark
        gap_s = 0.0
        for start, end in want:
            gap_s += end - start
        assert tallies["gap_seconds"] == gap_s


class TestEngineState:
    def test_round_trip_through_json(self):
        eng, oc = engine(ce_rate_threshold=2, ce_rate_window_s=50.0)
        observe(eng, oc, make_errors([bit_error(t=1.0)]))
        observe(eng, oc, make_errors([bit_error(t=2.0), bit_error(t=60.0)]))
        eng.observe_sensors(
            np.array([(5.0,)], dtype=[("time", "f8")]), 0
        )
        state = json.loads(json.dumps(eng.to_state()))
        assert state["ce_counts"] == [[0, 0, 2], [0, 1, 1]]
        assert state["ce_fired"] == [[0, 0]]
        eng2, _ = engine(ce_rate_threshold=2, ce_rate_window_s=50.0)
        eng2.restore(state)
        # Counts, fired windows and the sensor watermark all come back.
        assert eng2.to_state() == state


class TestAlertSink:
    def alert(self, t):
        return {"rule": "new_fault", "time": t, "batch": 0, "node": 1,
                "detail": {}}

    def test_seq_and_offset(self, tmp_path):
        sink = AlertSink(tmp_path / "alerts.jsonl")
        sink.emit([self.alert(1.0), self.alert(2.0)])
        sink.emit([self.alert(3.0)])
        docs = read_alerts(sink.path)
        assert [d["seq"] for d in docs] == [0, 1, 2]
        assert sink.offset == sink.path.stat().st_size
        assert sink.seq == 3

    def test_resume_truncates_unacked_tail(self, tmp_path):
        sink = AlertSink(tmp_path / "alerts.jsonl")
        sink.emit([self.alert(1.0)])
        state = sink.to_state()  # checkpoint here
        sink.emit([self.alert(2.0), self.alert(3.0)])  # lost to the crash
        resumed = AlertSink(tmp_path / "alerts.jsonl")
        resumed.restore(state)
        resumed.emit([self.alert(2.0), self.alert(3.0)])  # re-derived
        docs = read_alerts(resumed.path)
        assert [d["seq"] for d in docs] == [0, 1, 2]
        assert [d["time"] for d in docs] == [1.0, 2.0, 3.0]

    def test_restore_fresh_truncates_everything(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        sink = AlertSink(path)
        sink.emit([self.alert(1.0)])
        fresh = AlertSink(path)
        fresh.restore({"seq": 0, "offset": 0})
        assert path.stat().st_size == 0

    def test_restore_short_file_errors(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        sink = AlertSink(path)
        sink.emit([self.alert(1.0), self.alert(2.0)])
        state = sink.to_state()
        path.write_bytes(path.read_bytes()[:10])
        broken = AlertSink(path)
        with pytest.raises(RuntimeError, match="shorter"):
            broken.restore(state)

    def test_restore_missing_file_errors(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        sink = AlertSink(path)
        sink.emit([self.alert(1.0)])
        state = sink.to_state()
        path.unlink()
        broken = AlertSink(path)
        with pytest.raises(FileNotFoundError):
            broken.restore(state)

    def test_external_append_detected(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        sink = AlertSink(path)
        sink.emit([self.alert(1.0)])
        with open(path, "ab") as fh:
            fh.write(b"intruder\n")
        with pytest.raises(RuntimeError, match="interleave"):
            sink.emit([self.alert(2.0)])
