"""LogTailer mechanics: partial lines, headers, growth, shrink, gears."""

import json

import numpy as np
import pytest

from repro._util import epoch
from repro.logs.bmc import ingest_bmc_log, write_bmc_log
from repro.logs.ingest import IngestPolicy, MalformedRecordError
from repro.logs.syslog import ingest_ce_log, write_ce_log
from repro.stream.tailer import FAMILY_SPECS, LogTailer, TailError, spec_for_path
from repro.synth.sensors import SensorFieldModel
from util import bit_error, make_errors

T0 = epoch("2019-06-01")


def ce_lines(n: int) -> tuple[list[bytes], np.ndarray]:
    """n valid CE log lines (bytes, newline-terminated) + their records."""
    import tempfile
    from pathlib import Path

    errors = make_errors(
        [bit_error(node=i % 5, t=T0 + float(i)) for i in range(n)]
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ce.log"
        write_ce_log(errors, path)
        raw = path.read_bytes()
    lines = [line + b"\n" for line in raw.rstrip(b"\n").split(b"\n")]
    assert len(lines) == n
    return lines, errors


def make_tailer(path, policy="repair", **kw):
    spec = spec_for_path(path)
    assert spec is not None
    return LogTailer(path, spec, IngestPolicy.coerce(policy), **kw)


class TestIncrementalReads:
    def test_partial_trailing_line_held_back(self, tmp_path):
        lines, errors = ce_lines(3)
        path = tmp_path / "ce.log"
        path.write_bytes(lines[0] + lines[1][:10])
        tailer = make_tailer(path)
        records = tailer.poll()
        assert records.size == 1
        np.testing.assert_array_equal(records, errors[:1])
        # Nothing new: the partial line stays buffered on disk.
        assert tailer.poll() is None
        with open(path, "ab") as fh:
            fh.write(lines[1][10:] + lines[2])
        records = tailer.poll()
        assert records.size == 2
        np.testing.assert_array_equal(records, errors[1:])

    def test_eof_flush_consumes_unterminated_tail(self, tmp_path):
        lines, errors = ce_lines(2)
        path = tmp_path / "ce.log"
        path.write_bytes(lines[0] + lines[1].rstrip(b"\n"))  # no final \n
        tailer = make_tailer(path)
        assert tailer.poll().size == 1
        assert tailer.poll() is None
        records = tailer.poll(eof_flush=True)
        assert records.size == 1
        np.testing.assert_array_equal(records, errors[1:])
        assert tailer.lag_bytes() == 0

    def test_crlf_lines(self, tmp_path):
        lines, errors = ce_lines(4)
        path = tmp_path / "ce.log"
        path.write_bytes(b"".join(line[:-1] + b"\r\n" for line in lines))
        tailer = make_tailer(path)
        out = []
        while (records := tailer.poll()) is not None:
            out.append(records)
        np.testing.assert_array_equal(np.concatenate(out), errors)
        assert tailer.stats.seen == 4

    def test_small_batches_cover_file(self, tmp_path):
        lines, errors = ce_lines(50)
        path = tmp_path / "ce.log"
        path.write_bytes(b"".join(lines))
        tailer = make_tailer(path, batch_bytes=100)
        out, polls = [], 0
        while (records := tailer.poll()) is not None:
            out.append(records)
            polls += 1
        assert polls > 1  # actually incremental
        np.testing.assert_array_equal(np.concatenate(out), errors)

    def test_line_longer_than_batch_bytes(self, tmp_path):
        lines, errors = ce_lines(2)
        path = tmp_path / "ce.log"
        path.write_bytes(b"".join(lines))
        tailer = make_tailer(path, batch_bytes=8)  # shorter than any line
        out = []
        while (records := tailer.poll()) is not None:
            out.append(records)
        np.testing.assert_array_equal(np.concatenate(out), errors)

    def test_shrunk_file_raises(self, tmp_path):
        lines, _ = ce_lines(3)
        path = tmp_path / "ce.log"
        path.write_bytes(b"".join(lines))
        tailer = make_tailer(path)
        tailer.poll()
        path.write_bytes(lines[0])  # truncated behind the offset
        with pytest.raises(TailError):
            tailer.poll()

    def test_missing_file_polls_empty(self, tmp_path):
        tailer = make_tailer(tmp_path / "ce.log")
        assert tailer.poll() is None
        assert tailer.stats.missing


class TestHeaderAndFamilies:
    def write_bmc(self, path):
        write_bmc_log(path, SensorFieldModel(seed=2), [0, 1], T0, T0 + 1800.0)

    def test_bmc_header_consumed_once(self, tmp_path):
        path = tmp_path / "bmc.csv"
        self.write_bmc(path)
        tailer = make_tailer(path)
        out = []
        while (records := tailer.poll()) is not None:
            out.append(records)
        samples, stats = ingest_bmc_log(path, policy="repair")
        # Batch repair re-sorts by time; the tailer keeps arrival order
        # (its consumers are order-insensitive), so compare as multisets
        # and hold the deferred accounting to exact parity.
        order = ["time", "node", "sensor", "value"]
        np.testing.assert_array_equal(
            np.sort(np.concatenate(out), order=order),
            np.sort(samples, order=order),
        )
        assert tailer.final_stats().to_dict() == stats.to_dict()

    def test_bmc_missing_header_strict_raises(self, tmp_path):
        path = tmp_path / "bmc.csv"
        self.write_bmc(path)
        body = path.read_bytes().split(b"\n", 1)[1]
        path.write_bytes(body)
        tailer = make_tailer(path, policy="strict")
        with pytest.raises(MalformedRecordError):
            tailer.poll()

    def test_spec_for_path(self, tmp_path):
        assert spec_for_path(tmp_path / "ce.log").family == "errors"
        assert spec_for_path(tmp_path / "het.log").family == "het"
        assert spec_for_path(tmp_path / "bmc-0.csv").family == "sensors"
        assert spec_for_path(tmp_path / "inventory.tsv").family == "inventory"
        assert spec_for_path(tmp_path / "ce.log.quarantine") is None
        assert spec_for_path(tmp_path / "notes.txt") is None


class TestParityWithBatch:
    def test_ce_stats_and_quarantine_match_batch(self, tmp_path):
        lines, _ = ce_lines(20)
        garbled = lines[:10] + [b"garbage line\n"] + lines[10:]
        stream_path = tmp_path / "stream" / "ce.log"
        batch_path = tmp_path / "batch" / "ce.log"
        for path in (stream_path, batch_path):
            path.parent.mkdir()
            path.write_bytes(b"".join(garbled))

        tailer = make_tailer(stream_path, policy="skip")
        while tailer.poll() is not None:
            pass
        tailer.poll(eof_flush=True)
        tailer.flush_quarantine()

        res = ingest_ce_log(batch_path, policy="skip")
        assert tailer.final_stats().to_dict() == res.stats.to_dict()
        stream_side = stream_path.with_suffix(".log.quarantine")
        batch_side = batch_path.with_suffix(".log.quarantine")
        assert stream_side.read_bytes() == batch_side.read_bytes()

    def test_slow_gear_parity(self, tmp_path, monkeypatch):
        lines, errors = ce_lines(30)
        path = tmp_path / "ce.log"
        path.write_bytes(b"".join(lines))
        monkeypatch.setenv("ASTRA_MEMREPRO_SLOW_INGEST", "1")
        tailer = make_tailer(path, batch_bytes=200)
        out = []
        while (records := tailer.poll()) is not None:
            out.append(records)
        np.testing.assert_array_equal(np.concatenate(out), errors)
        assert tailer.stats.fast_lines == 0

    def test_state_round_trip_mid_file(self, tmp_path):
        lines, errors = ce_lines(40)
        path = tmp_path / "ce.log"
        path.write_bytes(b"".join(lines))
        tailer = make_tailer(path, batch_bytes=300)
        first = tailer.poll()
        state = tailer.to_state()

        resumed = make_tailer(path, batch_bytes=300)
        resumed.restore(state)
        out = [first]
        while (records := resumed.poll()) is not None:
            out.append(records)
        np.testing.assert_array_equal(np.concatenate(out), errors)
        assert resumed.final_stats().to_dict() == (
            ingest_ce_log(path, policy="repair").stats.to_dict()
        )


class TestLateAccounting:
    """The repair re-sort tally stays bounded and exact."""

    def garbled(self, tmp_path, n=600):
        lines, _ = ce_lines(n)
        # One far-future timestamp early on: every later line is late.
        lines[3] = lines[3].replace(b"2019-06-01", b"2400-01-01", 1)
        # A few lines a little out of order as well.
        lines[100], lines[101] = lines[101], lines[100]
        path = tmp_path / "ce.log"
        path.write_bytes(b"".join(lines))
        return path

    def test_checkpoint_does_not_grow_per_late_line(self, tmp_path):
        path = self.garbled(tmp_path)
        tailer = make_tailer(path, batch_bytes=2000)
        sizes = []
        while tailer.poll() is not None:
            sizes.append(len(json.dumps(tailer.to_state()["order"])))
        assert len(sizes) > 20
        # Every line after the garble is late, yet the tally stays put.
        assert max(sizes[2:]) <= sizes[2] + 64
        assert tailer.final_stats().to_dict() == (
            ingest_ce_log(path, policy="repair").stats.to_dict()
        )

    def test_restore_accepts_one_margin_per_late_record(self, tmp_path):
        # Checkpoints written before the tally list bare margins.
        path = self.garbled(tmp_path)
        tailer = make_tailer(path, batch_bytes=20_000)
        tailer.poll()
        state = json.loads(json.dumps(tailer.to_state()))
        state["order"]["margins"] = [
            m for m, n in state["order"]["margins"] for _ in range(n)
        ]
        assert len(state["order"]["margins"]) > 50
        resumed = make_tailer(path, batch_bytes=20_000)
        resumed.restore(state)
        assert resumed.to_state()["order"] == tailer.to_state()["order"]
        while resumed.poll() is not None:
            pass
        assert resumed.final_stats().to_dict() == (
            ingest_ce_log(path, policy="repair").stats.to_dict()
        )

    def test_margins_that_the_tolerance_may_still_swallow_are_kept(
        self, tmp_path
    ):
        # A 1 s margin counts while max|t| < 2**52 s; a later time past
        # that makes the tolerance exceed it, as the batch path agrees.
        tailer = make_tailer(tmp_path / "ce.log")
        tailer._time_max_abs = 1e9
        tailer._tally_late(np.array([1.0, 1.0, 5000.0, 1e-9]))
        assert tailer._late == {1.0: 2, 4096.0: 1}
        tailer._time_max_abs = 2.0**53
        tailer._tally_late(np.array([], dtype=np.float64))
        assert tailer._late == {4096.0: 1}
