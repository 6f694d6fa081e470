"""Tests for the CE syslog format."""

import numpy as np
import pytest

from repro.logs.syslog import format_ce_record, ingest_ce_log, write_ce_log
from repro.faults.types import empty_errors
from util import bit_error, make_errors


@pytest.fixture()
def sample_errors():
    return make_errors(
        [
            bit_error(node=123, slot=9, rank=0, bank=3, column=17, bit=42, t=86400.0),
            bit_error(node=5, slot=0, rank=1, bank=15, column=0, bit=0, t=90000.0),
            # A storm record with no positional payload.
            dict(
                time=95000.0,
                node=7,
                socket=1,
                slot=10,
                rank=0,
                bank=-1,
                column=-1,
                bit_pos=-1,
                address=0,
                syndrome=0,
            ),
        ]
    )


class TestFormat:
    def test_line_shape(self, sample_errors):
        line = format_ce_record(sample_errors[0])
        assert line.startswith("1970-01-02T00:00:00 astra-n0123 kernel: EDAC CE")
        assert "slot=J" in line
        assert "bank=3" in line
        assert "row=-" in line  # Astra: no row info
        assert "bit=42" in line

    def test_missing_payload_dashes(self, sample_errors):
        line = format_ce_record(sample_errors[2])
        assert "bank=-" in line and "col=-" in line and "bit=-" in line


class TestRoundTrip:
    def test_write_read(self, tmp_path, sample_errors):
        path = tmp_path / "ce.log"
        n = write_ce_log(sample_errors, path)
        assert n == 3
        result = ingest_ce_log(path, policy="skip", quarantine=False)
        assert result.n_malformed == 0
        np.testing.assert_array_equal(result.errors, sample_errors)

    def test_empty_log(self, tmp_path):
        path = tmp_path / "ce.log"
        write_ce_log(empty_errors(0), path)
        result = ingest_ce_log(path, policy="skip", quarantine=False)
        assert result.errors.size == 0

    def test_large_roundtrip(self, tmp_path):
        """Chunked writer handles > one chunk of records."""
        rng = np.random.default_rng(0)
        n = 70_000
        e = empty_errors(n)
        e["time"] = np.sort(rng.uniform(0, 1e6, n)).round()
        e["node"] = rng.integers(0, 2592, n)
        e["slot"] = rng.integers(0, 16, n)
        e["socket"] = e["slot"] // 8
        e["rank"] = rng.integers(0, 2, n)
        e["bank"] = rng.integers(0, 16, n)
        e["column"] = rng.integers(0, 1024, n)
        e["bit_pos"] = rng.integers(0, 72, n)
        e["address"] = rng.integers(0, 2**40, n).astype(np.uint64)
        e["syndrome"] = rng.integers(0, 256, n)
        path = tmp_path / "big.log"
        write_ce_log(e, path)
        back = ingest_ce_log(path, policy="skip", quarantine=False).errors
        np.testing.assert_array_equal(back, e)

    def test_wrong_dtype(self, tmp_path):
        with pytest.raises(ValueError):
            write_ce_log(np.zeros(3), tmp_path / "x.log")


class TestMalformed:
    def test_garbage_lines_skipped(self, tmp_path, sample_errors):
        path = tmp_path / "ce.log"
        write_ce_log(sample_errors, path)
        with open(path, "a") as fh:
            fh.write("this is not a CE record\n")
            fh.write("2019-01-01T00:00:00 astra-n0001 kernel: EDAC CE broken\n")
        result = ingest_ce_log(path, policy="skip", quarantine=False)
        assert result.errors.size == 3
        assert result.n_malformed == 2

    def test_strict_mode_raises(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("garbage\n")
        with pytest.raises(ValueError):
            ingest_ce_log(path, policy="strict", quarantine=False)

    def test_blank_lines_ignored(self, tmp_path, sample_errors):
        path = tmp_path / "ce.log"
        write_ce_log(sample_errors, path)
        with open(path, "a") as fh:
            fh.write("\n\n")
        result = ingest_ce_log(path, policy="skip", quarantine=False)
        assert result.errors.size == 3
        assert result.n_malformed == 0


class TestPipelineFromText:
    def test_synthetic_campaign_roundtrip(self, tmp_path, small_campaign):
        """The full analysis input can be reconstructed from text logs."""
        sub = small_campaign.errors[:5000]
        path = tmp_path / "ce.log"
        write_ce_log(sub, path)
        back = ingest_ce_log(path, policy="skip", quarantine=False).errors
        # Timestamps render at second resolution; everything else exact.
        assert np.max(np.abs(back["time"] - sub["time"])) < 1.0
        for field in sub.dtype.names:
            if field == "time":
                continue
            np.testing.assert_array_equal(back[field], sub[field])
