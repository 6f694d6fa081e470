"""Tests for the streaming CE-log reader (``stream_ce_batches``).

Each case runs both ingest gears: the block-granular fast gear and the
per-line gear that honours ``chunk_records``.
"""

import numpy as np
import pytest

from repro.logs.ingest import IngestStats
from repro.logs.syslog import ingest_ce_log, stream_ce_batches, write_ce_log
from util import bit_error, make_errors

GEARS = (True, False)


def _batches(path, **kwargs):
    kwargs.setdefault("quarantine", False)
    return list(stream_ce_batches(path, **kwargs))


@pytest.fixture()
def log_path(tmp_path):
    errors = make_errors(
        [bit_error(node=i % 7, t=float(i)) for i in range(250)]
    )
    path = tmp_path / "ce.log"
    write_ce_log(errors, path)
    return path, errors


class TestStreaming:
    def test_chunks_cover_log(self, log_path):
        """Batches concatenate to the whole-file (batch) parse."""
        path, errors = log_path
        whole = ingest_ce_log(path, policy="skip", quarantine=False).errors
        sizes = [b.size for b in _batches(path, fast=False, chunk_records=100)]
        assert sizes == [100, 100, 50]
        for fast in GEARS:
            batches = _batches(path, fast=fast, chunk_records=100)
            np.testing.assert_array_equal(np.concatenate(batches), whole)

    def test_single_chunk(self, log_path):
        path, errors = log_path
        for fast in GEARS:
            batches = _batches(path, fast=fast, chunk_records=10_000)
            assert [b.size for b in batches] == [250]

    def test_malformed_counted_per_chunk(self, log_path):
        """A garbage line is tallied once in the shared stats."""
        path, _ = log_path
        with open(path, "a") as fh:
            fh.write("garbage line\n")
        for fast in GEARS:
            stats = IngestStats(family="errors", source="text")
            batches = _batches(path, fast=fast, stats=stats, policy="skip")
            assert sum(b.size for b in batches) == 250
            assert stats.quarantined == 1
            assert stats.seen == 251

    def test_strict_raises(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("garbage\n")
        for fast in GEARS:
            with pytest.raises(ValueError):
                _batches(path, fast=fast, policy="strict")

    def test_empty_log(self, tmp_path):
        path = tmp_path / "empty.log"
        path.write_text("")
        for fast in GEARS:
            assert _batches(path, fast=fast) == []

    def test_bad_chunk_size(self, log_path):
        path, _ = log_path
        with pytest.raises(ValueError):
            _batches(path, chunk_records=0)

    def test_streamed_aggregation_matches_batch(self, log_path):
        """Per-batch counting + merge equals whole-file counting."""
        from repro.analysis.counts import counts_by
        from repro.parallel.sharding import merge_counts

        path, errors = log_path
        direct, _ = counts_by(errors, "node", minlength=7)
        for fast in GEARS:
            partials = [
                counts_by(batch, "node", minlength=7)[0]
                for batch in _batches(path, fast=fast, chunk_records=64)
            ]
            np.testing.assert_array_equal(merge_counts(partials), direct)
