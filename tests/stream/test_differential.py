"""Stream-to-completion == batch, byte for byte; kill/resume is exact."""

import shutil

import numpy as np
import pytest

from repro.inject.corruptor import LogCorruptor
from repro.stream import StreamPipeline, faults_snapshot
from repro.stream.alerts import AlertRules
from repro.stream.checkpoint import CheckpointError

from stream.parity import batch_reference

TEXT_FILES = ("ce.log", "het.log", "bmc.csv", "inventory.tsv")


def stream_to_completion(directory, **kw):
    pipeline = StreamPipeline(directory=directory, **kw)
    pipeline.run()
    summary = pipeline.finalize()
    return pipeline, summary


def assert_stream_matches_batch(pipeline, batch_dir):
    faults, stats, snapshots = batch_reference(batch_dir)
    np.testing.assert_array_equal(faults_snapshot(pipeline), faults)
    streamed = pipeline.final_ingest()
    assert set(streamed) == set(stats)
    for family, s in stats.items():
        assert streamed[family].to_dict() == s.to_dict(), family
    assert pipeline.snapshots == snapshots


class TestCleanParity:
    def test_all_families(self, campaign_copy):
        pipeline, summary = stream_to_completion(campaign_copy)
        assert_stream_matches_batch(pipeline, campaign_copy)
        assert summary["faults"] == int(faults_snapshot(pipeline).size)
        # Clean campaign: every family fully parsed, nothing quarantined.
        for family, s in summary["ingest"].items():
            assert s["quarantined"] == 0, family

    def test_growing_file_equals_static_file(self, campaign_copy, tmp_path):
        """Appending in arbitrary slices changes nothing."""
        full = (campaign_copy / "ce.log").read_bytes()
        growing_dir = tmp_path / "growing"
        growing_dir.mkdir()
        target = growing_dir / "ce.log"
        pipeline = StreamPipeline(directory=campaign_copy, files=None)
        # Reference: the static file streamed in one go.
        pipeline.run()
        ref = faults_snapshot(pipeline)

        rng = np.random.default_rng(0)
        cuts = np.sort(rng.integers(0, len(full), 9)).tolist() + [len(full)]
        grown = StreamPipeline(files=[target])
        written = 0
        for cut in cuts:
            with open(target, "ab") as fh:
                fh.write(full[written:cut])
            written = cut
            while grown.step()["progressed"]:
                pass
        grown.step(eof_flush=True)
        np.testing.assert_array_equal(faults_snapshot(grown), ref)


class TestCorruptedParity:
    @pytest.mark.parametrize("profile", ["light", "moderate", "hostile"])
    def test_profile(self, campaign_copy, tmp_path, profile):
        LogCorruptor(profile, seed=11).corrupt_campaign(campaign_copy)
        batch_dir = tmp_path / "batch"
        shutil.copytree(campaign_copy, batch_dir)

        pipeline, _ = stream_to_completion(campaign_copy)
        assert_stream_matches_batch(pipeline, batch_dir)
        # Quarantine sidecars must be byte-identical too.
        for name in TEXT_FILES:
            stream_side = campaign_copy / f"{name}.quarantine"
            batch_side = batch_dir / f"{name}.quarantine"
            assert stream_side.exists() == batch_side.exists(), name
            if batch_side.exists():
                assert stream_side.read_bytes() == batch_side.read_bytes()


class TestKillResume:
    BATCH_BYTES = 1 << 18

    def run_dir(self, tmp_path, name):
        d = tmp_path / name
        d.mkdir()
        return {"checkpoint_dir": d / "ckpt", "alerts_out": d / "alerts.jsonl"}

    def test_resume_is_exact(self, campaign_copy, tmp_path):
        LogCorruptor("moderate", seed=11).corrupt_campaign(campaign_copy)
        common = dict(
            directory=campaign_copy,
            batch_bytes=self.BATCH_BYTES,
            checkpoint_every=2,
        )

        # Reference: one uninterrupted run.
        ref_io = self.run_dir(tmp_path, "ref")
        ref, ref_summary = stream_to_completion(**common, **ref_io)

        # Interrupted run: a few batches, then the process "dies" (no
        # finalize, nothing flushed beyond the last checkpoint).
        cut_io = self.run_dir(tmp_path, "cut")
        first = StreamPipeline(**common, **cut_io)
        first.run(max_batches=3)
        assert first.batches == 3
        del first

        resumed = StreamPipeline(**common, **cut_io)
        assert resumed.batches == 2  # checkpoint_every=2 -> batch 2
        resumed.run()
        summary = resumed.finalize()

        np.testing.assert_array_equal(
            faults_snapshot(resumed), faults_snapshot(ref)
        )
        assert summary["ingest"] == ref_summary["ingest"]
        assert summary["alerts"] == ref_summary["alerts"]
        assert (
            cut_io["alerts_out"].read_bytes() == ref_io["alerts_out"].read_bytes()
        )
        ref_ckpt = (ref_io["checkpoint_dir"] / "checkpoint.json").read_text()
        cut_ckpt = (cut_io["checkpoint_dir"] / "checkpoint.json").read_text()
        assert cut_ckpt == ref_ckpt

    def test_resume_validates_batch_bytes(self, campaign_copy, tmp_path):
        io = self.run_dir(tmp_path, "run")
        first = StreamPipeline(
            directory=campaign_copy, batch_bytes=self.BATCH_BYTES, **io
        )
        first.run(max_batches=1)
        with pytest.raises(CheckpointError, match="batch_bytes"):
            StreamPipeline(
                directory=campaign_copy, batch_bytes=self.BATCH_BYTES * 2, **io
            )

    def test_resume_validates_policy(self, campaign_copy, tmp_path):
        io = self.run_dir(tmp_path, "run")
        first = StreamPipeline(
            directory=campaign_copy, batch_bytes=self.BATCH_BYTES, **io
        )
        first.run(max_batches=1)
        with pytest.raises(CheckpointError, match="policy"):
            StreamPipeline(
                directory=campaign_copy, policy="skip",
                batch_bytes=self.BATCH_BYTES, **io
            )

    def test_resume_refuses_changed_alert_rules(self, campaign_copy, tmp_path):
        io = self.run_dir(tmp_path, "run")
        first = StreamPipeline(
            directory=campaign_copy, batch_bytes=self.BATCH_BYTES, **io
        )
        first.run(max_batches=1)
        with pytest.raises(CheckpointError, match="alert rules") as exc:
            StreamPipeline(
                directory=campaign_copy, batch_bytes=self.BATCH_BYTES,
                rules=AlertRules(ce_rate_threshold=5), **io
            )
        assert "--ce-rate-threshold 100" in str(exc.value)
        assert "--no-resume" in str(exc.value)

    def test_no_resume_starts_over(self, campaign_copy, tmp_path):
        io = self.run_dir(tmp_path, "run")
        first = StreamPipeline(
            directory=campaign_copy, batch_bytes=self.BATCH_BYTES, **io
        )
        first.run(max_batches=2)
        fresh = StreamPipeline(
            directory=campaign_copy, batch_bytes=self.BATCH_BYTES,
            resume=False, **io
        )
        assert fresh.batches == 0
        fresh.run()
        fresh.finalize()
        assert_stream_matches_batch(fresh, campaign_copy)
