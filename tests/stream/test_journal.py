"""The checkpoint journal inside a running pipeline.

Each checkpoint after a pipeline's first is one journal line holding
only what changed; the base is rewritten once the journal reaches its
size, and ``finalize`` always writes one.  The merge of base + journal
must equal the full document the parent layout would have written at
the same point, so resuming has one path whatever the mix.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.inject.corruptor import LogCorruptor
from repro.stream import StreamPipeline, faults_snapshot
from repro.stream.checkpoint import CHECKPOINT_SCHEMA_VERSION, CheckpointStore

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")
BATCH_BYTES = 1 << 14


@pytest.fixture(scope="module")
def model():
    from repro.predict.features import FEATURE_NAMES
    from repro.predict.model import fit

    rng = np.random.default_rng(0)
    X = rng.gamma(1.0, 3.0, size=(200, len(FEATURE_NAMES)))
    y = X[:, 0] > np.quantile(X[:, 0], 0.8)
    return fit(X, y, geometry={"n_nodes": 1 << 16}, window_s=3600.0,
               target_fpr=0.2)


def full_document(pipe: StreamPipeline) -> dict:
    """What the pipeline's state is, as one base would hold it."""
    state = pipe._state()
    if pipe.rollup_dir is not None:
        state["rollups"] = {
            "dir": str(pipe.rollup_dir),
            "version": pipe._rollup_version,
            "errors_seen": int(pipe.rollups.errors_seen),
        }
    return json.loads(json.dumps(
        {"schema_version": CHECKPOINT_SCHEMA_VERSION, **state}
    ))


def pipeline_args(directory, run_dir, model=None, corrupt=False):
    args = {
        "directory": directory,
        "checkpoint_dir": run_dir / "ckpt",
        "alerts_out": run_dir / "alerts.jsonl",
        "batch_bytes": BATCH_BYTES,
    }
    # Rollups and the predictor still reject some salvaged records
    # (ROADMAP item 1), so runs over damaged logs leave them off.
    if not corrupt:
        args["rollup_dir"] = run_dir / "rollups"
        args["predict_model"] = model
    return args


@pytest.mark.parametrize("corrupt", [False, True], ids=["clean", "moderate"])
def test_merged_journal_equals_full_document(
    campaign_copy, tmp_path, model, corrupt
):
    if corrupt:
        LogCorruptor("moderate", seed=5).corrupt_campaign(campaign_copy)
    pipe = StreamPipeline(**pipeline_args(campaign_copy, tmp_path, model,
                                          corrupt))
    store = CheckpointStore(tmp_path / "ckpt")
    kinds = []
    while pipe.step()["progressed"]:
        kinds.append("delta" if store.journal_path.exists()
                     and store.journal_path.stat().st_size else "base")
        assert store.load() == full_document(pipe)
    assert kinds[0] == "base"
    assert "delta" in kinds
    # The journal reached the base's size at least once and was folded.
    assert any(a == "delta" and b == "base" for a, b in zip(kinds, kinds[1:]))
    pipe.finalize()
    assert store.journal_path.read_bytes() == b""
    assert json.loads(store.path.read_bytes()) == full_document(pipe)
    if corrupt:
        files = full_document(pipe)["files"]
        assert any(f["quarantine"] for f in files)


def test_parent_format_checkpoint_resumes(campaign_copy, tmp_path, model):
    """An indented base with no journal -- what was written before the
    journal -- resumes exactly.  (Its bare-float late margins are
    covered in test_tailer.)"""
    ref_dir, cut_dir = tmp_path / "ref", tmp_path / "cut"
    ref_dir.mkdir()
    cut_dir.mkdir()
    LogCorruptor("light", seed=2).corrupt_campaign(campaign_copy)
    ref = StreamPipeline(**pipeline_args(campaign_copy, ref_dir, model,
                                         corrupt=True))
    ref.run()
    ref.finalize()

    cut = StreamPipeline(**pipeline_args(campaign_copy, cut_dir, model,
                                         corrupt=True))
    cut.run(max_batches=5)
    doc = CheckpointStore(cut_dir / "ckpt").load()
    (cut_dir / "ckpt" / "checkpoint.journal").unlink()
    (cut_dir / "ckpt" / "checkpoint.json").write_text(json.dumps(doc, indent=1))
    del cut

    resumed = StreamPipeline(**pipeline_args(campaign_copy, cut_dir, model,
                                             corrupt=True))
    assert resumed.batches == 5
    resumed.run()
    resumed.finalize()
    np.testing.assert_array_equal(faults_snapshot(resumed),
                                  faults_snapshot(ref))
    assert (cut_dir / "alerts.jsonl").read_bytes() == \
        (ref_dir / "alerts.jsonl").read_bytes()
    assert (cut_dir / "ckpt" / "checkpoint.json").read_bytes() == \
        (ref_dir / "ckpt" / "checkpoint.json").read_bytes()


_CHILD = r"""
import os, sys, time
from pathlib import Path
from repro.stream import StreamPipeline

real_truncate = os.truncate
marker = Path(sys.argv[3])

def truncate(path, length):
    # A compaction: the new base is renamed into place and the old
    # journal is about to be reset.  Hold here to be killed.
    if str(path).endswith("checkpoint.journal") and os.path.getsize(path):
        marker.touch()
        time.sleep(600)
    return real_truncate(path, length)

os.truncate = truncate
run = Path(sys.argv[2])
pipe = StreamPipeline(directory=sys.argv[1], checkpoint_dir=run / "ckpt",
                      alerts_out=run / "alerts.jsonl", batch_bytes=int(sys.argv[4]))
pipe.run()
pipe.finalize()
"""


def test_kill_during_compaction_resumes_exactly(campaign_copy, tmp_path):
    """SIGKILL after a compaction's base rename, before the journal
    reset: the journal's lines name the old base and must be ignored."""
    ref_dir, run_dir = tmp_path / "ref", tmp_path / "victim"
    ref_dir.mkdir()
    run_dir.mkdir()
    common = dict(directory=campaign_copy, batch_bytes=BATCH_BYTES)
    ref = StreamPipeline(checkpoint_dir=ref_dir / "ckpt",
                         alerts_out=ref_dir / "alerts.jsonl", **common)
    ref.run()
    ref.finalize()

    marker = tmp_path / "compacting"
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    # Pace the batches so the stream is still running when it compacts.
    env["ASTRA_MEMREPRO_STREAM_DELAY_S"] = "0.01"
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(campaign_copy), str(run_dir),
         str(marker), str(BATCH_BYTES)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 120.0
    try:
        while not marker.exists():
            assert proc.poll() is None, "stream ended without compacting"
            assert time.monotonic() < deadline, "no compaction in time"
            time.sleep(0.02)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    assert proc.returncode == -signal.SIGKILL

    store = CheckpointStore(run_dir / "ckpt")
    assert store.journal_path.stat().st_size > 0  # stale lines survived
    killed_at = store.load()
    assert store.journal_bytes == 0  # ... and none of them applied
    assert killed_at["batches"] > 0

    resumed = StreamPipeline(checkpoint_dir=run_dir / "ckpt",
                             alerts_out=run_dir / "alerts.jsonl", **common)
    assert resumed.batches == killed_at["batches"]
    resumed.run()
    resumed.finalize()
    np.testing.assert_array_equal(faults_snapshot(resumed),
                                  faults_snapshot(ref))
    assert (run_dir / "alerts.jsonl").read_bytes() == \
        (ref_dir / "alerts.jsonl").read_bytes()
    assert (run_dir / "ckpt" / "checkpoint.json").read_bytes() == \
        (ref_dir / "ckpt" / "checkpoint.json").read_bytes()


def test_checkpoint_and_sink_spans_account_for_bytes(campaign_copy, tmp_path):
    from repro import obs

    with obs.capture(trace=True) as cap:
        pipe = StreamPipeline(**pipeline_args(campaign_copy, tmp_path,
                                              corrupt=True))
        pipe.run()
        pipe.finalize()
    payload = cap.payload()
    spans = []

    def walk(node):
        spans.append(node)
        for child in node.get("children", ()):
            walk(child)

    for root in payload["trace"]["roots"]:
        walk(root)
    checkpoints = [s for s in spans if s["name"] == "stream.checkpoint"]
    sinks = [s for s in spans if s["name"] == "stream.sink"]
    assert len(checkpoints) == pipe.batches + 1  # one per batch + finalize
    assert len(sinks) == pipe.batches
    assert all(s.get("transient") for s in checkpoints + sinks)
    kinds = [s["attrs"]["kind"] for s in checkpoints]
    assert kinds[0] == kinds[-1] == "base" and "delta" in kinds
    counters = payload["metrics"]["counters"]
    assert counters["stream.checkpoint.bytes"] == sum(
        s["attrs"]["bytes"] for s in checkpoints
    )
    # Bases other than the first fold a journal in.
    assert counters["stream.checkpoint.compactions"] == kinds.count("base") - 1
