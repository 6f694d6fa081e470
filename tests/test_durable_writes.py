"""Crash ordering of every artifact the program writes and reads back.

Each artifact writer runs with ``os.fsync`` and ``os.replace`` recorded.
For every file it publishes, the recorded history must show

1. an fsync of the file's data (its inode) *before* the rename that
   publishes it -- else a crash can expose a half-written file;
2. an fsync of its directory *after* that rename -- else a power cut
   can roll the rename back after the caller was told it is durable.

The alert sink is not renamed into place: it is appended to, and the
stream checkpoint records its byte offset.  Its data must be fsynced
up to that offset before the checkpoint that counts it is renamed.
"""

from __future__ import annotations

import asyncio
import json
import os
import stat
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from util import bit_error, make_errors


class Recorder:
    """Ordered log of fsyncs (by inode) and renames."""

    def __init__(self, monkeypatch):
        self.events: list[tuple] = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            st = os.fstat(fd)
            self.events.append(
                ("fsync", st.st_ino, stat.S_ISDIR(st.st_mode), st.st_size)
            )
            return real_fsync(fd)

        def replace(src, dst, **kwargs):
            ino = os.stat(src).st_ino
            self.events.append(("replace", os.fspath(src), os.fspath(dst), ino))
            return real_replace(src, dst, **kwargs)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)

    def assert_durable(self, paths) -> None:
        """The crash-ordering invariant for files published in order.

        A later file may name an earlier one (a manifest its payload),
        so each file's directory fsync must also precede the next
        file's rename.
        """
        done = -1
        for path in map(Path, paths):
            renames = [
                i for i, ev in enumerate(self.events)
                if ev[0] == "replace" and Path(ev[2]) == path
            ]
            assert renames, f"{path.name} was not published by a rename"
            assert renames[0] > done, (
                f"{path.name} published before the file before it is durable"
            )
            prev = -1
            for r in renames:
                ino = self.events[r][3]
                assert any(
                    ev[:3] == ("fsync", ino, False)
                    for ev in self.events[prev + 1:r]
                ), f"{path.name}: data not fsynced before its rename"
                prev = r
            dir_ino = os.stat(path.parent).st_ino
            done = next(
                (i for i, ev in enumerate(self.events)
                 if i > renames[-1] and ev[:3] == ("fsync", dir_ino, True)),
                None,
            )
            assert done is not None, (
                f"{path.name}: directory not fsynced after the rename"
            )


# ----------------------------------------------------------------------
# One writer per artifact kind; each returns the files it published.
# ----------------------------------------------------------------------
def write_checkpoint(tmp_path):
    from repro.stream.checkpoint import CheckpointStore

    store = CheckpointStore(tmp_path / "ckpt")
    store.save({"batches": 1})
    return [store.save({"batches": 2})]


def write_ledger_shard(tmp_path):
    from repro.faults.coalesce import coalesce
    from repro.faults.types import FaultMode
    from repro.fleet import ShardResultCache
    from repro.logs.ingest import IngestStats

    errors = make_errors([bit_error(node=i % 3, t=10.0 * i) for i in range(8)])
    faults = coalesce(errors)
    cache = ShardResultCache(tmp_path / "fleet-cache")
    rel, _ = cache.save("cluster-00/errors.npy", {
        "faults": faults,
        "mode_counts": np.bincount(
            faults["mode"], minlength=len(FaultMode)
        ).astype(np.int64),
        "n_errors": 8,
        "stats": IngestStats(family="errors", seen=8, parsed=8),
        "wall_s": 0.0,
    })
    return [cache.directory / rel]


def write_rollup_snapshot(tmp_path):
    from repro.query.rollup import MANIFEST_NAME, RollupStore

    directory = tmp_path / "rollups"
    store = RollupStore()
    store.update(make_errors([bit_error(node=1, t=5.0)]))
    version = store.snapshot(directory)
    return [directory / f"rollup-{version:06d}.npz", directory / MANIFEST_NAME]


def write_model(tmp_path):
    from repro.predict.features import FEATURE_NAMES
    from repro.predict.model import fit

    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, len(FEATURE_NAMES)))
    y = np.arange(40) % 4 == 0
    model = fit(X, y, geometry={"n_nodes": 8}, window_s=3600.0)
    path = tmp_path / "model.json"
    model.save(path)
    return [path]


def write_fleet_manifest(tmp_path):
    from repro.fleet.spec import Fleet, FleetSpec

    fleet = Fleet(spec=FleetSpec(n_clusters=1), directory=tmp_path / "fleet")
    return [fleet.save()]


def write_crc_sidecar(tmp_path):
    from repro.logs.integrity import write_checksum

    shard = tmp_path / "errors.npy"
    shard.write_bytes(b"\x93NUMPY shard bytes")
    return [write_checksum(shard)]


def write_ready_file(tmp_path):
    from repro.serve.server import Server

    path = tmp_path / "ready.json"
    state = SimpleNamespace(model=SimpleNamespace(model_id="0000abcd"))
    server = Server(state, port=0, ready_file=path)

    async def start_and_close():
        await server.start()
        await server.close()

    asyncio.run(start_and_close())
    return [path]


WRITERS = {
    "checkpoint": write_checkpoint,
    "ledger-shard": write_ledger_shard,
    "rollup-snapshot": write_rollup_snapshot,
    "model": write_model,
    "fleet-manifest": write_fleet_manifest,
    "crc-sidecar": write_crc_sidecar,
    "ready-file": write_ready_file,
}


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_artifact_crash_ordering(kind, tmp_path, monkeypatch):
    recorder = Recorder(monkeypatch)
    published = WRITERS[kind](tmp_path)
    assert published
    for path in published:
        assert Path(path).is_file()
        assert not Path(f"{path}.tmp").exists()
    recorder.assert_durable(published)


def test_alerts_durable_before_the_checkpoint_counting_them(
    tmp_path, monkeypatch
):
    from repro.logs.syslog import write_ce_log
    from repro.stream import StreamPipeline
    from repro.stream.checkpoint import CHECKPOINT_NAME

    logs = tmp_path / "campaign"
    logs.mkdir()
    write_ce_log(
        make_errors([bit_error(node=i % 5, t=60.0 * i) for i in range(300)]),
        logs / "ce.log",
    )
    alerts = tmp_path / "alerts.jsonl"
    recorder = Recorder(monkeypatch)
    recorded_replace = os.replace
    counted = []  # (event index, alert bytes the checkpoint counts)

    def replace(src, dst, **kwargs):
        if Path(dst).name == CHECKPOINT_NAME:
            doc = json.loads(Path(src).read_text())
            counted.append((len(recorder.events), doc["alert_sink"]["offset"]))
        return recorded_replace(src, dst, **kwargs)

    monkeypatch.setattr(os, "replace", replace)
    pipe = StreamPipeline(
        logs, checkpoint_dir=tmp_path / "ckpt", alerts_out=alerts,
        batch_bytes=4096, resume=False,
    )
    pipe.run()
    sink_ino = os.stat(alerts).st_ino
    assert len(counted) >= 2 and counted[-1][1] == pipe.sink.offset > 0
    for at, offset in counted:
        synced = max(
            (ev[3] for ev in recorder.events[:at]
             if ev[:3] == ("fsync", sink_ino, False)),
            default=0,
        )
        assert synced >= offset, (
            f"checkpoint counts {offset} alert bytes, only {synced} fsynced"
        )
