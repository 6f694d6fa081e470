"""Crash ordering of every artifact the program writes and reads back.

Each artifact writer runs with ``os.fsync`` and ``os.replace`` recorded.
For every file it publishes, the recorded history must show

1. an fsync of the file's data (its inode) *before* the rename that
   publishes it -- else a crash can expose a half-written file;
2. an fsync of its directory *after* that rename -- else a power cut
   can roll the rename back after the caller was told it is durable.

The alert sink is not renamed into place: it is appended to, and the
stream checkpoint records its byte offset.  Its data must be fsynced
up to that offset before the checkpoint that counts it is renamed or
appended to the checkpoint journal.  The journal is appended to as
well: each line is fsynced before the step that wrote it returns, and
a compaction resets it only after the new base is durable.

The damage legs then tear every artifact the program reads back and
flip one bit at each byte: each load succeeds or raises its kind's
typed error, never anything else.
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
    from repro.stream.checkpoint import CHECKPOINT_NAME, CheckpointStore

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

    def append(self, ops):
        # A journal line counts the offset its alert_sink op sets.
        offset = next(
            op["value"]["offset"] for op in ops
            if op["path"] == ["alert_sink"]
        )
        counted.append((len(recorder.events), offset))
        return real_append(self, ops)

    monkeypatch.setattr(os, "replace", replace)
    real_append = CheckpointStore.append
    monkeypatch.setattr(CheckpointStore, "append", append)
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


def _ce_campaign(tmp_path, n=600):
    from repro.logs.syslog import write_ce_log

    logs = tmp_path / "campaign"
    logs.mkdir()
    write_ce_log(
        make_errors([bit_error(node=i % 7, t=60.0 * i) for i in range(n)]),
        logs / "ce.log",
    )
    return logs


def test_journal_line_fsynced_before_step_returns(tmp_path, monkeypatch):
    from repro.stream import StreamPipeline

    logs = _ce_campaign(tmp_path)
    recorder = Recorder(monkeypatch)
    pipe = StreamPipeline(
        logs, checkpoint_dir=tmp_path / "ckpt", batch_bytes=4096,
        resume=False,
    )
    journal = pipe.store.journal_path
    lines = 0
    while pipe.step()["progressed"]:
        size = journal.stat().st_size if journal.exists() else 0
        if not size:
            continue  # this step wrote a base
        lines += 1
        ino = journal.stat().st_ino
        synced = [
            ev[3] for ev in recorder.events
            if ev[:3] == ("fsync", ino, False)
        ]
        assert synced and synced[-1] == size, (
            f"journal is {size} bytes at return, fsynced up to {synced[-1:]}"
        )
    assert lines >= 3


def test_compaction_resets_the_journal_after_the_base_is_durable(
    tmp_path, monkeypatch
):
    from repro.stream import StreamPipeline

    logs = _ce_campaign(tmp_path)
    recorder = Recorder(monkeypatch)
    real_truncate = os.truncate

    def truncate(path, length):
        recorder.events.append(
            ("truncate", os.fspath(path), os.path.getsize(path))
        )
        return real_truncate(path, length)

    monkeypatch.setattr(os, "truncate", truncate)
    ckpt = tmp_path / "ckpt"
    pipe = StreamPipeline(
        logs, checkpoint_dir=ckpt, batch_bytes=4096, resume=False,
    )
    pipe.run()
    pipe.finalize()
    dir_ino = os.stat(ckpt).st_ino
    resets = [
        i for i, ev in enumerate(recorder.events)
        if ev[0] == "truncate" and ev[1].endswith("checkpoint.journal")
        and ev[2] > 0
    ]
    assert len(resets) >= 2  # compactions, and the one finalize makes
    for at in resets:
        before = recorder.events[:at]
        base = max(
            i for i, ev in enumerate(before)
            if ev[0] == "replace" and ev[2].endswith("checkpoint.json")
        )
        assert any(
            ev[:3] == ("fsync", dir_ino, True) for ev in before[base + 1:]
        ), "journal reset before the new base's rename was durable"
        # No journal line was appended between the base and its reset.
        journal_ino = os.stat(ckpt / "checkpoint.journal").st_ino
        assert not any(
            ev[:3] == ("fsync", journal_ino, False) for ev in before[base:]
        )


# ----------------------------------------------------------------------
# Damage legs: every artifact the program reads back, torn at many
# lengths and with one bit flipped at each byte.  A load either
# succeeds or raises its kind's typed error, nothing else; a CRC-guarded
# payload refuses every damaged copy.  The ready file has no leg: the
# program writes it for other processes and never reads it back.
# ----------------------------------------------------------------------
def _stream_state(tmp_path):
    """A small stream stopped after a journal line: (files, resume)."""
    from repro.stream import StreamPipeline

    logs = _ce_campaign(tmp_path, n=40)
    args = dict(
        checkpoint_dir=tmp_path / "ckpt", alerts_out=tmp_path / "alerts.jsonl",
        batch_bytes=512,
    )
    pipe = StreamPipeline(logs, resume=False, **args)
    while not pipe.store.journal_bytes:
        assert pipe.step()["progressed"]
    files = {
        "checkpoint": pipe.store.path,
        "checkpoint-journal": pipe.store.journal_path,
        "alerts": pipe.sink.path,
    }
    return files, lambda: StreamPipeline(logs, **args)


def damage_stream_file(name):
    """Set-up of a leg that damages one file of a stream and resumes."""
    def setup(tmp_path):
        files, resume = _stream_state(tmp_path)
        return files[name], resume
    return setup


def damage_served_alerts(tmp_path):
    from repro.serve.state import _AlertTail

    files, _ = _stream_state(tmp_path)
    return files["alerts"], lambda: _AlertTail(files["alerts"]).refresh()


def damage_ledger_shard(tmp_path):
    from repro.fleet import ShardResultCache
    from repro.logs.integrity import crc32c

    (path,) = write_ledger_shard(tmp_path)
    cache = ShardResultCache(tmp_path / "fleet-cache")
    digest = f"{crc32c(path.read_bytes()):08x}"
    return path, lambda: cache.load("cluster-00/errors.npy", digest)


def damage_rollup(index):
    """Set-up of a leg that damages the snapshot's payload (0) or its
    manifest (1) and loads the latest version."""
    def setup(tmp_path):
        from repro.query.rollup import RollupStore

        published = write_rollup_snapshot(tmp_path)
        return published[index], lambda: RollupStore.load(
            published[1].parent
        )
    return setup


def damage_model(tmp_path):
    from repro.predict.model import Model

    (path,) = write_model(tmp_path)
    return path, lambda: Model.load(path)


def damage_fleet_manifest(tmp_path):
    from repro.fleet.spec import Fleet

    (path,) = write_fleet_manifest(tmp_path)
    return path, lambda: Fleet.load(path.parent)


def damage_crc_sidecar(tmp_path):
    from repro.logs.integrity import verify_checksum

    (side,) = write_crc_sidecar(tmp_path)
    return side, lambda: verify_checksum(tmp_path / "errors.npy", True)


def damage_sidecar_checked_shard(tmp_path):
    from repro.logs.integrity import verify_checksum

    write_crc_sidecar(tmp_path)
    shard = tmp_path / "errors.npy"
    return shard, lambda: verify_checksum(shard, True)


def _errors():
    from repro.fleet.spec import FleetFormatError
    from repro.logs.integrity import ShardIntegrityError
    from repro.predict.errors import PredictError
    from repro.query.rollup import RollupError
    from repro.serve.state import ServeError
    from repro.stream.checkpoint import CheckpointError

    return {
        "checkpoint": CheckpointError,
        "checkpoint-journal": CheckpointError,
        "alerts": CheckpointError,
        "served-alerts": ServeError,
        "ledger-shard": None,  # the shard cache returns None: re-run
        "rollup-payload": RollupError,
        "rollup-manifest": RollupError,
        "model": PredictError,
        "fleet-manifest": FleetFormatError,
        "crc-sidecar": ShardIntegrityError,
        "sidecar-checked-shard": ShardIntegrityError,
    }


#: kind -> (set-up returning (file to damage, load), CRC-guarded, most
#: bit flips: None flips every byte, a number walks an even stride so
#: the slowest loads stay bounded).
DAMAGE = {
    "checkpoint": (damage_stream_file("checkpoint"), False, None),
    "checkpoint-journal": (
        damage_stream_file("checkpoint-journal"), False, None,
    ),
    "alerts": (damage_stream_file("alerts"), False, None),
    "served-alerts": (damage_served_alerts, False, None),
    "ledger-shard": (damage_ledger_shard, True, 512),
    "rollup-payload": (damage_rollup(0), True, 256),
    "rollup-manifest": (damage_rollup(1), False, None),
    "model": (damage_model, False, None),
    "fleet-manifest": (damage_fleet_manifest, False, None),
    "crc-sidecar": (damage_crc_sidecar, False, None),
    "sidecar-checked-shard": (damage_sidecar_checked_shard, True, None),
}


def _set_up(kind, tmp_path):
    """(file to damage, its bytes, load, every file's bytes): the last
    undoes a load that rewrites a file (a resume truncating alerts)."""
    path, load = DAMAGE[kind][0](tmp_path)
    load()  # the undamaged artifact loads
    files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    return path, files[path], load, files


def _load_damaged(kind, path, damaged, load, files):
    """Load with ``damaged`` in place of ``path``'s bytes, then put
    every file back; returns what the load returned (None if refused)."""
    error = _errors()[kind]
    path.write_bytes(damaged)
    try:
        out = load()
    except Exception as exc:
        if error is None or not isinstance(exc, error):
            raise AssertionError(
                f"{kind}: damage escaped as {type(exc).__name__}: {exc}"
            ) from exc
        out = None
    finally:
        for p, data in files.items():
            p.write_bytes(data)
    if DAMAGE[kind][1] and out is not None:
        raise AssertionError(f"{kind}: a damaged CRC-guarded copy loaded")
    return out


@pytest.mark.parametrize("kind", sorted(DAMAGE))
def test_torn_artifact_loads_or_is_refused(kind, tmp_path):
    path, raw, load, files = _set_up(kind, tmp_path)
    for size in {*range(0, len(raw), max(1, len(raw) // 64)), len(raw) - 1}:
        _load_damaged(kind, path, raw[:size], load, files)


@pytest.mark.parametrize("kind", sorted(DAMAGE))
def test_bit_flipped_artifact_loads_or_is_refused(kind, tmp_path):
    path, raw, load, files = _set_up(kind, tmp_path)
    most = DAMAGE[kind][2]
    for i in range(0, len(raw), max(1, len(raw) // (most or len(raw)))):
        damaged = bytearray(raw)
        damaged[i] ^= 1 << (i % 8)
        _load_damaged(kind, path, bytes(damaged), load, files)
