"""CheckpointStore: atomic snapshots, versioning, corruption handling."""

import json

import pytest

from repro.stream.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointError,
    CheckpointStore,
)


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert not store.exists()
        assert store.load() is None
        store.save({"batches": 3, "payload": [1, 2.5, None, "x"]})
        assert store.exists()
        state = store.load()
        assert state["batches"] == 3
        assert state["payload"] == [1, 2.5, None, "x"]
        assert state["schema_version"] == CHECKPOINT_SCHEMA_VERSION

    def test_save_leaves_no_tmp_file(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"a": 1})
        store.save({"a": 2})
        leftovers = [p.name for p in tmp_path.iterdir()]
        assert leftovers == ["checkpoint.json"]
        assert store.load()["a"] == 2

    def test_float_round_trip_is_exact(self, tmp_path):
        store = CheckpointStore(tmp_path)
        values = [0.1 + 0.2, 1e300, 1559347200.000001, -0.0]
        store.save({"floats": values})
        assert store.load()["floats"] == values

    def test_version_mismatch_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"a": 1})
        doc = json.loads(store.path.read_text())
        doc["schema_version"] = CHECKPOINT_SCHEMA_VERSION + 1
        store.path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="schema_version"):
            store.load()

    def test_corrupt_json_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"a": 1})
        store.path.write_text(store.path.read_text()[:-10])
        with pytest.raises(CheckpointError):
            store.load()

    def test_non_object_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.path.parent.mkdir(parents=True, exist_ok=True)
        store.path.write_text("[1, 2, 3]")
        with pytest.raises(CheckpointError):
            store.load()

    def test_creates_directory(self, tmp_path):
        store = CheckpointStore(tmp_path / "nested" / "ckpt")
        store.save({"a": 1})
        assert store.load()["a"] == 1


class TestJournal:
    """Base + journal: append, merge, torn tails, stale lines."""

    BASE = {
        "batches": 1,
        "groups": [[[1, 0, 0, 2], {"n": 1}], [[3, 0, 0, 1], {"n": 4}]],
        "log": [[1, "a"]],
    }

    def store_with_lines(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(self.BASE)
        store.append([
            {"op": "set", "path": ["batches"], "value": 2},
            {"op": "upsert", "path": ["groups"], "width": 1,
             "rows": [[[2, 0, 0, 0], {"n": 1}], [[3, 0, 0, 1], {"n": 5}]]},
        ])
        store.append([
            {"op": "set", "path": ["batches"], "value": 3},
            {"op": "upsert", "path": ["log"], "width": 0,
             "rows": [[7, "b"]]},
        ])
        return store

    def test_lines_merge_into_the_base_by_key(self, tmp_path):
        self.store_with_lines(tmp_path)
        doc = CheckpointStore(tmp_path).load()
        assert doc["batches"] == 3
        # Upserted rows replace by key and come back sorted by key.
        assert doc["groups"] == [
            [[1, 0, 0, 2], {"n": 1}],
            [[2, 0, 0, 0], {"n": 1}],
            [[3, 0, 0, 1], {"n": 5}],
        ]
        assert doc["log"] == [[1, "a"], [7, "b"]]

    def test_save_resets_the_journal(self, tmp_path):
        store = self.store_with_lines(tmp_path)
        assert store.journal_bytes == store.journal_path.stat().st_size > 0
        store.save({"batches": 9})
        assert store.journal_path.read_bytes() == b""
        assert CheckpointStore(tmp_path).load()["batches"] == 9

    def test_compaction_due_when_journal_reaches_base(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.compaction_due  # no base yet
        store.save({"pad": "x" * 200})
        assert not store.compaction_due
        while store.journal_bytes < store.base_bytes:
            assert not store.compaction_due
            store.append([{"op": "set", "path": ["pad"], "value": "y"}])
        assert store.compaction_due

    def test_append_needs_a_base(self, tmp_path):
        with pytest.raises(CheckpointError, match="no base"):
            CheckpointStore(tmp_path).append([])

    def test_torn_last_line_is_ignored_then_cut(self, tmp_path):
        store = self.store_with_lines(tmp_path)
        whole = store.journal_path.read_bytes()
        with open(store.journal_path, "ab") as fh:
            fh.write(b'{"base":"' + store.base_crc.encode() + b'","ops":[{"op')
        resumed = CheckpointStore(tmp_path)
        assert resumed.load()["batches"] == 3
        assert resumed.journal_bytes == len(whole)
        resumed.append([{"op": "set", "path": ["batches"], "value": 4}])
        lines = resumed.journal_path.read_bytes()
        assert lines.startswith(whole) and lines.count(b"\n") == 3
        assert CheckpointStore(tmp_path).load()["batches"] == 4

    def test_lines_from_a_stale_base_are_ignored(self, tmp_path):
        # A crash after the new base's rename, before the journal reset.
        store = self.store_with_lines(tmp_path)
        stale = store.journal_path.read_bytes()
        store.save({**self.BASE, "batches": 10})
        store.journal_path.write_bytes(stale)
        resumed = CheckpointStore(tmp_path)
        doc = resumed.load()
        assert doc["batches"] == 10 and doc["log"] == [[1, "a"]]
        assert resumed.journal_bytes == 0
        resumed.append([{"op": "set", "path": ["batches"], "value": 11}])
        assert resumed.journal_path.read_bytes().count(b"\n") == 1
        assert CheckpointStore(tmp_path).load()["batches"] == 11

    def test_corrupt_complete_line_raises(self, tmp_path):
        store = self.store_with_lines(tmp_path)
        with open(store.journal_path, "ab") as fh:
            fh.write(b"not json\n")
        with pytest.raises(CheckpointError, match="corrupt journal line 3"):
            CheckpointStore(tmp_path).load()

    def test_journal_lines_validate_against_the_schema(self, tmp_path):
        from repro.obs.schema import schema_dir, validate_jsonl

        store = self.store_with_lines(tmp_path)
        assert validate_jsonl(
            schema_dir() / "checkpoint-journal.schema.json",
            store.journal_path,
        ) == []

    def test_parent_format_base_loads(self, tmp_path):
        # Bases written before the journal were indented; they load as is.
        (tmp_path / "checkpoint.json").write_text(json.dumps(
            {"schema_version": CHECKPOINT_SCHEMA_VERSION, "batches": 4},
            indent=1,
        ))
        store = CheckpointStore(tmp_path)
        assert store.load()["batches"] == 4
        assert not store.journal_path.exists() and store.journal_bytes == 0
