"""Tests of idempotent log appends: ``LogStore.extend_once`` token dedup.

The durable close protocol leans entirely on this primitive: however many
times a close is replayed (worker restart, router re-send, explicit
recovery), the session's records must land in the shared log exactly once.
"""

from __future__ import annotations

import pickle

import pytest

from repro.exceptions import LogDatabaseError
from repro.logdb import FileLogStore, InMemoryLogStore, LogSession
from repro.logdb import file_store
from repro.utils.io import load_json


def _session(judgements, query=None):
    return LogSession(judgements=judgements, query_index=query)


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        return InMemoryLogStore(num_images=20)
    return FileLogStore(tmp_path / "log", num_images=20)


class TestExtendOnce:
    def test_first_call_commits_and_mints_ids(self, store):
        stored = store.extend_once([_session({0: 1}), _session({1: -1})], "t1")
        assert [s.session_id for s in stored] == [0, 1]
        assert len(store) == 2

    def test_replay_is_a_no_op(self, store):
        store.extend_once([_session({0: 1})], "t1")
        assert store.extend_once([_session({0: 1})], "t1") == []
        assert len(store) == 1
        # A different token commits independently.
        assert store.extend_once([_session({2: 1})], "t2") != []
        assert len(store) == 2

    def test_rejects_empty_batch_and_bad_token(self, store):
        with pytest.raises(LogDatabaseError):
            store.extend_once([], "t1")
        with pytest.raises(LogDatabaseError):
            store.extend_once([_session({0: 1})], "")
        with pytest.raises(LogDatabaseError):
            store.extend_once([_session({0: 1})], None)

    def test_plain_extend_never_dedups(self, store):
        store.extend([_session({0: 1})])
        store.extend([_session({0: 1})])
        assert len(store) == 2


class TestFileStoreDurability:
    def test_token_commits_atomically_with_segment(self, tmp_path):
        store = FileLogStore(tmp_path / "log", num_images=20)
        store.extend_once([_session({0: 1})], "t1")
        manifest = load_json(tmp_path / "log" / "manifest.json")
        assert manifest["applied_tokens"] == ["t1"]
        assert len(manifest["segments"]) == 1

    def test_tokens_survive_reopen_and_compaction(self, tmp_path):
        store = FileLogStore(tmp_path / "log", num_images=20)
        store.extend_once([_session({0: 1})], "t1")
        store.extend([_session({1: 1})])
        store.compact()
        reopened = FileLogStore(tmp_path / "log")
        assert reopened.extend_once([_session({0: 1})], "t1") == []
        assert len(reopened) == 2

    def test_orphan_segment_is_overwritten_on_replay(self, tmp_path, monkeypatch):
        # Simulate a crash between segment write and manifest commit: the
        # segment exists but neither manifest entry nor token does.  The
        # replayed call must commit cleanly over the orphan.
        store = FileLogStore(tmp_path / "log", num_images=20)
        real_save = file_store.save_json

        def crash_at_commit(document, path):
            if path == store._manifest_path:
                raise OSError("simulated crash before the manifest commit")
            return real_save(document, path)

        monkeypatch.setattr(file_store, "save_json", crash_at_commit)
        with pytest.raises(OSError):
            store.extend_once([_session({0: 1})], "t1")
        monkeypatch.setattr(file_store, "save_json", real_save)
        assert len(list(store._segments_dir.glob("seg-*.json"))) == 1  # the orphan
        assert "applied_tokens" not in load_json(store._manifest_path)
        assert len(store) == 0
        stored = store.extend_once([_session({0: 1})], "t1")
        assert [s.session_id for s in stored] == [0]
        assert len(store) == 1
        assert store.scan()[0].judgements == {0: 1}

    def test_cross_process_visibility(self, tmp_path):
        writer = FileLogStore(tmp_path / "log", num_images=20)
        writer.extend_once([_session({0: 1})], "t1")
        other = FileLogStore(tmp_path / "log")  # a second "process"
        assert other.extend_once([_session({0: 1})], "t1") == []
        assert len(other) == 1

    def test_memory_store_tokens_survive_pickling(self):
        store = InMemoryLogStore(num_images=20)
        store.extend_once([_session({0: 1})], "t1")
        clone = pickle.loads(pickle.dumps(store))
        assert clone.extend_once([_session({0: 1})], "t1") == []


class TestLogDatabasePassthrough:
    def test_extend_once_via_log_database(self, small_dataset):
        """An ImageDatabase's ``log_database`` is the store itself, so the
        close protocol's token reaches the store's ledger unwrapped."""
        from repro.cbir.database import ImageDatabase

        store = InMemoryLogStore(num_images=small_dataset.num_images)
        database = ImageDatabase(small_dataset, log_database=store)
        assert database.log_database is store
        stored = database.log_database.extend_once([_session({0: 1})], "t1")
        assert len(stored) == 1
        assert database.log_database.extend_once([_session({0: 1})], "t1") == []
        assert len(store) == 1
