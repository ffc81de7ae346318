"""Tests for the pluggable LogStore backends (repro.logdb v2).

Covers the store protocol (with a stateful model check of the matrix,
snapshot and token contract on both backends), the crash-safe on-disk
segment store (including simulated crash windows and recovery), true
multi-process concurrent appends, and the acceptance property that a
service run over the file-backed store replays to a bit-identical relevance
matrix.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.exceptions import ConfigurationError, LogDatabaseError
from repro.logdb import (
    FileLogStore,
    InMemoryLogStore,
    LogSession,
    LogSimulationConfig,
    LogStore,
    RelevanceMatrix,
    collect_feedback_log,
)
from repro.utils.io import file_lock, load_json, save_json


def _session(judgements, query=None):
    return LogSession(judgements=judgements, query_index=query)


@pytest.fixture(params=["memory", "file"])
def any_store(request, tmp_path) -> LogStore:
    """One store instance per backend."""
    if request.param == "file":
        return FileLogStore(tmp_path / "log", num_images=9)
    return InMemoryLogStore(num_images=9)


class TestLogStoreProtocol:
    """Contract shared by every backend."""

    def test_append_assigns_sequential_ids(self, any_store):
        first = any_store.append(_session({0: 1}, query=3))
        second = any_store.append(_session({1: -1}))
        assert (first.session_id, second.session_id) == (0, 1)
        assert len(any_store) == 2

    def test_extend_is_one_batch(self, any_store):
        stored = any_store.extend([_session({0: 1}), _session({2: -1, 3: 1})])
        assert [s.session_id for s in stored] == [0, 1]
        assert len(any_store) == 2

    def test_scan_full_and_suffix(self, any_store):
        any_store.extend([_session({i: 1}) for i in range(5)])
        assert [s.session_id for s in any_store.scan()] == [0, 1, 2, 3, 4]
        suffix = any_store.scan(start=3)
        assert [s.session_id for s in suffix] == [3, 4]
        assert suffix[0].judgements == {3: 1}
        with pytest.raises(LogDatabaseError):
            any_store.scan(start=-1)

    def test_snapshot_is_immutable_tuple(self, any_store):
        """``snapshot()`` is an immutable capture: later appends leave it alone."""
        any_store.append(_session({0: 1}))
        snap = any_store.snapshot()
        any_store.append(_session({1: 1}))
        assert snap.version == 1 and snap.matrix.num_sessions == 1
        assert any_store.snapshot().version == 2

    def test_out_of_range_judgement_rejected_atomically(self, any_store):
        with pytest.raises(LogDatabaseError):
            any_store.extend([_session({0: 1}), _session({99: 1})])
        assert len(any_store) == 0  # nothing from the batch landed

    def test_round_trips_query_index_and_judgements(self, any_store):
        any_store.append(_session({4: -1, 2: 1}, query=7))
        session = any_store.scan()[0]
        assert session.query_index == 7
        assert session.judgements == {4: -1, 2: 1}

    def test_save_load_portable_export(self, any_store, tmp_path):
        any_store.extend([_session({0: 1}, query=2), _session({5: -1})])
        path = any_store.save(tmp_path / "export.json")
        loaded = LogStore.load(path)
        assert isinstance(loaded, InMemoryLogStore)
        assert len(loaded) == 2
        assert [s.judgements for s in loaded.scan()] == [{0: 1}, {5: -1}]
        assert loaded.scan()[0].query_index == 2

    def test_load_into_explicit_backend(self, any_store, tmp_path):
        any_store.append(_session({1: 1}))
        path = any_store.save(tmp_path / "export.json")
        destination = FileLogStore(tmp_path / "dst", num_images=9)
        loaded = LogStore.load(path, store=destination)
        assert loaded is destination
        assert len(loaded) == 1

    def test_scan_stop_bound(self, any_store):
        any_store.extend([_session({i: 1}) for i in range(5)])
        window = any_store.scan(start=1, stop=3)
        assert [s.session_id for s in window] == [1, 2]
        assert any_store.scan(start=2, stop=3)[0].judgements == {2: 1}

    def test_subclass_load_requires_explicit_store(self, any_store, tmp_path):
        """FileLogStore.load(path) must not silently hand back an
        in-memory store — backends needing constructor args demand store=."""
        any_store.append(_session({1: 1}))
        path = any_store.save(tmp_path / "export.json")
        with pytest.raises(LogDatabaseError):
            FileLogStore.load(path)

    def test_load_rejects_nonempty_destination(self, any_store, tmp_path):
        any_store.append(_session({1: 1}))
        path = any_store.save(tmp_path / "export.json")
        destination = InMemoryLogStore(num_images=9)
        destination.append(_session({0: 1}))
        with pytest.raises(LogDatabaseError):
            LogStore.load(path, store=destination)

    def test_compact_preserves_contents(self, any_store):
        any_store.extend([_session({i: 1}) for i in range(4)])
        before = [s.judgements for s in any_store.scan()]
        any_store.compact()
        assert [s.judgements for s in any_store.scan()] == before
        assert len(any_store) == 4

    def test_facade_over_any_backend(self, any_store):
        """Every backend keeps the relevance matrix and its snapshot itself."""
        any_store.append(_session({0: 1, 1: -1}))
        any_store.append(_session({1: 1}))
        matrix = any_store.relevance_matrix()
        assert matrix.shape == (2, 9)
        np.testing.assert_array_equal(matrix.log_vector(1), [-1.0, 1.0])
        assert any_store.snapshot().matrix is matrix
        assert any_store.store is any_store

    def test_append_accounting_on_the_hub(self, any_store):
        from repro import obs

        hub = obs.configure()
        try:
            any_store.extend([_session({0: 1}), _session({1: 1})])
            any_store.extend_once([_session({2: 1})], "t")
            any_store.extend_once([_session({2: 1})], "t")
            any_store.snapshot()
            snapshot = hub.metrics.snapshot()
        finally:
            obs.disable()
        assert snapshot["logdb.sessions_appended"]["value"] == 3
        assert snapshot["logdb.append_seconds"]["count"] == 3
        assert snapshot["logdb.matrix_rebuilds"]["value"] == 1


_MACHINE_IMAGES = 6
_judgements = st.dictionaries(
    st.integers(0, _MACHINE_IMAGES - 1), st.sampled_from([1, -1]), min_size=1, max_size=4
)


class _LogStoreMachine(RuleBasedStateMachine):
    """Model check of the contract the store took over from the façade.

    Invariants, after every step: ``snapshot().matrix`` is bit-equal to a
    from-scratch :meth:`RelevanceMatrix.from_sessions` build of ``scan()``;
    ``snapshot()`` returns the same object while ``len()`` is unchanged; the
    log holds exactly the model's sessions, so a token commits once.
    Mutations caught (each checked on a broken copy): growing the matrix
    from ``scan(start=cached + 1)``; an in-memory ``_commit`` that ignores
    the token; a ``_shared_snapshot`` that builds a new snapshot per call.
    """

    backend = "memory"

    def __init__(self) -> None:
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="logstore-machine-"))
        if self.backend == "file":
            self.store = FileLogStore(self.directory / "log", num_images=_MACHINE_IMAGES)
        else:
            self.store = InMemoryLogStore(num_images=_MACHINE_IMAGES)
        self.model = []  # the judgements of every committed session, in id order
        self.tokens = set()
        self.seen = None  # (len, snapshot) at the previous step

    def teardown(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)

    def _ids_of(self, count):
        return list(range(len(self.model), len(self.model) + count))

    @rule(batch=st.lists(_judgements, max_size=3))
    def extend(self, batch):
        stored = self.store.extend([_session(j) for j in batch])
        assert [s.session_id for s in stored] == self._ids_of(len(batch))
        self.model.extend(batch)

    @rule(batch=st.lists(_judgements, min_size=1, max_size=3),
          token=st.sampled_from(["t0", "t1", "t2"]))
    def extend_once(self, batch, token):
        stored = self.store.extend_once([_session(j) for j in batch], token)
        if token in self.tokens:
            assert stored == []
        else:
            assert [s.session_id for s in stored] == self._ids_of(len(batch))
            self.model.extend(batch)
            self.tokens.add(token)
        assert self.store.has_token(token)

    @rule()
    def compact(self):
        self.store.compact()

    @rule()
    def snapshot(self):
        assert self.store.snapshot().version == len(self.model)

    @invariant()
    def matrix_is_a_from_scratch_build(self):
        sessions = self.store.scan()
        assert [s.judgements for s in sessions] == self.model
        got = self.store.snapshot().matrix.tocsr()
        want = RelevanceMatrix.from_sessions(sessions, num_images=_MACHINE_IMAGES).tocsr()
        assert got.shape == want.shape
        for a, b in ((got.data, want.data), (got.indices, want.indices),
                     (got.indptr, want.indptr)):
            np.testing.assert_array_equal(a, b)

    @invariant()
    def one_snapshot_per_version(self):
        snapshot = self.store.snapshot()
        if self.seen is not None and self.seen[0] == len(self.store):
            assert snapshot is self.seen[1]
        self.seen = (len(self.store), snapshot)


class _FileLogStoreMachine(_LogStoreMachine):
    backend = "file"


_MACHINE_SETTINGS = settings(max_examples=25, stateful_step_count=12, deadline=None)
TestLogStoreMachineInMemory = _LogStoreMachine.TestCase
TestLogStoreMachineInMemory.settings = _MACHINE_SETTINGS
TestLogStoreMachineOnFile = _FileLogStoreMachine.TestCase
TestLogStoreMachineOnFile.settings = _MACHINE_SETTINGS


class TestFileLogStore:
    def test_reopen_sees_committed_sessions(self, tmp_path):
        store = FileLogStore(tmp_path / "log", num_images=6)
        store.extend([_session({0: 1}), _session({1: -1})])
        reopened = FileLogStore(tmp_path / "log")
        assert reopened.num_images == 6
        assert len(reopened) == 2
        assert [s.session_id for s in reopened.scan()] == [0, 1]

    def test_creation_requires_num_images(self, tmp_path):
        with pytest.raises(LogDatabaseError):
            FileLogStore(tmp_path / "log")

    def test_reopen_validates_num_images(self, tmp_path):
        FileLogStore(tmp_path / "log", num_images=6)
        with pytest.raises(LogDatabaseError):
            FileLogStore(tmp_path / "log", num_images=7)

    @pytest.mark.parametrize("bad", [0, -1, 2.5])
    def test_refused_create_leaves_no_manifest(self, tmp_path, bad):
        # Mutation caught: validating num_images after the manifest write
        # (as the base class used to) leaves a manifest that covers 0
        # images, and the valid re-open below fails.
        with pytest.raises(LogDatabaseError):
            FileLogStore(tmp_path / "log", num_images=bad)
        assert not (tmp_path / "log" / "manifest.json").exists()
        store = FileLogStore(tmp_path / "log", num_images=5)
        assert store.num_images == 5 and len(store) == 0

    def test_pickle_and_fork_safety(self, tmp_path):
        store = FileLogStore(tmp_path / "log", num_images=6)
        store.append(_session({0: 1}))
        clone = pickle.loads(pickle.dumps(store))
        clone.append(_session({1: 1}))
        assert len(store) == 2  # same directory, same committed state

    def test_orphan_segment_is_cleanly_ignored(self, tmp_path):
        """A crash between the segment write and the manifest commit."""
        store = FileLogStore(tmp_path / "log", num_images=6)
        store.extend([_session({0: 1})])
        # Simulate the crash window: a fully-written segment that no
        # manifest names (the writer died before its commit rename).
        orphan = store._segments_dir / store._segment_name(0, 1)
        save_json(
            {"first_id": 1, "count": 1, "sessions": [
                {"judgements": [[5, 1]], "query_index": None}]},
            orphan,
        )
        reopened = FileLogStore(tmp_path / "log")
        assert len(reopened) == 1  # the orphan is invisible
        assert [s.judgements for s in reopened.scan()] == [{0: 1}]

    def test_orphan_is_recovered_by_next_append(self, tmp_path):
        """The next committed batch atomically replaces the orphan's name."""
        store = FileLogStore(tmp_path / "log", num_images=6)
        store.extend([_session({0: 1})])
        orphan = store._segments_dir / store._segment_name(0, 1)
        save_json(
            {"first_id": 1, "count": 1, "sessions": [
                {"judgements": [[5, 1]], "query_index": None}]},
            orphan,
        )
        store.append(_session({3: -1}))  # mints id 1 again → same file name
        assert [s.judgements for s in store.scan()] == [{0: 1}, {3: -1}]
        # The orphaned payload is gone — replaced, not resurrected.
        assert load_json(orphan)["sessions"][0]["judgements"] == [[3, -1]]

    def test_compact_merges_and_removes_orphans(self, tmp_path):
        store = FileLogStore(tmp_path / "log", num_images=6)
        for i in range(4):
            store.append(_session({i: 1}))
        orphan = store._segments_dir / store._segment_name(0, 99)
        save_json({"first_id": 99, "count": 1, "sessions": []}, orphan)
        assert len(list(store._segments_dir.glob("seg-*.json"))) == 5
        removed = store.compact()
        assert removed == 5  # four superseded segments + one orphan
        assert len(list(store._segments_dir.glob("seg-*.json"))) == 1
        assert [s.judgements for s in store.scan()] == [{i: 1} for i in range(4)]
        store.append(_session({5: 1}))  # appends keep working post-compact
        assert len(store) == 5

    def test_crash_mid_segment_write_leaves_no_trace(self, tmp_path, monkeypatch):
        """A writer dying inside the segment save commits nothing."""
        store = FileLogStore(tmp_path / "log", num_images=6)
        store.append(_session({0: 1}))

        import repro.logdb.file_store as module

        real_save_json = module.save_json
        calls = {"n": 0}

        def exploding_save_json(document, path):
            calls["n"] += 1
            if calls["n"] == 1:  # the segment write (manifest comes second)
                raise OSError("simulated crash mid-write")
            return real_save_json(document, path)

        monkeypatch.setattr(module, "save_json", exploding_save_json)
        with pytest.raises(OSError):
            store.append(_session({1: 1}))
        monkeypatch.undo()
        assert len(store) == 1
        assert len(FileLogStore(tmp_path / "log").scan()) == 1
        # The store is not wedged: the lock was released, appends resume.
        store.append(_session({2: 1}))
        assert len(store) == 2


def _ship_sessions(directory: str, worker: int, count: int) -> None:
    """Subprocess body: append `count` marker sessions through the store."""
    store = FileLogStore(directory)
    for i in range(count):
        store.append(
            LogSession(judgements={worker: 1, 2 + i % 3: -1}, query_index=worker)
        )


class TestCrossProcessShipping:
    def test_two_processes_lose_and_duplicate_nothing(self, tmp_path):
        """Acceptance: concurrent appends from two OS processes are exact."""
        directory = tmp_path / "shared-log"
        FileLogStore(directory, num_images=8)
        count = 40
        workers = [
            multiprocessing.Process(
                target=_ship_sessions, args=(str(directory), worker, count)
            )
            for worker in (0, 1)
        ]
        for process in workers:
            process.start()
        for process in workers:
            process.join(timeout=120)
            assert process.exitcode == 0

        store = FileLogStore(directory)
        sessions = store.scan()
        assert len(sessions) == 2 * count
        # Gapless, race-free id assignment.
        assert [s.session_id for s in sessions] == list(range(2 * count))
        # Every worker's sessions all arrived, exactly once, in its order.
        for worker in (0, 1):
            shipped = [s for s in sessions if s.query_index == worker]
            assert len(shipped) == count
        # The store's incremental matrix over the shared directory is exact.
        matrix = store.relevance_matrix()
        rebuilt = RelevanceMatrix.from_sessions(sessions, num_images=8)
        np.testing.assert_array_equal(matrix.toarray(), rebuilt.toarray())

    def test_file_lock_excludes_across_processes(self, tmp_path):
        """The lock primitive itself: a child blocks while the parent holds."""
        lock_path = tmp_path / "test.lock"
        started = multiprocessing.Event()
        release_observed = multiprocessing.Value("d", 0.0)

        def contender():
            import time as _time

            started.set()
            with file_lock(lock_path):
                release_observed.value = _time.monotonic()

        child = multiprocessing.Process(target=contender)
        import time

        with file_lock(lock_path):
            child.start()
            started.wait(timeout=30)
            time.sleep(0.3)
            released_at = time.monotonic()
        child.join(timeout=30)
        assert child.exitcode == 0
        # The child could only enter after the parent released.
        assert release_observed.value >= released_at - 0.02


class TestSimulationAndServiceIntegration:
    def test_collect_feedback_log_writes_through_store(self, small_dataset, tmp_path):
        config = LogSimulationConfig(num_sessions=8, images_per_session=5, seed=4)
        store = FileLogStore(tmp_path / "log", num_images=small_dataset.num_images)
        log = collect_feedback_log(small_dataset, config, store=store)
        assert log is store
        assert len(log) == 8
        # Same campaign through the default in-memory path is bit-identical.
        in_memory = collect_feedback_log(small_dataset, config)
        np.testing.assert_array_equal(
            log.relevance_matrix().toarray(),
            in_memory.relevance_matrix().toarray(),
        )

    def test_collect_feedback_log_rejects_nonempty_store(self, small_dataset):
        store = InMemoryLogStore(num_images=small_dataset.num_images)
        store.append(_session({0: 1}))
        with pytest.raises(ConfigurationError):
            collect_feedback_log(small_dataset, store=store)

    def test_per_round_service_over_file_store_replays_bit_identically(
        self, small_dataset, tmp_path
    ):
        """Acceptance: per_round logging through the new store == in-memory."""
        from repro.cbir.database import ImageDatabase
        from repro.service import RetrievalService

        def run(log_database):
            database = ImageDatabase(small_dataset, log_database=log_database)
            service = RetrievalService(
                database, default_algorithm="rf-svm", log_policy="per_round"
            )
            for query in (0, 13, 25):
                initial = service.open_session(query, top_k=10)
                judgements = {
                    int(i): (
                        1
                        if small_dataset.category_of(int(i))
                        == small_dataset.category_of(query)
                        else -1
                    )
                    for i in initial.image_indices
                }
                service.submit_feedback(initial.session_id, judgements)
                service.close_session(initial.session_id)
            return database.log_database

        file_log = run(
            FileLogStore(tmp_path / "svc-log", num_images=small_dataset.num_images)
        )
        memory_log = run(InMemoryLogStore(small_dataset.num_images))

        assert len(file_log) == len(memory_log) > 0
        replayed = RelevanceMatrix.from_sessions(
            file_log.scan(), num_images=small_dataset.num_images
        )
        reference = memory_log.relevance_matrix()
        np.testing.assert_array_equal(replayed.toarray(), reference.toarray())
        a, b = replayed.tocsr(), reference.tocsr()
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.indptr, b.indptr)


class TestFileSessionStoreOrphanSweep:
    """Satellite: TTL eviction also sweeps crash-orphaned array bundles."""

    def test_orphan_bundle_swept_after_ttl(self, tmp_path):
        import time

        from repro.service.store import FileSessionStore
        from repro.utils.io import save_array_bundle

        store = FileSessionStore(tmp_path / "sessions", ttl=10.0)
        # A crash between the npz write and the JSON commit record.  The
        # sweep's age guard runs on wall-clock time (mtimes are wall-clock,
        # the injectable service clock is not), so backdate via utime.
        orphan = store.directory / "crashed.npz"
        save_array_bundle({"x": np.arange(3)}, orphan)
        stale = time.time() - 11.0
        os.utime(orphan, (stale, stale))
        # A *fresh* orphan (a live put mid-rename) must be left alone.
        fresh = store.directory / "inflight.npz"
        save_array_bundle({"x": np.arange(3)}, fresh)

        store.evict_expired(now=1000.0)  # fake service clock — irrelevant here
        assert not orphan.exists()
        assert fresh.exists()

    def test_committed_bundles_survive_the_sweep(self, tmp_path):
        from repro.cbir.query import Query
        from repro.service.state import SessionState
        from repro.service.store import FileSessionStore

        store = FileSessionStore(tmp_path / "sessions", ttl=10.0)
        state = SessionState(
            session_id="alive", query=Query(query_index=0), last_active=995.0
        )
        store.put(state)
        os.utime(store.directory / "alive.npz", (0.0, 0.0))  # ancient mtime
        store.evict_expired(1000.0)
        # The session is not expired (last_active fresh), so neither file
        # moves — the sweep keys off the JSON commit record, not mtime.
        assert (store.directory / "alive.npz").exists()
        assert store.get("alive").session_id == "alive"

    def test_no_sweep_without_ttl(self, tmp_path):
        from repro.service.store import FileSessionStore
        from repro.utils.io import save_array_bundle

        store = FileSessionStore(tmp_path / "sessions")
        orphan = store.directory / "crashed.npz"
        save_array_bundle({"x": np.arange(3)}, orphan)
        os.utime(orphan, (0.0, 0.0))
        store.evict_expired(now=1000.0)
        assert orphan.exists()  # eviction (and the sweep) are TTL-gated
