"""Tests for the user-feedback log subsystem (repro.logdb)."""

from __future__ import annotations

import copy
import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, LogDatabaseError
from repro.logdb import FileLogStore, InMemoryLogStore
from repro.logdb.relevance_matrix import RelevanceMatrix
from repro.logdb.session import LogSession
from repro.logdb.simulation import (
    LogSimulationConfig,
    SimulatedUser,
    collect_feedback_log,
)


class TestLogSession:
    def test_basic_properties(self):
        session = LogSession(judgements={0: 1, 3: -1, 7: 1}, query_index=0)
        assert len(session) == 3
        assert session.positive_indices == (0, 7)
        assert session.negative_indices == (3,)
        assert session.num_positive == 2
        assert session.num_negative == 1

    def test_as_arrays_sorted(self):
        session = LogSession(judgements={5: -1, 1: 1})
        indices, values = session.as_arrays()
        np.testing.assert_array_equal(indices, [1, 5])
        np.testing.assert_array_equal(values, [1, -1])

    def test_invalid_judgement_value(self):
        with pytest.raises(LogDatabaseError):
            LogSession(judgements={0: 2})

    def test_negative_image_index(self):
        with pytest.raises(LogDatabaseError):
            LogSession(judgements={-1: 1})

    def test_empty_session_rejected(self):
        with pytest.raises(LogDatabaseError):
            LogSession(judgements={})

    @pytest.mark.parametrize(
        "judgements, query_index",
        [
            ({0: 1.9}, None),  # a float judgement is not truncated to +1
            ({2.7: 1}, None),  # a float index is not truncated to image 2
            ({0: "1"}, None),
            ({0: 1}, 3.0),
            ({0: 1}, -1),  # query_index must be non-negative
        ],
    )
    def test_non_integer_input_is_rejected_not_truncated(self, judgements, query_index):
        # Mutation caught: int() in place of operator.index truncates the
        # first three rows (in __post_init__) or the fourth (in _integer).
        with pytest.raises(LogDatabaseError):
            LogSession(judgements=judgements, query_index=query_index)

    def test_numpy_integers_are_accepted_as_python_ints(self):
        session = LogSession(
            judgements={np.int64(4): np.int8(-1)}, query_index=np.int32(2)
        )
        assert session.judgements == {4: -1}
        assert type(session.query_index) is int and session.query_index == 2

    def test_with_session_id(self):
        session = LogSession(judgements={0: 1}).with_session_id(42)
        assert session.session_id == 42
        # The tagged copy skips the second cleaning pass; it must still equal
        # a fresh session, and shares the original's read-only judgements.
        original = LogSession(judgements={np.int64(4): 1, 0: -1}, query_index=2)
        tagged = original.with_session_id(np.int64(7))
        assert tagged == LogSession(judgements={4: 1, 0: -1}, query_index=2, session_id=7)
        assert type(tagged.session_id) is int
        assert tagged.judgements is original.judgements
        assert list(tagged.judgements) == [4, 0]  # insertion order kept
        with pytest.raises(LogDatabaseError):
            LogSession(judgements={4: 1, 0: 2}, query_index=2, session_id=7)

    def test_judgements_are_read_only(self):
        # Mutation caught: keeping the cleaned plain dict in __post_init__
        # (``judgements=cleaned``), which let ``s.judgements[1] = 7`` reach
        # the log unchecked as a judgement of 7.
        session = LogSession(judgements={0: 1, 3: -1}, query_index=2)
        mutations = (
            lambda j: j.__setitem__(1, 7),
            lambda j: j.__delitem__(0),
            lambda j: j.update({1: 1}),
            lambda j: j.clear(),
        )
        for mutate in mutations:
            with pytest.raises((TypeError, AttributeError)):
                mutate(session.judgements)
        assert session.judgements == {0: 1, 3: -1}
        store = InMemoryLogStore(4)
        store.append(session)
        np.testing.assert_array_equal(store.relevance_matrix().toarray(), [[1, 0, 0, -1]])
        for copied in (pickle.loads(pickle.dumps(session)), session.with_session_id(0)):
            assert copied.judgements == session.judgements
            assert copied == LogSession({0: 1, 3: -1}, query_index=2, session_id=copied.session_id)
        with pytest.raises(TypeError):
            pickle.loads(pickle.dumps(session)).judgements[1] = 1


class TestRelevanceMatrix:
    def _sessions(self):
        return [
            LogSession(judgements={0: 1, 1: -1}),
            LogSession(judgements={1: 1, 2: 1, 3: -1}),
        ]

    def test_shape_and_counts(self):
        matrix = RelevanceMatrix.from_sessions(self._sessions(), num_images=5)
        assert matrix.shape == (2, 5)
        assert matrix.nnz == 5

    def test_dense_round_trip(self):
        matrix = RelevanceMatrix.from_sessions(self._sessions(), num_images=5)
        dense = matrix.toarray()
        expected = np.array(
            [[1, -1, 0, 0, 0], [0, 1, 1, -1, 0]], dtype=float
        )
        np.testing.assert_array_equal(dense, expected)

    def test_log_vector_is_column(self):
        matrix = RelevanceMatrix.from_sessions(self._sessions(), num_images=5)
        np.testing.assert_array_equal(matrix.log_vectors([1])[0], [-1.0, 1.0])

    def test_log_vectors_are_rows_per_image(self):
        matrix = RelevanceMatrix.from_sessions(self._sessions(), num_images=5)
        vectors = matrix.log_vectors([0, 1])
        assert vectors.shape == (2, 2)
        np.testing.assert_array_equal(vectors[0], [1.0, 0.0])
        np.testing.assert_array_equal(vectors[1], [-1.0, 1.0])

    def test_out_of_range_image_rejected(self):
        with pytest.raises(LogDatabaseError):
            RelevanceMatrix.from_sessions(self._sessions(), num_images=2)

    def test_empty_matrix(self):
        matrix = RelevanceMatrix.empty(num_images=4)
        assert matrix.num_sessions == 0
        assert matrix.log_vectors([0, 3]).shape == (2, 0)
        assert matrix.toarray().shape == (0, 4)

    def test_append_session(self):
        matrix = RelevanceMatrix.empty(num_images=4)
        extended = matrix.append_sessions([LogSession(judgements={2: 1})])
        assert extended.num_sessions == 1
        assert matrix.num_sessions == 0  # original is immutable
        np.testing.assert_array_equal(extended.log_vectors([2])[0], [1.0])

    @given(
        st.lists(
            st.dictionaries(
                st.integers(0, 9),
                st.sampled_from([1, -1]),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, judgement_dicts):
        sessions = [LogSession(judgements=d) for d in judgement_dicts]
        matrix = RelevanceMatrix.from_sessions(sessions, num_images=10)
        dense = matrix.toarray()
        for row, session in enumerate(sessions):
            for image, value in session.judgements.items():
                assert dense[row, image] == value
        # Entries not judged are zero.
        assert matrix.nnz == sum(len(s) for s in sessions)


def _record(log, judgements, query_index=None):
    """Append one session built from *judgements* to *log*."""
    return log.append(LogSession(judgements=judgements, query_index=query_index))


class TestLogDatabase:
    """The relevance matrix ``R`` every log store maintains."""

    def test_record_and_matrix(self):
        log = InMemoryLogStore(num_images=6)
        _record(log, {0: 1, 2: -1}, query_index=0)
        _record(log, {2: 1, 3: 1})
        assert len(log) == 2
        assert log.relevance_matrix().shape == (2, 6)
        assert [s.session_id for s in log.scan()] == [0, 1]

    def test_cache_invalidation_on_record(self):
        log = InMemoryLogStore(num_images=4)
        _record(log, {0: 1})
        first = log.relevance_matrix()
        _record(log, {1: -1})
        second = log.relevance_matrix()
        assert first.num_sessions == 1
        assert second.num_sessions == 2

    def test_out_of_range_session_rejected(self):
        log = InMemoryLogStore(num_images=3)
        with pytest.raises(LogDatabaseError):
            _record(log, {5: 1})

    def test_empty_log_vectors(self):
        log = InMemoryLogStore(num_images=3)
        assert len(log) == 0 and log.snapshot().is_empty
        assert log.snapshot().log_vectors([0, 1, 2]).shape == (3, 0)
        assert log.snapshot().log_rows().shape == (3, 0)

    def test_statistics(self):
        log = InMemoryLogStore(num_images=5)
        _record(log, {0: 1, 1: -1, 2: -1})
        matrix = log.snapshot().matrix
        assert matrix.num_sessions == 1
        assert matrix.num_positive == 1
        assert matrix.num_negative == 2
        assert matrix.nnz == 3

    def test_judged_image_indices(self):
        log = InMemoryLogStore(num_images=5)
        _record(log, {1: 1, 4: -1})
        judged = np.flatnonzero(log.snapshot().log_rows().getnnz(axis=1))
        np.testing.assert_array_equal(judged, [1, 4])

    def test_session_lookup_bounds(self):
        log = InMemoryLogStore(num_images=3)
        _record(log, {0: 1})
        assert log.scan(0, 1)[0].num_positive == 1
        assert log.scan(1, 2) == []
        with pytest.raises(LogDatabaseError):
            log.scan(-1)

    def test_invalid_num_images(self):
        # Mutation caught: dropping the operator.index check in
        # _check_num_images truncates 2.5 to 2 and accepts it.
        for bad in (0, -3, 2.5, "4", None):
            with pytest.raises(LogDatabaseError):
                InMemoryLogStore(num_images=bad)

    def test_incremental_matrix_matches_full_rebuild(self):
        log = InMemoryLogStore(num_images=12)
        rng = np.random.default_rng(7)
        for _ in range(25):
            judged = {
                int(i): int(rng.choice([-1, 1]))
                for i in rng.choice(12, size=4, replace=False)
            }
            _record(log, judged)
            incremental = log.relevance_matrix()  # grows the cache by one row
            rebuilt = RelevanceMatrix.from_sessions(log.scan(), num_images=12)
            np.testing.assert_array_equal(incremental.toarray(), rebuilt.toarray())
        # Bit-identical CSR internals, not just equal dense values.
        a, b = incremental.tocsr(), rebuilt.tocsr()
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.indptr, b.indptr)


def _memory_log(tmp_path, num_images):
    return InMemoryLogStore(num_images=num_images)


def _file_log(tmp_path, num_images):
    return FileLogStore(tmp_path / "log", num_images=num_images)


class TestLogDatabaseConcurrency:
    """Copy/pickle and snapshots under concurrent appends (in-memory log;
    :class:`TestFileLogConcurrency` reruns every test on the file store)."""

    new_log = staticmethod(_memory_log)
    #: An in-memory copy is a detached, frozen prefix; a file-store copy is
    #: another handle on the same directory.
    detached_copies = True

    def _append_burst(self, log, *, bursts=60, stop):
        rng = np.random.default_rng(11)
        for _ in range(bursts):
            if stop.is_set():
                break
            _record(log, {int(rng.integers(0, log.num_images)): 1})

    def test_copy_and_pickle_under_concurrent_appends(self, tmp_path):
        # Mutation caught: a LogStore.__getstate__ that keeps the cache
        # lock (an RLock cannot be copied or pickled).
        log = self.new_log(tmp_path, 16)
        stop = threading.Event()
        writers = [
            threading.Thread(target=self._append_burst, args=(log,), kwargs={"stop": stop})
            for _ in range(4)
        ]
        for w in writers:
            w.start()
        try:
            for _ in range(20):
                log.relevance_matrix()  # the original's cache is warm
                for clone in (copy.deepcopy(log), pickle.loads(pickle.dumps(log))):
                    # A clone's matrix is a consistent prefix of its log,
                    # and ids are a gapless 0..n-1 run.
                    matrix = clone.relevance_matrix()
                    sessions = clone.scan(stop=matrix.num_sessions)
                    assert matrix.num_sessions == len(sessions)
                    if self.detached_copies:
                        assert len(clone.scan()) == len(sessions)
                    assert [s.session_id for s in sessions] == list(range(len(sessions)))
                    rebuilt = RelevanceMatrix.from_sessions(
                        sessions, num_images=clone.num_images
                    )
                    np.testing.assert_array_equal(matrix.toarray(), rebuilt.toarray())
        finally:
            stop.set()
            for w in writers:
                w.join()
        # In-memory clones are detached: appending to the original never
        # leaks in.  A file-store clone reads the shared directory.
        clone = copy.deepcopy(log)
        count = len(clone)
        _record(log, {0: 1})
        assert len(clone) == (count if self.detached_copies else count + 1)

    def test_snapshot_isolation_under_append_burst(self, tmp_path):
        log = self.new_log(tmp_path, 10)
        _record(log, {1: 1, 2: -1})
        everything = np.arange(10)
        snapshot = log.snapshot()
        frozen = snapshot.log_vectors(everything)
        frozen_rows = snapshot.log_rows().toarray()
        frozen_csr = snapshot.log_csr().toarray()
        version = snapshot.version

        stop = threading.Event()
        writers = [
            threading.Thread(target=self._append_burst, args=(log,), kwargs={"stop": stop})
            for _ in range(4)
        ]
        for w in writers:
            w.start()
        try:
            for _ in range(50):
                # Mid-burst, the snapshot never changes length or contents,
                # through any of its accessors.
                assert snapshot.version == version
                assert snapshot.log_vectors(everything).shape == frozen.shape
                np.testing.assert_array_equal(snapshot.log_vectors(everything), frozen)
                np.testing.assert_array_equal(snapshot.log_rows().toarray(), frozen_rows)
                np.testing.assert_array_equal(snapshot.log_csr().toarray(), frozen_csr)
        finally:
            stop.set()
            for w in writers:
                w.join()
        # A fresh snapshot sees the appends; versions are totally ordered
        # and the old snapshot is the prefix of the new one.
        later = log.snapshot()
        assert later is not snapshot
        assert later.version > version
        np.testing.assert_array_equal(
            later.log_vectors(everything)[:, :version], frozen
        )
        np.testing.assert_array_equal(
            later.log_rows()[:, :version].toarray(), frozen_rows
        )

    def test_snapshot_sparse_views_are_read_only(self, tmp_path):
        log = self.new_log(tmp_path, 4)
        _record(log, {0: 1})
        snapshot = log.snapshot()
        for view in (snapshot.log_rows(), snapshot.log_csr()):
            for buffer in (view.data, view.indices, view.indptr):
                with pytest.raises(ValueError):
                    buffer[0] = 5
        # Slices of a shared view, and the dense blocks, are ordinary
        # writable copies that never write through.
        sliced = snapshot.log_rows()[[0, 1]]
        sliced.data[0] = 5.0
        block = snapshot.log_vectors([0, 1])
        block[0, 0] = 5.0
        np.testing.assert_array_equal(snapshot.log_vectors([0, 1]), [[1.0], [0.0]])


class TestFileLogConcurrency(TestLogDatabaseConcurrency):
    """:class:`TestLogDatabaseConcurrency` on the file store, the backend
    cluster workers pickle and fork."""

    new_log = staticmethod(_file_log)
    detached_copies = False


class TestSharedSnapshot:
    """One snapshot object per log version; sparse accessor edges (in-memory
    log; :class:`TestFileSharedSnapshot` reruns every test on the file store)."""

    new_log = staticmethod(_memory_log)

    def _log(self, tmp_path, num_images=6):
        log = self.new_log(tmp_path, num_images)
        _record(log, {0: 1, 2: -1})
        _record(log, {2: 1, 5: 1})
        return log

    def test_same_object_while_version_unchanged(self, tmp_path):
        # Mutation caught: building a new LogSnapshot on every call of
        # _shared_snapshot breaks the identity below.
        log = self._log(tmp_path)
        first = log.snapshot()
        assert log.snapshot() is first
        assert first.matrix is log.relevance_matrix()
        assert first.log_rows() is log.snapshot().log_rows()
        assert first.log_csr() is log.snapshot().log_csr()

    def test_new_object_after_append_and_old_one_frozen(self, tmp_path):
        log = self._log(tmp_path)
        old = log.snapshot()
        old_rows = old.log_rows()
        before = old_rows.toarray()
        _record(log, {1: 1})
        new = log.snapshot()
        assert new is not old
        assert (old.version, new.version) == (2, 3)
        assert old.log_rows() is old_rows
        np.testing.assert_array_equal(old_rows.toarray(), before)
        assert new.log_rows().shape == (6, 3)
        assert log.snapshot() is new

    def test_append_through_second_file_handle_yields_new_snapshot(self, tmp_path):
        log = FileLogStore(tmp_path / "shared", num_images=6)
        _record(log, {0: 1})
        old = log.snapshot()
        assert log.snapshot() is old
        # Another handle (another process, in production) lands a session.
        FileLogStore(tmp_path / "shared", num_images=6).append(
            LogSession(judgements={3: -1})
        )
        new = log.snapshot()
        assert new is not old and new.version == 2
        np.testing.assert_array_equal(new.log_vectors([3]), [[0.0, -1.0]])
        np.testing.assert_array_equal(old.log_vectors([3]), [[0.0]])

    def test_shared_across_threads_with_one_build(self, tmp_path, monkeypatch):
        import sys

        log = self._log(tmp_path)
        builds = []
        original = RelevanceMatrix.tocsr

        def counting_tocsr(self):
            builds.append(threading.get_ident())
            return original(self)

        monkeypatch.setattr(RelevanceMatrix, "tocsr", counting_tocsr)
        barrier = threading.Barrier(8)
        seen = []

        def reader():
            barrier.wait(timeout=10)
            snapshot = log.snapshot()
            seen.append((snapshot, snapshot.log_rows()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == 8
        assert len({id(snapshot) for snapshot, _ in seen}) == 1
        assert len({id(rows) for _, rows in seen}) == 1
        assert len(builds) == 1

    def test_copied_and_pickled_logs_carry_no_snapshot(self, tmp_path):
        # Mutation caught: a LogStore.__getstate__ that keeps the snapshot
        # cache fails the `is None` checks.
        log = self._log(tmp_path)
        original = log.snapshot()
        for clone in (copy.deepcopy(log), pickle.loads(pickle.dumps(log))):
            assert clone._snapshot_cache is None
            assert clone._matrix_cache is None
            snapshot = clone.snapshot()
            assert snapshot is not original
            assert snapshot.matrix is not original.matrix
            np.testing.assert_array_equal(
                snapshot.log_rows().toarray(), original.log_rows().toarray()
            )
        assert log.snapshot() is original

    def test_derived_values_are_built_once_per_snapshot(self, tmp_path):
        log = self._log(tmp_path)
        snapshot = log.snapshot()
        calls = []

        def build():
            calls.append(1)
            return object()

        value = snapshot.derived(("test", 1), build)
        assert snapshot.derived(("test", 1), build) is value
        assert snapshot.derived(("test", 2), build) is not value
        assert len(calls) == 2
        # A derived value may itself be built from the snapshot's views.
        assert snapshot.derived("nnz", lambda: snapshot.log_rows().nnz) == 4
        _record(log, {1: 1})
        assert log.snapshot().derived(("test", 1), build) is not value

    @pytest.mark.parametrize("bad", [[6], [-1], [0, 99], [2, -3]])
    def test_out_of_range_indices_rejected(self, tmp_path, bad):
        log = self._log(tmp_path)
        with pytest.raises(LogDatabaseError):
            log.snapshot().log_vectors(bad)
        with pytest.raises(LogDatabaseError):
            log.relevance_matrix().log_vectors(bad)

    def test_duplicate_and_unsorted_indices_keep_their_order(self, tmp_path):
        log = self._log(tmp_path)
        dense = log.relevance_matrix().toarray().T
        order = [5, 2, 2, 0, 4]
        block = log.snapshot().log_vectors(order)
        assert block.flags["C_CONTIGUOUS"] and block.flags["WRITEABLE"]
        np.testing.assert_array_equal(block, dense[order])
        np.testing.assert_array_equal(
            log.snapshot().log_rows()[order].toarray(), dense[order]
        )
        assert log.snapshot().log_vectors([]).shape == (0, 2)

    def test_indices_are_required(self, tmp_path):
        log = self._log(tmp_path)
        for accessor in (log.snapshot().log_vectors, log.relevance_matrix().log_vectors):
            with pytest.raises(TypeError):
                accessor()


class TestFileSharedSnapshot(TestSharedSnapshot):
    """:class:`TestSharedSnapshot` on the file store."""

    new_log = staticmethod(_file_log)


class TestSimulatedUser:
    def test_noise_free_judgements_match_ground_truth(self, small_dataset):
        user = SimulatedUser(small_dataset, noise_rate=0.0, random_state=0)
        query = 0
        indices = list(range(10))
        judgements = user.judge(query, indices)
        for index, value in judgements.items():
            expected = 1 if small_dataset.category_of(index) == small_dataset.category_of(query) else -1
            assert value == expected

    def test_full_noise_flips_everything(self, small_dataset):
        clean = SimulatedUser(small_dataset, noise_rate=0.0, random_state=1)
        noisy = SimulatedUser(small_dataset, noise_rate=1.0, random_state=1)
        indices = list(range(8))
        for index in indices:
            assert clean.judge(0, [index])[index] == -noisy.judge(0, [index])[index]

    def test_feedback_session_records_query(self, small_dataset):
        user = SimulatedUser(small_dataset, noise_rate=0.0)
        session = user.feedback_session(3, [0, 1, 2])
        assert session.query_index == 3
        assert len(session) == 3


class TestCollectFeedbackLog:
    def test_session_count_and_size(self, small_dataset):
        config = LogSimulationConfig(num_sessions=12, images_per_session=8, seed=2)
        log = collect_feedback_log(small_dataset, config)
        assert len(log) == 12
        assert all(len(session) == 8 for session in log.scan())

    def test_zero_sessions(self, small_dataset):
        config = LogSimulationConfig(num_sessions=0)
        log = collect_feedback_log(small_dataset, config)
        assert len(log) == 0

    def test_deterministic_with_seed(self, small_dataset):
        config = LogSimulationConfig(num_sessions=6, images_per_session=5, seed=11)
        first = collect_feedback_log(small_dataset, config).relevance_matrix().toarray()
        second = collect_feedback_log(small_dataset, config).relevance_matrix().toarray()
        np.testing.assert_array_equal(first, second)

    def test_requires_features(self, small_dataset):
        stripped = small_dataset.subset(range(small_dataset.num_images))
        stripped.features = None
        with pytest.raises(ConfigurationError):
            collect_feedback_log(stripped, LogSimulationConfig(num_sessions=2))

    def test_rounds_do_not_rejudge_images(self, small_dataset):
        config = LogSimulationConfig(
            num_sessions=4, images_per_session=6, rounds_per_query=2, seed=5
        )
        log = collect_feedback_log(small_dataset, config)
        # Sessions for the same query (consecutive pairs) never overlap.
        sessions = log.scan()
        for first, second in zip(sessions[0::2], sessions[1::2]):
            if first.query_index == second.query_index:
                assert not set(first.image_indices) & set(second.image_indices)

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            LogSimulationConfig(num_sessions=-1)
        with pytest.raises(ConfigurationError):
            LogSimulationConfig(images_per_session=0)
        with pytest.raises(ConfigurationError):
            LogSimulationConfig(rounds_per_query=0)
        with pytest.raises(Exception):
            LogSimulationConfig(noise_rate=1.5)
