"""Concurrency tests: parallel serving, thread-safe stores, atomic writes.

The headline stress test drives one shared :class:`RetrievalService` (one
store, one log database) from many threads with interleaved
open / feedback / close traffic and asserts the PR's guarantees:

* no lost or duplicated log records,
* no duplicate session ids,
* every session's per-round rankings bit-identical to a serial replay.

The rest of the module pins the individual mechanisms: striped locks,
atomic crash-safe ``FileSessionStore`` writes, and wave ≡ per-call serving
bit-identity.
"""

from __future__ import annotations

import contextlib
import json
import threading
from collections import Counter

import numpy as np
import pytest

from repro.cbir.database import ImageDatabase
from repro.cbir.query import Query
from repro.exceptions import SessionError, ValidationError
from repro.service import (
    FeedbackRequest,
    FileSessionStore,
    InMemorySessionStore,
    RetrievalService,
    SearchRequest,
    SessionState,
)
from repro.utils.concurrency import StripedLockMap

NUM_THREADS = 8
SESSIONS_PER_THREAD = 3
NUM_ROUNDS = 2

#: Log-independent schemes: their rankings do not read the shared log, so a
#: serial replay is bit-identical no matter how the concurrent run grew it.
STRESS_ALGORITHMS = ("euclidean", "rf-svm")


@pytest.fixture()
def fresh_database(small_dataset, small_log):
    import copy

    return ImageDatabase(small_dataset, log_database=copy.deepcopy(small_log))


def _category_judgements(dataset, query_index, image_indices):
    category = dataset.category_of(int(query_index))
    return {
        int(i): (1 if dataset.category_of(int(i)) == category else -1)
        for i in image_indices
    }


def _drive_session(service, dataset, query_index, algorithm, session_id=None):
    """Open → NUM_ROUNDS feedback rounds → close; returns per-round rankings
    and the judgement dicts submitted (the expected log records)."""
    request = SearchRequest(
        query=query_index, top_k=10, algorithm=algorithm, session_id=session_id
    )
    response = service.open_session(request)
    rankings = [np.asarray(response.image_indices).copy()]
    submitted = []
    for round_number in range(NUM_ROUNDS):
        judgements = _category_judgements(
            dataset, query_index, response.image_indices[: 10 - 2 * round_number]
        )
        submitted.append(judgements)
        response = service.submit_feedback(
            FeedbackRequest(
                session_id=response.session_id, judgements=judgements, top_k=10
            )
        )
        rankings.append(np.asarray(response.image_indices).copy())
    service.close_session(response.session_id)
    return response.session_id, rankings, submitted


class TestConcurrentServiceStress:
    """≥8 threads hammering one service: logs, ids, and bit-identity."""

    def _run_stress(self, dataset, database, **kwargs):
        service = RetrievalService(database, log_policy="on_close", **kwargs)
        results = {}
        errors = []
        barrier = threading.Barrier(NUM_THREADS)

        def worker(thread_index):
            try:
                barrier.wait(timeout=30)
                for s in range(SESSIONS_PER_THREAD):
                    serial = thread_index * SESSIONS_PER_THREAD + s
                    query_index = serial % dataset.num_images
                    algorithm = STRESS_ALGORITHMS[serial % len(STRESS_ALGORITHMS)]
                    sid, rankings, submitted = _drive_session(
                        service, dataset, query_index, algorithm
                    )
                    results[serial] = (sid, query_index, algorithm, rankings, submitted)
            except BaseException as error:  # noqa: BLE001 - reported to the test
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(NUM_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        service.shutdown()
        assert not errors, f"worker raised: {errors[0]!r}"
        assert not any(thread.is_alive() for thread in threads), "worker deadlocked"
        return service, results

    def test_stress_no_lost_logs_no_duplicate_ids_bit_identical(
        self, small_dataset, fresh_database
    ):
        log_before = len(fresh_database.log_database)
        service, results = self._run_stress(small_dataset, fresh_database)
        total_sessions = NUM_THREADS * SESSIONS_PER_THREAD

        # -- no duplicate session ids, store drained -----------------------
        session_ids = [sid for sid, *_ in results.values()]
        assert len(results) == total_sessions
        assert len(set(session_ids)) == total_sessions
        assert service.num_open_sessions == 0

        # -- no lost or duplicated log records -----------------------------
        log = fresh_database.log_database
        assert len(log) == log_before + total_sessions * NUM_ROUNDS
        recorded = Counter(
            (session.query_index, json.dumps(dict(session.judgements), sort_keys=True))
            for session in log.scan()[log_before:]
        )
        expected = Counter(
            (query_index, json.dumps(judgements, sort_keys=True))
            for _, query_index, _, _, submitted in results.values()
            for judgements in submitted
        )
        assert recorded == expected

        # -- per-session rankings bit-identical to a serial replay ---------
        replay_service = RetrievalService(fresh_database, log_policy="off")
        for serial in sorted(results):
            _, query_index, algorithm, rankings, submitted = results[serial]
            response = replay_service.open_session(
                SearchRequest(query=query_index, top_k=10, algorithm=algorithm)
            )
            np.testing.assert_array_equal(response.image_indices, rankings[0])
            for round_number, judgements in enumerate(submitted, start=1):
                response = replay_service.submit_feedback(
                    FeedbackRequest(
                        session_id=response.session_id,
                        judgements=judgements,
                        top_k=10,
                    )
                )
                np.testing.assert_array_equal(
                    response.image_indices, rankings[round_number]
                )
            replay_service.discard_session(response.session_id)

    def test_stress_on_file_store(self, small_dataset, fresh_database, tmp_path):
        """The on-disk backend survives the same interleaving (atomic files)."""
        service, results = self._run_stress(
            small_dataset,
            fresh_database,
            store=FileSessionStore(tmp_path / "sessions"),
        )
        assert service.num_open_sessions == 0
        assert len({sid for sid, *_ in results.values()}) == (
            NUM_THREADS * SESSIONS_PER_THREAD
        )
        # No temp droppings left behind by the atomic writes.
        assert not list((tmp_path / "sessions").glob("*tmp*"))

    def test_concurrent_opens_with_same_client_id_yield_one_winner(
        self, fresh_database
    ):
        service = RetrievalService(fresh_database)
        outcomes = []
        barrier = threading.Barrier(4)

        def opener():
            barrier.wait(timeout=10)
            try:
                service.open_session(
                    SearchRequest(query=0, top_k=5, session_id="contested")
                )
                outcomes.append("won")
            except SessionError:
                outcomes.append("lost")

        threads = [threading.Thread(target=opener) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert sorted(outcomes) == ["lost", "lost", "lost", "won"]
        assert service.num_open_sessions == 1


class TestWaveServing:
    """What a wave is now that it is one call: the same results as per-call
    serving, atomic log batches, and nothing left behind on failure."""

    def test_waves_bit_identical_to_per_call_serving(
        self, small_dataset, small_log
    ):
        """The same sessions served one call at a time and as waves: every
        per-round ranking and the log-record stream agree exactly."""
        import copy

        algorithms = ["euclidean", "rf-svm", "lrf-csvm", "lrf-2svms"]
        queries = [i % small_dataset.num_images for i in range(12)]

        def serve(as_waves):
            database = ImageDatabase(
                small_dataset, log_database=copy.deepcopy(small_log)
            )
            log_before = len(database.log_database)
            service = RetrievalService(database, log_policy="on_close")

            def each(call, items):
                if as_waves:
                    return call(items)
                return [call([item])[0] for item in items]

            responses = each(
                service.open_sessions,
                [
                    SearchRequest(
                        query=q, top_k=10, algorithm=algorithms[i % len(algorithms)]
                    )
                    for i, q in enumerate(queries)
                ],
            )
            rounds = [[np.asarray(r.image_indices).copy() for r in responses]]
            for _ in range(NUM_ROUNDS):
                responses = each(
                    service.submit_feedback_batch,
                    [
                        FeedbackRequest(
                            session_id=r.session_id,
                            judgements=_category_judgements(
                                small_dataset, q, r.image_indices
                            ),
                            top_k=10,
                        )
                        for q, r in zip(queries, responses)
                    ],
                )
                rounds.append([np.asarray(r.image_indices).copy() for r in responses])
            each(service.close_sessions, [r.session_id for r in responses])
            records = [
                (session.query_index, dict(session.judgements))
                for session in database.log_database.scan()[log_before:]
            ]
            return rounds, records

        per_call_rounds, per_call_records = serve(as_waves=False)
        wave_rounds, wave_records = serve(as_waves=True)
        for per_call_round, wave_round in zip(per_call_rounds, wave_rounds):
            for per_call_ranking, wave_ranking in zip(per_call_round, wave_round):
                np.testing.assert_array_equal(per_call_ranking, wave_ranking)
        assert len(wave_records) == len(queries) * NUM_ROUNDS
        assert wave_records == per_call_records

    def test_concurrent_per_round_batches_land_contiguously(
        self, small_dataset, fresh_database
    ):
        """8 threads run feedback batches and then close their sessions as
        one wave, all at once, under ``on_close``: each gets its own
        sessions' results back, and each close wave's records sit together
        in the log, session by session and round by round (one atomic
        ``extend``)."""
        import sys

        batch_width = 4
        service = RetrievalService(
            fresh_database, log_policy="on_close", default_algorithm="rf-svm"
        )
        log_before = len(fresh_database.log_database)
        barrier = threading.Barrier(NUM_THREADS)
        served = {}  # thread -> (queries, per-round judgements, per-round rankings)
        errors = []

        def worker(thread_index):
            try:
                queries = [
                    (thread_index * batch_width + i) % small_dataset.num_images
                    for i in range(batch_width)
                ]
                responses = service.open_sessions(
                    [SearchRequest(query=q, top_k=10) for q in queries]
                )
                submitted, rankings = [], []
                barrier.wait(timeout=30)
                for round_number in range(1, NUM_ROUNDS + 1):
                    requests = [
                        FeedbackRequest(
                            session_id=r.session_id,
                            judgements=_category_judgements(
                                small_dataset, q, r.image_indices
                            ),
                            top_k=10,
                        )
                        for q, r in zip(queries, responses)
                    ]
                    responses = service.submit_feedback_batch(requests)
                    assert [(r.session_id, r.round_index) for r in responses] == [
                        (request.session_id, round_number) for request in requests
                    ]
                    submitted.append([dict(r.judgements) for r in requests])
                    rankings.append(
                        [np.asarray(r.image_indices).copy() for r in responses]
                    )
                barrier.wait(timeout=30)
                views = service.close_sessions([r.session_id for r in responses])
                assert [view.rounds_completed for view in views] == [NUM_ROUNDS] * batch_width
                served[thread_index] = (queries, submitted, rankings)
            except BaseException as error:  # noqa: BLE001 - reported to the test
                errors.append(error)

        previous_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(NUM_THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous_interval)
        assert not errors, f"worker raised: {errors[0]!r}"
        assert not any(thread.is_alive() for thread in threads), "worker deadlocked"
        assert len(served) == NUM_THREADS

        # -- every close wave's records are contiguous, in wave order -------
        recorded = [
            (session.query_index, dict(session.judgements))
            for session in fresh_database.log_database.scan()[log_before:]
        ]
        assert len(recorded) == NUM_THREADS * NUM_ROUNDS * batch_width
        wave_length = NUM_ROUNDS * batch_width
        for queries, submitted, _ in served.values():
            wave = [
                (query, judgements[position])
                for position, query in enumerate(queries)
                for judgements in submitted
            ]
            assert any(
                recorded[start : start + wave_length] == wave
                for start in range(0, len(recorded), wave_length)
            )

        # -- every thread got its own sessions' rankings (serial replay) ---
        replay = RetrievalService(
            fresh_database, log_policy="off", default_algorithm="rf-svm"
        )
        for queries, submitted, rankings in served.values():
            for position, query_index in enumerate(queries):
                session_id = replay.open_session(query_index, top_k=10).session_id
                for judgements, ranking in zip(submitted, rankings):
                    response = replay.submit_feedback(
                        session_id, judgements[position], top_k=10
                    )
                    np.testing.assert_array_equal(
                        response.image_indices, ranking[position]
                    )
                replay.discard_session(session_id)

    @pytest.mark.parametrize("log_policy", ["on_close", "off"])
    def test_failed_search_wave_leaves_nothing_behind(self, fresh_database, log_policy):
        """A wave whose search raises opens no session and logs nothing, and
        the service serves the next wave normally."""
        service = RetrievalService(fresh_database, log_policy=log_policy)
        log_before = len(fresh_database.log_database)
        with pytest.raises(Exception):
            service.open_sessions(
                [
                    SearchRequest(query=0, top_k=5),
                    # Wrong dimensionality: batch_search raises mid-wave.
                    SearchRequest(query=Query(feature_vector=np.ones(3)), top_k=5),
                ]
            )
        assert service.num_open_sessions == 0
        assert len(fresh_database.log_database) == log_before
        assert len(service.open_sessions([SearchRequest(query=0, top_k=5)])) == 1


class TestFlushAndLogRobustness:
    """Regression tests for review findings on the atomic-append discipline."""

    def test_log_extend_is_all_or_nothing(self, fresh_database):
        from repro.exceptions import LogDatabaseError
        from repro.logdb.session import LogSession

        log = fresh_database.log_database
        before = len(log)
        with pytest.raises(LogDatabaseError):
            log.extend(
                [
                    LogSession(judgements={0: 1}),
                    LogSession(judgements={10**9: 1}),  # out of range
                ]
            )
        assert len(log) == before  # nothing half-applied

    def test_scoring_failure_rolls_back_every_session_in_batch(
        self, small_dataset, fresh_database
    ):
        """A strategy blowing up mid-batch must leave no phantom rounds or
        half-mutated memory on any session of the batch."""
        from repro.feedback.base import RelevanceFeedbackAlgorithm

        class Exploding(RelevanceFeedbackAlgorithm):
            name = "exploding"

            def score(self, context):
                raise RuntimeError("solver blew up")

        service = RetrievalService(fresh_database, log_policy="on_close")
        good = service.open_session(SearchRequest(query=0, top_k=6, algorithm="rf-svm"))
        bad = service.open_session(
            SearchRequest(query=1, top_k=6, algorithm=Exploding())
        )
        judgements = _category_judgements(small_dataset, 0, good.image_indices)
        with pytest.raises(RuntimeError, match="solver blew up"):
            service.submit_feedback_batch(
                [
                    FeedbackRequest(session_id=good.session_id, judgements=judgements),
                    FeedbackRequest(
                        session_id=bad.session_id,
                        judgements={int(bad.image_indices[0]): 1},
                    ),
                ]
            )
        # Both sessions rolled back: no recorded rounds.
        assert service.get_session(good.session_id).rounds_completed == 0
        assert service.get_session(bad.session_id).rounds_completed == 0
        # The good session still works — and its close logs exactly one round.
        before = len(fresh_database.log_database)
        service.submit_feedback(good.session_id, judgements)
        service.close_session(good.session_id)
        assert len(fresh_database.log_database) == before + 1

    def test_log_copy_is_a_consistent_snapshot(self, fresh_database):
        import copy

        from repro.logdb.session import LogSession

        log = fresh_database.log_database
        cloned = copy.deepcopy(log)
        sessions_at_copy = len(cloned)
        log.append(LogSession(judgements={0: 1}))
        # The clone shares nothing with the original ...
        assert len(cloned) == sessions_at_copy
        # ... and its lazily-rebuilt matrix matches its own session count.
        assert cloned.relevance_matrix().tocsr().shape[0] == sessions_at_copy

    def test_file_store_id_containing_tmp_is_visible(self, tmp_path):
        store = FileSessionStore(tmp_path)
        state = SessionState(session_id="job.tmp-1", query=Query(query_index=0))
        store.put(state)
        assert "job.tmp-1" in store
        assert store.session_ids() == ["job.tmp-1"]

    def test_close_wave_prevalidates_before_mutating(self, small_dataset, fresh_database):
        """A bad id mid-wave must not close earlier sessions or log their
        rounds."""
        service = RetrievalService(fresh_database, log_policy="on_close")
        log_before = len(fresh_database.log_database)
        response = service.open_session(0, top_k=6)
        service.submit_feedback(
            response.session_id,
            _category_judgements(small_dataset, 0, response.image_indices),
        )
        with pytest.raises(SessionError):
            service.close_sessions([response.session_id, "bogus"])
        # Nothing mutated: the session is still open, nothing logged.
        assert response.session_id in service.store
        assert len(fresh_database.log_database) == log_before
        with pytest.raises(SessionError, match="twice in one close wave"):
            service.close_sessions([response.session_id, response.session_id])
        # A clean close still works and logs exactly once.
        service.close_session(response.session_id)
        assert len(fresh_database.log_database) == log_before + 1

    def test_open_wave_rejects_unstorable_state_before_serving(
        self, fresh_database, tmp_path
    ):
        """An instance-backed request against the file store fails the wave
        up front — no sibling session is persisted."""
        from repro.feedback.rf_svm import RFSVM

        service = RetrievalService(
            fresh_database, store=FileSessionStore(tmp_path / "sessions")
        )
        with pytest.raises(ValidationError, match="instance-backed"):
            service.open_sessions(
                [
                    SearchRequest(query=0, top_k=5),
                    SearchRequest(query=1, top_k=5, algorithm=RFSVM()),
                ]
            )
        assert service.num_open_sessions == 0


class TestAtomicFileStore:
    def _state(self, session_id="abc"):
        state = SessionState(
            session_id=session_id,
            query=Query(query_index=4),
            algorithm="rf-svm",
            algorithm_params={"C": 5.0},
            top_k=10,
            created_at=1.0,
            last_active=2.0,
        )
        state.apply_round({9: 1, 2: -1})
        state.memory.set_arrays(warm_indices=np.array([9, 2]))
        return state

    def test_crash_mid_json_write_preserves_previous_state(
        self, tmp_path, monkeypatch
    ):
        """Kill the document write midway: the committed session must
        survive untouched, warm scratch included."""
        store = FileSessionStore(tmp_path)
        first = self._state()
        store.put(first)

        import repro.utils.io as io_module

        real_atomic = io_module.atomic_text_file

        class DyingHandle:
            def __init__(self, handle):
                self._handle = handle

            def write(self, text):
                self._handle.write(text[: len(text) // 2])  # truncated junk
                self._handle.flush()
                raise OSError("simulated crash mid-write")

        @contextlib.contextmanager
        def dying_atomic(path):
            with real_atomic(path) as handle:
                yield DyingHandle(handle)

        monkeypatch.setattr(io_module, "atomic_text_file", dying_atomic)
        second = self._state()
        second.apply_round({5: 1})
        second.memory.set_arrays(warm_indices=np.array([9, 2, 5]))
        second.last_active = 99.0
        with pytest.raises(OSError, match="simulated crash"):
            store.put(second)
        monkeypatch.setattr(io_module, "atomic_text_file", real_atomic)

        # Same process: the read cache still holds the committed state —
        # fully consistent, warm scratch included (the commit record on
        # disk is unchanged, so the cached entry is exactly it).
        loaded = store.get("abc")
        assert loaded.last_active == 2.0
        assert loaded.round_judgements == [{9: 1, 2: -1}]
        assert loaded.memory.arrays["warm_indices"].tolist() == [9, 2]

        # Fresh process (new store, cold cache): the one committed document
        # survives whole, so the session resumes with its warm scratch.
        # No temp files remain.
        reloaded = FileSessionStore(tmp_path).get("abc")
        assert reloaded.last_active == 2.0
        assert reloaded.round_judgements == [{9: 1, 2: -1}]
        assert reloaded.memory.arrays["warm_indices"].tolist() == [9, 2]
        assert not list(tmp_path.glob("*tmp*"))

    def test_concurrent_writers_of_distinct_sessions(self, tmp_path):
        """8 threads × distinct ids: every committed session loads complete."""
        store = FileSessionStore(tmp_path)
        errors = []
        barrier = threading.Barrier(NUM_THREADS)

        def writer(thread_index):
            try:
                barrier.wait(timeout=10)
                for version in range(5):
                    state = self._state(session_id=f"s{thread_index}")
                    state.last_active = float(version)
                    store.put(state)
                    loaded = store.get(f"s{thread_index}")
                    assert loaded.session_id == f"s{thread_index}"
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(NUM_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, f"writer raised: {errors[0]!r}"
        assert len(store) == NUM_THREADS
        for thread_index in range(NUM_THREADS):
            assert store.get(f"s{thread_index}").last_active == 4.0

    def test_in_memory_store_concurrent_mutation(self):
        store = InMemorySessionStore()
        errors = []

        def churn(thread_index):
            try:
                for version in range(200):
                    sid = f"t{thread_index}-{version % 10}"
                    store.put(SessionState(session_id=sid, query=Query(query_index=0)))
                    store.session_ids()
                    store.delete(sid)
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=churn, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, f"churn raised: {errors[0]!r}"


class TestConcurrencyPrimitives:
    def test_striped_lock_map_all_of_is_deadlock_free(self):
        locks = StripedLockMap(num_stripes=4)
        keys_a = [f"a{i}" for i in range(10)]
        keys_b = list(reversed(keys_a))
        done = []

        def waver(keys):
            for _ in range(200):
                with locks.all_of(keys):
                    pass
            done.append(True)

        threads = [
            threading.Thread(target=waver, args=(keys,))
            for keys in (keys_a, keys_b, keys_a[::2], keys_b[::2])
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(done) == 4
