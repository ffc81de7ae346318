"""Tests for the session-oriented retrieval service (repro.service)."""

from __future__ import annotations

import dataclasses
import inspect
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.cbir.database import ImageDatabase
from repro.cbir.query import Query
from repro.cbir.search import SearchEngine
from repro.cluster import ClusterConfig
from repro.evaluation.protocol import EvaluationProtocol, ProtocolConfig
from repro.evaluation.runner import ExperimentRunner
from repro.exceptions import SessionError, ValidationError
from repro.feedback.base import FeedbackContext
from repro.feedback.euclidean import EuclideanFeedback
from repro.feedback.rf_svm import RFSVM
from repro.logdb import FileLogStore
from repro.service import (
    LOG_POLICIES,
    FeedbackRequest,
    FileSessionStore,
    InMemorySessionStore,
    RetrievalService,
    SearchRequest,
    SessionState,
)


@pytest.fixture()
def fresh_database(small_dataset, small_log):
    """A database the test may mutate (grow the log) without leaking state."""
    import copy

    return ImageDatabase(small_dataset, log_database=copy.deepcopy(small_log))


def _category_judgements(dataset, query_index, image_indices):
    """Deterministic ±1 judgements from category ground truth."""
    category = dataset.category_of(int(query_index))
    return {
        int(i): (1 if dataset.category_of(int(i)) == category else -1)
        for i in image_indices
    }


class TestDTOs:
    def test_search_request_coerces_queries(self):
        assert SearchRequest(query=3).query == Query(query_index=3)
        vector_request = SearchRequest(query=np.array([1.0, 2.0]))
        assert not vector_request.query.is_internal

    def test_search_request_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            SearchRequest(query=0, top_k=0)
        with pytest.raises(ValidationError):
            SearchRequest(query="zero")
        for session_id in ("../escape", 5, b"ab"):
            with pytest.raises(ValidationError, match="session_id"):
                SearchRequest(query=0, session_id=session_id)
        with pytest.raises(ValidationError):
            SearchRequest(query=0, algorithm=RFSVM(), algorithm_params={"C": 1.0})
        # top_k must be an integer: a string or a float is rejected, never
        # parsed or truncated.
        for top_k in ("3", 2.5, float("nan")):
            with pytest.raises(ValidationError, match="top_k"):
                SearchRequest(query=0, top_k=top_k)

    def test_feedback_request_validates_judgements(self):
        with pytest.raises(ValidationError):
            FeedbackRequest(session_id="s1", judgements={})
        with pytest.raises(ValidationError):
            FeedbackRequest(session_id="s1", judgements={0: 2})
        for session_id in ("", 5, b"ab"):
            with pytest.raises(ValidationError, match="session_id"):
                FeedbackRequest(session_id=session_id, judgements={0: 1})
        # Not a mapping (nor a sequence of pairs): rejected, not leaked as
        # a TypeError or ValueError from dict().
        for judgements in (None, [1, 2], "ab"):
            with pytest.raises(ValidationError, match="judgements"):
                FeedbackRequest(session_id="s1", judgements=judgements)
        for top_k in ("3", 2.5, float("nan")):
            with pytest.raises(ValidationError, match="top_k"):
                FeedbackRequest(session_id="s1", judgements={0: 1}, top_k=top_k)

    @pytest.mark.parametrize(
        "judgements",
        [
            {4.5: 1},  # used to become {4: 1}
            {4: 1.9},  # used to become {4: 1}
            {4.9: 1, 4: -1},  # used to collapse to {4: -1}
            {"7": "1"},  # used to be parsed
            {7: "1"},
            {4.0: 1},
            {np.float64(4.0): 1},
            {4: np.float64(1.0)},
        ],
        ids=["float-index", "float-label", "colliding-floats", "strings", "string-label",
             "integral-float", "numpy-float-index", "numpy-float-label"],
    )
    def test_feedback_request_rejects_non_integers(self, judgements):
        with pytest.raises(ValidationError, match="must be integers"):
            FeedbackRequest(session_id="s1", judgements=judgements)

    def test_feedback_request_accepts_numpy_integers(self):
        request = FeedbackRequest(
            session_id="s1", judgements={np.int64(9): np.int32(1), np.intp(2): np.int8(-1)}
        )
        assert request.judgements == {9: 1, 2: -1}
        assert all(type(k) is int and type(v) is int for k, v in request.judgements.items())

    def test_feedback_request_preserves_order(self):
        request = FeedbackRequest(session_id="s1", judgements={9: 1, 2: -1, 5: 1})
        assert list(request.judgements) == [9, 2, 5]


class TestSessionLifecycle:
    def test_open_feedback_close_grows_log_on_close(self, small_dataset, fresh_database):
        service = RetrievalService(fresh_database, log_policy="on_close")
        before = len(fresh_database.log_database)
        response = service.open_session(0, top_k=10)
        assert response.round_index == 0
        assert len(response.image_indices) == 10

        judgements = _category_judgements(small_dataset, 0, response.image_indices)
        refined = service.submit_feedback(response.session_id, judgements)
        assert refined.round_index == 1
        # on_close: nothing reaches the log until the session closes.
        assert len(fresh_database.log_database) == before

        second = service.submit_feedback(
            response.session_id, {int(refined.image_indices[0]): 1}
        )
        assert second.round_index == 2

        view = service.close_session(response.session_id)
        assert view.closed and view.rounds_completed == 2
        # Judgements accumulate across the session's rounds.
        assert dict(view.judgements) == {
            **judgements,
            int(refined.image_indices[0]): 1,
        }
        assert len(fresh_database.log_database) == before + 2
        recorded = fresh_database.log_database.scan()[-2]
        assert recorded.query_index == 0
        assert dict(recorded.judgements) == judgements
        assert response.session_id not in service.store

    def test_off_policy_never_logs(self, small_dataset, fresh_database):
        service = RetrievalService(fresh_database, log_policy="off")
        before = len(fresh_database.log_database)
        response = service.open_session(2, top_k=6)
        service.submit_feedback(
            response.session_id,
            _category_judgements(small_dataset, 2, response.image_indices),
        )
        service.close_session(response.session_id)
        assert len(fresh_database.log_database) == before

    def test_unknown_and_closed_sessions_rejected(self, fresh_database):
        service = RetrievalService(fresh_database)
        with pytest.raises(SessionError):
            service.submit_feedback("nope", {0: 1})
        response = service.open_session(0, top_k=5)
        service.close_session(response.session_id)
        with pytest.raises(SessionError):
            service.submit_feedback(response.session_id, {0: 1})
        with pytest.raises(SessionError):
            service.close_session(response.session_id)

    def test_duplicate_session_id_rejected(self, fresh_database):
        service = RetrievalService(fresh_database)
        service.open_session(SearchRequest(query=0, top_k=5, session_id="mine"))
        with pytest.raises(SessionError):
            service.open_session(SearchRequest(query=1, top_k=5, session_id="mine"))

    def test_discard_session_records_nothing(self, small_dataset, fresh_database):
        service = RetrievalService(fresh_database, log_policy="on_close")
        before = len(fresh_database.log_database)
        response = service.open_session(0, top_k=6)
        service.submit_feedback(
            response.session_id,
            _category_judgements(small_dataset, 0, response.image_indices),
        )
        service.discard_session(response.session_id)
        assert len(fresh_database.log_database) == before
        assert service.num_open_sessions == 0

    def test_list_and_get_sessions(self, fresh_database):
        service = RetrievalService(fresh_database)
        ids = [service.open_session(i, top_k=5).session_id for i in range(3)]
        assert service.store.session_ids() == sorted(ids)
        single = service.get_session(ids[0])
        assert single.rounds_completed == 0 and not single.closed

    def test_external_query_session(self, small_dataset, fresh_database):
        service = RetrievalService(fresh_database)
        vector = small_dataset.features[7]
        response = service.open_session(SearchRequest(query=vector, top_k=5))
        assert response.image_indices[0] == 7

    @pytest.mark.parametrize("backend", ["memory", "file"])
    def test_malformed_session_ids_rejected(self, fresh_database, tmp_path, backend):
        store = InMemorySessionStore() if backend == "memory" else FileSessionStore(tmp_path)
        service = RetrievalService(fresh_database, store=store, log_policy="off")
        for session_id in "abc":
            service.open_session(SearchRequest(query=0, top_k=5, session_id=session_id))
        # A bare string is not a wave of one-letter ids.
        with pytest.raises(ValidationError, match="sequence of session ids"):
            service.close_sessions("abc")
        assert service.num_open_sessions == 3
        # Ids that are not strings fail as ValidationError on every entry
        # point, on both stores, before they are hashed onto a lock stripe.
        for call in (service.get_session, service.last_response,
                     service.discard_session, service.close_session,
                     lambda session_id: service.submit_feedback(session_id, {0: 1})):
            for session_id in (["x"], 5):
                with pytest.raises(ValidationError, match="session_id"):
                    call(session_id)
        with pytest.raises(ValidationError, match="session_id"):
            service.close_sessions([["x"]])
        assert service.num_open_sessions == 3


class TestServingSettings:
    def test_only_the_settings_callers_set_remain(self):
        # No TTL, clock or index keyword on the service; no fault plan on
        # the cluster config; no mid-session log policy.
        parameters = inspect.signature(RetrievalService).parameters
        assert list(parameters) == ["database", "store", "default_algorithm", "log_policy"]
        assert "index" not in inspect.signature(SearchEngine).parameters
        assert len(dataclasses.fields(ClusterConfig)) == 9
        assert LOG_POLICIES == ("on_close", "off")


class TestSessionStores:
    def _state(self):
        state = SessionState(
            session_id="abc",
            query=Query(query_index=4),
            algorithm="rf-svm",
            algorithm_params={"C": 5.0},
            top_k=10,
            created_at=1.0,
            last_active=2.0,
        )
        state.apply_round({9: 1, 2: -1})
        state.apply_round({5: 1})
        state.memory.set_arrays(
            warm_indices=np.array([9, 2, 5]),
            warm_alpha_visual=np.array([0.25, 1.75, 0.0]),
        )
        state.memory.meta["rounds_scored"] = 2
        return state

    def test_file_store_round_trip(self, tmp_path):
        store = FileSessionStore(tmp_path / "sessions")
        state = self._state()
        store.put(state)
        loaded = FileSessionStore(tmp_path / "sessions").get("abc")
        assert loaded.session_id == state.session_id
        assert loaded.algorithm == "rf-svm"
        assert loaded.algorithm_params == {"C": 5.0}
        assert list(loaded.judgements.items()) == [(9, 1), (2, -1), (5, 1)]
        assert loaded.round_judgements == [{9: 1, 2: -1}, {5: 1}]
        np.testing.assert_array_equal(
            loaded.memory.arrays["warm_alpha_visual"],
            state.memory.arrays["warm_alpha_visual"],
        )
        assert loaded.memory.meta["rounds_scored"] == 2
        assert loaded.last_active == 2.0

    def test_file_store_external_query_round_trip(self, tmp_path):
        store = FileSessionStore(tmp_path)
        state = SessionState(
            session_id="ext", query=Query(feature_vector=np.array([0.5, -1.5]))
        )
        store.put(state)
        loaded = store.get("ext")
        np.testing.assert_array_equal(
            loaded.query.feature_vector, state.query.feature_vector
        )

    def test_instance_backed_state_not_serialisable(self, tmp_path):
        state = SessionState(
            session_id="inst", query=Query(query_index=0), instance=RFSVM()
        )
        with pytest.raises(ValidationError):
            FileSessionStore(tmp_path).put(state)

    def test_stores_share_protocol(self, tmp_path):
        for store in (InMemorySessionStore(), FileSessionStore(tmp_path)):
            state = self._state()
            store.put(state)
            assert "abc" in store and len(store) == 1
            store.delete("abc")
            assert "abc" not in store
            with pytest.raises(SessionError):
                store.get("abc")

    def test_file_store_service_rejects_non_string_ids(self, fresh_database, tmp_path):
        service = RetrievalService(
            fresh_database, store=FileSessionStore(tmp_path), log_policy="off"
        )
        for call in (service.get_session, service.close_session,
                     service.last_response, service.discard_session):
            with pytest.raises(ValidationError, match="session_id"):
                call(5)

    @pytest.mark.parametrize("suffix", [".json"])
    def test_torn_session_file_raises_session_error(
        self, fresh_database, tmp_path, suffix
    ):
        service = RetrievalService(
            fresh_database, store=FileSessionStore(tmp_path), log_policy="off"
        )
        opened = service.open_session(
            SearchRequest(query=0, top_k=5, algorithm="rf-svm", session_id="torn")
        )
        service.submit_feedback("torn", {int(opened.image_indices[0]): 1})
        path = tmp_path / f"torn{suffix}"
        path.write_bytes(path.read_bytes()[:20])
        message = f"'torn' has an unreadable file torn{suffix}"
        # A fresh store, as another process would read the directory.
        store = FileSessionStore(tmp_path)
        with pytest.raises(SessionError, match=message):
            store.get("torn")
        reader = RetrievalService(fresh_database, store=store, log_policy="off")
        with pytest.raises(SessionError, match=message):
            reader.get_session("torn")
        with pytest.raises(SessionError, match=message):
            reader.submit_feedback("torn", {int(opened.image_indices[1]): 1})
        with pytest.raises(SessionError, match=message):
            reader.close_session("torn")


_ARRAYS = st.one_of(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
        elements=st.one_of(
            st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
            st.sampled_from([-0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2e-308]),
        ),
    ),
    hnp.arrays(
        np.int64,
        hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
    ),
)


class _CountingOS:
    """Stands in for ``os`` inside ``repro.utils.io``; records every commit."""

    def __init__(self):
        self.replaced = []

    def __getattr__(self, name):
        return getattr(os, name)

    def replace(self, source, target):
        self.replaced.append(Path(target))
        os.replace(source, target)


class TestFileSessionRecord:
    """A file-backed session is one JSON commit record, arrays inside."""

    @given(
        arrays=st.lists(_ARRAYS, max_size=4),
        vector=hnp.arrays(
            np.float64,
            st.integers(1, 6),
            elements=st.floats(
                allow_nan=False, allow_infinity=False, allow_subnormal=True
            ),
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_embedded_arrays_round_trip_losslessly(self, arrays, vector):
        # Mutation caught: decoding every array as float64 (dropping the
        # recorded dtype) returns int64 arrays with the wrong dtype.
        state = SessionState(
            session_id="lossless",
            query=Query(feature_vector=vector),
            algorithm="rf-svm",
        )
        state.memory.set_arrays(**{f"a{i}": a for i, a in enumerate(arrays)})
        with tempfile.TemporaryDirectory() as directory:
            FileSessionStore(directory).put(state)
            loaded = FileSessionStore(directory).get("lossless")  # cold cache
        assert sorted(loaded.memory.arrays) == sorted(state.memory.arrays)
        for key, array in state.memory.arrays.items():
            got = loaded.memory.arrays[key]
            assert got.dtype == array.dtype and got.shape == array.shape
            assert got.tobytes() == array.tobytes()
        sent = np.asarray(state.query.feature_vector)
        got = np.asarray(loaded.query.feature_vector)
        assert got.dtype == sent.dtype and got.tobytes() == sent.tobytes()

    def test_round_commits_one_file_and_close_three(
        self, small_dataset, small_log, tmp_path, monkeypatch
    ):
        """The I/O budget: a round replaces one file, a durable close three.

        Mutation caught: writing the arrays to a second file again.
        """
        import repro.utils.io as io_module

        log = FileLogStore(tmp_path / "log", num_images=small_dataset.num_images)
        log.extend(small_log.scan())
        database = ImageDatabase(small_dataset, log_database=log)
        sessions = tmp_path / "sessions"
        service = RetrievalService(database, store=FileSessionStore(sessions))
        opened = service.open_session(
            SearchRequest(query=0, top_k=8, algorithm="lrf-2svms", session_id="s")
        )
        counting = _CountingOS()
        monkeypatch.setattr(io_module, "os", counting)
        for round_index in range(2):
            service.submit_feedback(
                "s", _category_judgements(small_dataset, 0, opened.image_indices)
            )
            assert counting.replaced == [sessions / "s.json"], round_index
            counting.replaced.clear()
        service.close_session("s")
        assert counting.replaced == [
            sessions / "close-intents" / "s.json",
            log._segments_dir / log._segment_name(0, len(small_log)),
            log._manifest_path,
        ]
        assert not list(sessions.rglob("*.npz"))


class TestSessionPersistence:
    def test_reloaded_session_resumes_bit_identically(
        self, small_dataset, fresh_database, tmp_path
    ):
        """Open → 2 rounds → save to disk → fresh service → round 3 is
        bit-identical to an uninterrupted 3-round session (the satellite)."""

        def run_round(service, session_id, judgements):
            return service.submit_feedback(session_id, judgements)

        # Uninterrupted reference session (in-memory store).
        reference = RetrievalService(fresh_database, log_policy="off")
        ref_open = reference.open_session(
            SearchRequest(query=0, top_k=10, algorithm="lrf-csvm")
        )
        round1 = _category_judgements(small_dataset, 0, ref_open.image_indices)
        ref_r1 = run_round(reference, ref_open.session_id, round1)
        round2 = _category_judgements(small_dataset, 0, ref_r1.image_indices[:6])
        ref_r2 = run_round(reference, ref_open.session_id, round2)
        round3 = _category_judgements(small_dataset, 0, ref_r2.image_indices[:4])
        ref_r3 = run_round(reference, ref_open.session_id, round3)

        # Interrupted session: two rounds, persisted, resumed elsewhere.
        store = FileSessionStore(tmp_path / "sessions")
        first = RetrievalService(fresh_database, store=store, log_policy="off")
        opened = first.open_session(
            SearchRequest(query=0, top_k=10, algorithm="lrf-csvm")
        )
        run_round(first, opened.session_id, round1)
        run_round(first, opened.session_id, round2)
        del first  # "process restart"

        resumed = RetrievalService(
            fresh_database,
            store=FileSessionStore(tmp_path / "sessions"),
            log_policy="off",
        )
        assert opened.session_id in resumed.store
        res_r3 = run_round(resumed, opened.session_id, round3)

        np.testing.assert_array_equal(res_r3.image_indices, ref_r3.image_indices)
        np.testing.assert_array_equal(res_r3.scores, ref_r3.scores)

    def test_memory_carries_warm_start_diagnostics(self, small_dataset, fresh_database):
        service = RetrievalService(fresh_database, log_policy="off")
        response = service.open_session(
            SearchRequest(query=0, top_k=10, algorithm="lrf-csvm")
        )
        service.submit_feedback(
            response.session_id,
            _category_judgements(small_dataset, 0, response.image_indices),
        )
        state = service.store.get(response.session_id)
        assert state.memory.meta["rounds_scored"] == 1
        assert "warm_indices" in state.memory.arrays
        assert "warm_alpha_visual" in state.memory.arrays


class TestMicroBatching:
    def test_open_wave_is_one_batch_search_per_top_k(self, fresh_database, monkeypatch):
        service = RetrievalService(fresh_database)
        calls = []
        batch_search = service.search_engine.batch_search

        def spy(queries, **kwargs):
            calls.append((len(queries), kwargs["top_k"]))
            return batch_search(queries, **kwargs)

        monkeypatch.setattr(service.search_engine, "batch_search", spy)
        uniform = service.open_sessions(
            [SearchRequest(query=i, top_k=8) for i in range(12)]
        )
        assert len(uniform) == 12
        assert calls == [(12, 8)]

        del calls[:]
        top_ks = [8, 5, 8, None, 5, 8]
        mixed = service.open_sessions(
            [SearchRequest(query=i, top_k=k) for i, k in enumerate(top_ks)]
        )
        assert sorted(calls, key=str) == sorted([(3, 8), (2, 5), (1, None)], key=str)
        # Grouping must not reorder the wave: response i answers request i.
        solo = SearchEngine(fresh_database)
        for i, (response, k) in enumerate(zip(mixed, top_ks)):
            np.testing.assert_array_equal(
                response.image_indices,
                solo.search(Query(query_index=i), top_k=k).image_indices,
            )

    def test_batched_first_round_matches_per_query(self, fresh_database):
        batched = RetrievalService(fresh_database).open_sessions(
            [SearchRequest(query=i, top_k=10) for i in range(20)]
        )
        per_query_service = RetrievalService(fresh_database)
        for i, response in enumerate(batched):
            solo = per_query_service.open_session(i, top_k=10)
            np.testing.assert_array_equal(
                response.image_indices, solo.image_indices
            )
            np.testing.assert_allclose(response.scores, solo.scores, atol=2e-6)

    def test_batched_first_round_through_index(self, fresh_database):
        fresh_database.build_index("brute-force")
        try:
            service = RetrievalService(fresh_database)
            responses = service.open_sessions(
                [SearchRequest(query=i, top_k=10) for i in range(10)]
            )
            engine = SearchEngine(fresh_database)
            for i, response in enumerate(responses):
                expected = engine.search(Query(query_index=i), top_k=10)
                np.testing.assert_array_equal(
                    response.image_indices, expected.image_indices
                )
        finally:
            fresh_database.detach_index()

    def test_search_engine_batch_matches_per_query(self, small_database):
        engine = SearchEngine(small_database)
        queries = [Query(query_index=i) for i in range(15)]
        batched = engine.batch_search(queries, top_k=12)
        for query, result in zip(queries, batched):
            solo = engine.search(query, top_k=12)
            np.testing.assert_array_equal(result.image_indices, solo.image_indices)
            np.testing.assert_allclose(result.scores, solo.scores, atol=2e-6)

    def test_euclidean_rank_batch_matches_rank(self, small_database):
        algorithm = EuclideanFeedback()
        contexts = [
            FeedbackContext(
                database=small_database,
                query=Query(query_index=i),
                labeled_indices=np.array([i]),
                labels=np.array([1.0]),
            )
            for i in range(10)
        ]
        batched = algorithm.rank_batch(contexts, top_k=15)
        for context, result in zip(contexts, batched):
            solo = algorithm.rank(context, top_k=15)
            np.testing.assert_array_equal(result.image_indices, solo.image_indices)
            np.testing.assert_allclose(result.scores, solo.scores, atol=2e-6)
            assert result.algorithm == "euclidean"

class TestInterleavedSessionEquivalence:
    def test_interleaved_sessions_match_dedicated_sessions(
        self, small_dataset, fresh_database
    ):
        """64 interleaved service sessions reproduce dedicated single-user
        runs (one ``log_policy="off"`` service session each, served per
        call) ranking-for-ranking, and their closes grow the shared log."""
        num_sessions = 64
        algorithms = ["euclidean", "rf-svm", "lrf-2svms", "lrf-csvm"]
        service = RetrievalService(fresh_database, log_policy="on_close")

        requests = [
            SearchRequest(
                query=i % small_dataset.num_images,
                top_k=10,
                algorithm=algorithms[i % len(algorithms)],
            )
            for i in range(num_sessions)
        ]
        responses = service.open_sessions(requests)

        # Two interleaved feedback rounds: every session advances round 1
        # before any session starts round 2.
        round1 = [
            _category_judgements(
                small_dataset, i % small_dataset.num_images, r.image_indices
            )
            for i, r in enumerate(responses)
        ]
        first = service.submit_feedback_batch(
            [
                FeedbackRequest(session_id=r.session_id, judgements=j, top_k=10)
                for r, j in zip(responses, round1)
            ]
        )
        round2 = [
            _category_judgements(
                small_dataset, i % small_dataset.num_images, r.image_indices[:5]
            )
            for i, r in enumerate(first)
        ]
        second = service.submit_feedback_batch(
            [
                FeedbackRequest(session_id=r.session_id, judgements=j, top_k=10)
                for r, j in zip(first, round2)
            ]
        )

        # Dedicated single-user sessions, same judgements, untouched log.
        # Rankings must agree index-for-index; scores of the learning
        # schemes are exact, while the distance-only euclidean scheme is
        # served batched (different BLAS accumulation order) so its scores
        # agree to numerical tolerance only.
        def assert_scores(scheme, served, dedicated):
            if scheme == "euclidean":
                np.testing.assert_allclose(served, dedicated, atol=2e-6, rtol=1e-9)
            else:
                np.testing.assert_array_equal(served, dedicated)

        dedicated = RetrievalService(fresh_database, log_policy="off")
        for i in range(num_sessions):
            scheme = algorithms[i % len(algorithms)]
            initial = dedicated.open_session(
                i % small_dataset.num_images, top_k=10, algorithm=scheme
            )
            np.testing.assert_array_equal(
                responses[i].image_indices, initial.image_indices
            )
            solo_r1 = dedicated.submit_feedback(
                initial.session_id, round1[i], top_k=10
            )
            np.testing.assert_array_equal(
                first[i].image_indices, solo_r1.image_indices
            )
            assert_scores(scheme, first[i].scores, solo_r1.scores)
            solo_r2 = dedicated.submit_feedback(
                initial.session_id, round2[i], top_k=10
            )
            np.testing.assert_array_equal(
                second[i].image_indices, solo_r2.image_indices
            )
            assert_scores(scheme, second[i].scores, solo_r2.scores)
            dedicated.discard_session(initial.session_id)

        before = len(fresh_database.log_database)
        service.close_sessions([r.session_id for r in responses])
        assert (
            len(fresh_database.log_database)
            == before + 2 * num_sessions
        )


class TestRunnerThroughService:
    def test_runner_matches_direct_algorithm_ranking(
        self, small_dataset, small_database
    ):
        config = ProtocolConfig(num_queries=4, num_labeled=6, cutoffs=(10, 20), seed=7)
        algorithm = RFSVM(C=5.0)
        runner = ExperimentRunner(small_dataset, small_database, protocol=config)
        table = runner.run({"rf-svm": algorithm})

        protocol = EvaluationProtocol(small_dataset, small_database, config)
        queries = protocol.sample_queries()
        from repro.evaluation.metrics import precision_curve

        for position, query_index in enumerate(queries):
            context = protocol.build_context(int(query_index))
            direct = algorithm.rank(context, top_k=20)
            expected = precision_curve(
                direct.image_indices, protocol.ground_truth(int(query_index)), (10, 20)
            )
            assert table.result("rf-svm").per_query[position] == expected

    def test_runner_leaves_log_untouched(self, small_dataset, fresh_database):
        config = ProtocolConfig(num_queries=3, num_labeled=6, cutoffs=(10,), seed=5)
        before = len(fresh_database.log_database)
        runner = ExperimentRunner(small_dataset, fresh_database, protocol=config)
        runner.run(["euclidean", "rf-svm"])
        assert len(fresh_database.log_database) == before
        assert runner.service.num_open_sessions == 0

    def test_runner_with_log_growing_service(self, small_dataset, fresh_database):
        config = ProtocolConfig(num_queries=3, num_labeled=6, cutoffs=(10,), seed=5)
        service = RetrievalService(fresh_database, log_policy="on_close")
        before = len(fresh_database.log_database)
        runner = ExperimentRunner(
            small_dataset, fresh_database, protocol=config, service=service
        )
        runner.run(["euclidean"])
        # one round per query per scheme lands in the log at close time
        assert len(fresh_database.log_database) == before + 3


class TestBatchRobustness:
    """Regression tests for wave/batch validation (code-review findings)."""

    def test_duplicate_wave_session_id_rejected(self, fresh_database):
        service = RetrievalService(fresh_database)
        with pytest.raises(SessionError, match="twice in one wave"):
            service.open_sessions(
                [
                    SearchRequest(query=0, top_k=5, session_id="dup"),
                    SearchRequest(query=1, top_k=5, session_id="dup"),
                ]
            )
        assert service.num_open_sessions == 0  # nothing half-opened

    def test_failed_wave_opens_none_of_its_sessions(self, fresh_database):
        service = RetrievalService(fresh_database)
        existing = service.open_session(SearchRequest(query=0, top_k=5, session_id="held"))
        with pytest.raises(SessionError):
            service.open_sessions(
                [
                    SearchRequest(query=1, top_k=5),
                    SearchRequest(query=2, top_k=5, session_id="held"),
                ]
            )
        assert service.store.session_ids() == [existing.session_id]

    def test_duplicate_session_in_feedback_batch_rejected(self, small_dataset, fresh_database):
        service = RetrievalService(fresh_database)
        response = service.open_session(0, top_k=6)
        judgements = _category_judgements(small_dataset, 0, response.image_indices)
        with pytest.raises(SessionError, match="twice in one feedback batch"):
            service.submit_feedback_batch(
                [
                    FeedbackRequest(session_id=response.session_id, judgements=judgements),
                    FeedbackRequest(session_id=response.session_id, judgements=judgements),
                ]
            )
        # The rejection happened before any state mutation.
        assert service.get_session(response.session_id).rounds_completed == 0

    def test_out_of_range_judgement_does_not_poison_session(
        self, small_dataset, fresh_database
    ):
        service = RetrievalService(fresh_database)
        response = service.open_session(0, top_k=6)
        with pytest.raises(ValidationError, match="only has"):
            service.submit_feedback(response.session_id, {10**9: 1})
        # The bad round never touched the session: a valid round still works.
        assert service.get_session(response.session_id).rounds_completed == 0
        refined = service.submit_feedback(
            response.session_id,
            _category_judgements(small_dataset, 0, response.image_indices),
        )
        assert refined.round_index == 1
