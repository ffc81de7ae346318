"""A Euclidean feedback round is served from the session's own ranking.

``EuclideanFeedback`` ignores judgements, so the ranking of a Euclidean
session never changes after its round-0 search: a round answers from the
prefix of the session's previous ranking when that covers the requested
size, and only the rest of a batch scans.  The service hands every context
the batch's one :class:`FirstReadSnapshot` of the log, so a batch whose
rounds never read ``R`` takes no snapshot.  Each test names the mutation it
catches.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.cbir.database import ImageDatabase
from repro.cbir.query import Query, RetrievalResult
from repro.cbir.search import SearchEngine
from repro.core.lrf_csvm import LRFCSVM
from repro.feedback import registry
from repro.feedback.base import FeedbackContext, RelevanceFeedbackAlgorithm
from repro.feedback.euclidean import EuclideanFeedback
from repro.logdb.session import LogSession
from repro.service import (
    FeedbackRequest,
    FileSessionStore,
    RetrievalService,
    SearchRequest,
)


@pytest.fixture()
def database(small_dataset, small_log):
    """A database whose log the test may grow."""
    return ImageDatabase(small_dataset, log_database=copy.deepcopy(small_log))


@pytest.fixture()
def scans(monkeypatch):
    """Every ``SearchEngine.batch_search`` call, as ``(num_queries, top_k)``."""
    calls = []
    original = SearchEngine.batch_search

    def counting(self, queries, *, top_k=None, **kwargs):
        calls.append((len(queries), top_k))
        return original(self, queries, top_k=top_k, **kwargs)

    monkeypatch.setattr(SearchEngine, "batch_search", counting)
    return calls


def _count_snapshots(monkeypatch, database):
    """Count the log store's ``snapshot`` calls; returns the live list."""
    calls = []
    log = database.log_database
    original = log.snapshot

    def counting():
        snapshot = original()
        calls.append(snapshot)
        return snapshot

    monkeypatch.setattr(log, "snapshot", counting)
    return calls


def _round(session_id, top_k=None):
    return FeedbackRequest(session_id=session_id, judgements={0: 1, 1: -1}, top_k=top_k)


def _assert_same_bits(got: RetrievalResult, want: RetrievalResult) -> None:
    np.testing.assert_array_equal(got.image_indices, want.image_indices)
    assert got.scores.tobytes() == want.scores.tobytes()


class TestEuclideanWave:
    def test_a_wave_makes_one_scan_and_takes_no_snapshot(
        self, database, scans, monkeypatch
    ):
        """Catches a round that scans again (two scans per wave) and a batch
        that snapshots the log eagerly (one snapshot per round)."""
        snapshots = _count_snapshots(monkeypatch, database)
        service = RetrievalService(database)
        opened = service.open_sessions(
            [SearchRequest(query=i, top_k=10, algorithm="euclidean") for i in range(8)]
        )
        rounds = service.submit_feedback_batch(
            [_round(r.session_id, top_k=10) for r in opened]
        )
        again = service.submit_feedback_batch(
            [_round(r.session_id, top_k=10) for r in opened]
        )
        assert scans == [(8, 10)]
        assert snapshots == []
        for first, second, third in zip(opened, rounds, again):
            _assert_same_bits(second.result, first.result)
            _assert_same_bits(third.result, first.result)
            assert second.result.algorithm == "euclidean"

    def test_a_mixed_batch_shares_one_first_read_snapshot(
        self, database, monkeypatch
    ):
        """An append lands between two reads of one batch; every reading
        round still sees the one snapshot taken at the first read.  Catches
        a memo that asks the store on every read (a second, newer snapshot)
        and one memo per context instead of per batch."""
        log = database.log_database
        version_before = len(log)
        reads = []
        original_read = FeedbackContext.log_snapshot

        def recording(self):
            snapshot = original_read(self)
            reads.append(snapshot)
            return snapshot

        monkeypatch.setattr(FeedbackContext, "log_snapshot", recording)

        class AppendingReader(RelevanceFeedbackAlgorithm):
            """Reads the log, then appends to it mid-batch."""

            name = "appending-reader"

            def score(self, context):
                context.log_snapshot()
                context.database.log_database.extend(
                    [LogSession(judgements={0: 1, 5: -1}, query_index=0)]
                )
                return -SearchEngine(context.database).pool_distances(
                    context.database.features_of(np.array([0]))
                )[0]

        monkeypatch.setitem(registry._FACTORIES, "appending-reader", AppendingReader)
        service = RetrievalService(database, log_policy="off")
        opened = service.open_sessions(
            [
                SearchRequest(query=1, top_k=10, algorithm="appending-reader"),
                SearchRequest(query=2, top_k=10, algorithm="euclidean"),
                SearchRequest(query=3, top_k=10, algorithm="lrf-2svms"),
                SearchRequest(query=4, top_k=10, algorithm="lrf-2svms"),
            ]
        )
        snapshots = _count_snapshots(monkeypatch, database)
        service.submit_feedback_batch(
            [
                FeedbackRequest(
                    session_id=r.session_id,
                    judgements={int(i): 1 if k % 2 else -1
                                for k, i in enumerate(r.image_indices[:6])},
                    top_k=10,
                )
                for r in opened
            ]
        )
        assert len(log) == version_before + 1  # the append did land
        assert len(snapshots) == 1
        assert len(reads) == 3  # the reader and both lrf-2svms rounds
        assert all(read is snapshots[0] for read in reads)
        assert snapshots[0].version == version_before


class TestReuseIsExact:
    @pytest.mark.parametrize("open_k, round_k", [(10, 10), (10, 4), (None, 7), (None, None)])
    def test_a_reused_round_equals_a_fresh_batch_search(
        self, database, scans, open_k, round_k
    ):
        """Indices and score bits of a reused round are those of a fresh
        scan of the same batch.  Catches a prefix of the wrong length, a
        ranking taken from another session of the wave, and scores that are
        not the scan's."""
        service = RetrievalService(database)
        queries = [Query(query_index=i) for i in (3, 17, 40, 41, 59)]
        opened = service.open_sessions(
            [SearchRequest(query=q, top_k=open_k, algorithm="euclidean") for q in queries]
        )
        del scans[:]
        rounds = service.submit_feedback_batch(
            [_round(r.session_id, top_k=round_k) for r in opened]
        )
        assert scans == []
        fresh = SearchEngine(database).batch_search(queries, top_k=round_k)
        for got, want in zip(rounds, fresh):
            _assert_same_bits(got.result, want)

    @pytest.mark.parametrize("open_k, round_k", [(5, 10), (10, None)])
    def test_a_round_falls_back_to_a_scan_when_the_ranking_is_short(
        self, database, scans, open_k, round_k
    ):
        """A larger ``top_k``, or a full ranking after a top-k open, scans
        once for the batch.  Catches a reuse that skips the length check
        (it would answer with the short ranking)."""
        service = RetrievalService(database)
        queries = [Query(query_index=i) for i in (0, 9, 33)]
        opened = service.open_sessions(
            [SearchRequest(query=q, top_k=open_k, algorithm="euclidean") for q in queries]
        )
        del scans[:]
        rounds = service.submit_feedback_batch(
            [_round(r.session_id, top_k=round_k) for r in opened]
        )
        assert scans == [(3, round_k)]
        fresh = SearchEngine(database).batch_search(queries, top_k=round_k)
        for got, want in zip(rounds, fresh):
            _assert_same_bits(got.result, want)

    def test_only_the_sessions_that_need_it_scan(self, database, scans):
        """A batch of one covered and one short session scans only the
        short one.  Catches an all-or-nothing reuse."""
        service = RetrievalService(database)
        covered, short = service.open_sessions(
            [
                SearchRequest(query=4, top_k=12, algorithm="euclidean"),
                SearchRequest(query=8, top_k=3, algorithm="euclidean"),
            ]
        )
        del scans[:]
        got = service.submit_feedback_batch(
            [_round(covered.session_id, top_k=6), _round(short.session_id, top_k=6)]
        )
        assert scans == [(1, 6)]
        _assert_same_bits(
            got[1].result, SearchEngine(database).search(Query(query_index=8), top_k=6)
        )
        np.testing.assert_array_equal(got[0].image_indices, covered.image_indices[:6])

    def test_a_resumed_session_is_served_from_its_stored_ranking(
        self, database, scans, tmp_path
    ):
        """A fresh service over a reloaded ``FileSessionStore`` answers from
        the persisted ranking, bit for bit.  Catches a state that drops or
        re-encodes ``last_indices`` / ``last_scores`` on the way to disk,
        and a service that does not hand the stored ranking to the round."""
        first = RetrievalService(
            database, store=FileSessionStore(tmp_path / "s")
        )
        opened = first.open_sessions(
            [SearchRequest(query=q, top_k=10, algorithm="euclidean") for q in (5, 6)]
        )
        del first, scans[:]
        resumed = RetrievalService(
            database, store=FileSessionStore(tmp_path / "s")
        )
        rounds = resumed.submit_feedback_batch([_round(r.session_id, top_k=8) for r in opened])
        assert scans == []
        for got, was in zip(rounds, opened):
            np.testing.assert_array_equal(got.image_indices, was.image_indices[:8])
            assert got.scores.tobytes() == was.scores[:8].tobytes()


class TestReuseIsEuclideanOnly:
    def test_an_lrf_csvm_session_never_reuses_its_round_0_ranking(
        self, database, monkeypatch
    ):
        """Round 0 of every session is a Euclidean search; a learning round
        must still be scored.  Catches a reuse keyed on the stored ranking's
        label instead of on the session's strategy."""
        scored = []
        original = LRFCSVM.score

        def counting(self, context):
            scored.append(context.query)
            return original(self, context)

        monkeypatch.setattr(LRFCSVM, "score", counting)
        service = RetrievalService(database, log_policy="off")
        opened = service.open_session(SearchRequest(query=0, top_k=10, algorithm="lrf-csvm"))
        assert opened.result.algorithm == "euclidean"
        refined = service.submit_feedback(opened.session_id, {0: 1, 1: 1, 30: -1}, top_k=10)
        assert len(scored) == 1
        assert refined.result.algorithm == "lrf-csvm"

    @pytest.mark.parametrize(
        "previous",
        [
            RetrievalResult(np.arange(60), -np.arange(60.0), Query(query_index=3), "lrf-csvm"),
            RetrievalResult(np.arange(60), -np.arange(60.0), Query(query_index=4), "euclidean"),
        ],
        ids=["other-algorithm", "other-query"],
    )
    def test_a_foreign_ranking_is_not_reused(self, database, previous):
        """Catches a reuse that checks neither the ranking's scheme nor its
        query."""
        context = FeedbackContext(
            database=database,
            query=Query(query_index=3),
            labeled_indices=np.array([0]),
            labels=np.array([1.0]),
            previous_ranking=previous,
        )
        algorithm = EuclideanFeedback()
        want = SearchEngine(database).search(Query(query_index=3), top_k=5)
        for got in (algorithm.rank(context, top_k=5), algorithm.rank_batch([context], top_k=5)[0]):
            np.testing.assert_array_equal(got.image_indices, want.image_indices)

    def test_an_external_query_reuses_only_its_own_vector(self, database):
        """External queries compare by feature vector."""
        vector = database.features[7] + 0.5
        previous = SearchEngine(database).search(Query(feature_vector=vector), top_k=6)
        context = FeedbackContext(
            database=database,
            query=Query(feature_vector=vector),
            labeled_indices=np.array([0]),
            labels=np.array([1.0]),
            previous_ranking=previous,
        )
        _assert_same_bits(EuclideanFeedback().rank(context, top_k=6), previous)
        other = FeedbackContext(
            database=database,
            query=Query(feature_vector=vector + 1.0),
            labeled_indices=np.array([0]),
            labels=np.array([1.0]),
            previous_ranking=previous,
        )
        want = SearchEngine(database).search(Query(feature_vector=vector + 1.0), top_k=6)
        got = EuclideanFeedback().rank(other, top_k=6)
        np.testing.assert_array_equal(got.image_indices, want.image_indices)
