"""Tests of the durable close protocol (service layer).

Under ``on_close`` + a close-intent-capable store, ``close_sessions`` runs
intent → flush → delete → clear.  These tests drive the protocol through
the deterministic fault seam and assert the two invariants that close the
cluster's last loss window:

* **zero lost rounds** — once the intent is written, the session's records
  reach the log no matter where the close crashes (replay rolls forward);
* **exactly-once** — however many replays run (restart recovery, client
  re-send, explicit recovery calls), the log commits the records once.
"""

from __future__ import annotations

import collections

import pytest

from repro.cbir.database import ImageDatabase
from repro.datasets.pool import GaussianPoolConfig, make_pool_dataset
from repro.exceptions import FaultInjectedError, SessionError
from repro.logdb import FileLogStore
from repro.service import RetrievalService
from repro.service.store import FileSessionStore
from repro.utils.faults import FaultPlan, installed

POOL_CONFIG = GaussianPoolConfig(
    num_vectors=200, dim=5, num_clusters=4, num_queries=3, seed=23
)


@pytest.fixture(scope="module")
def dataset():
    built, _ = make_pool_dataset(POOL_CONFIG, name="close-protocol")
    return built


def _service(dataset, tmp_path):
    """A fresh service over the (shared, on-disk) session and log stores."""
    log_store = FileLogStore(tmp_path / "log", num_images=dataset.num_images)
    database = ImageDatabase(dataset, log_database=log_store)
    return RetrievalService(
        database,
        store=FileSessionStore(tmp_path / "sessions"),
        log_policy="on_close",
    )


def _open_with_round(service, session_id="s1", query=0):
    opened = service.open_session(
        query, top_k=8, session_id=session_id, algorithm="euclidean"
    )
    service.submit_feedback(session_id, {int(opened.image_indices[0]): 1})
    return opened


def _log_counts(tmp_path):
    return collections.Counter(
        record.query_index for record in FileLogStore(tmp_path / "log").scan()
    )


class TestHappyPath:
    def test_close_flushes_and_leaves_no_intent(self, dataset, tmp_path):
        service = _service(dataset, tmp_path)
        _open_with_round(service)
        view = service.close_session("s1")
        assert view.closed and view.rounds_completed == 1
        assert _log_counts(tmp_path) == {0: 1}
        assert service.store.close_intent_ids() == []
        with pytest.raises(SessionError):
            service.get_session("s1")

    def test_zero_round_close_skips_the_intent_machinery(self, dataset, tmp_path):
        service = _service(dataset, tmp_path)
        service.open_session(0, top_k=8, session_id="s1", algorithm="euclidean")
        # A fault armed on the intent-write step must never fire: sessions
        # with no completed rounds have nothing to lose.
        with installed(FaultPlan.single("store.after_intent_write")):
            view = service.close_session("s1")
        assert view.closed and view.rounds_completed == 0
        assert _log_counts(tmp_path) == {}
        assert service.store.close_intent_ids() == []

    def test_recover_with_no_pending_intents_is_a_noop(self, dataset, tmp_path):
        service = _service(dataset, tmp_path)
        assert service.recover_close_intents() == []
        assert service.recover_close_intents(["missing"]) == []


class TestCrashWindows:
    """One test per protocol step; "raise" faults model the crash point."""

    def test_crash_before_intent_write_loses_only_the_close(self, dataset, tmp_path):
        service = _service(dataset, tmp_path)
        _open_with_round(service)
        with installed(FaultPlan.single("close.before_intent_write")):
            with pytest.raises(FaultInjectedError):
                service.close_session("s1")
        # Nothing committed: no intent, no log records, session intact.
        assert service.store.close_intent_ids() == []
        assert _log_counts(tmp_path) == {}
        # The re-sent close completes normally.
        assert service.close_session("s1").closed
        assert _log_counts(tmp_path) == {0: 1}

    def test_crash_between_intent_and_flush_rolls_forward(self, dataset, tmp_path):
        service = _service(dataset, tmp_path)
        _open_with_round(service)
        with installed(FaultPlan.single("close.before_log_flush")):
            with pytest.raises(FaultInjectedError):
                service.close_session("s1")
        assert service.store.close_intent_ids() == ["s1"]
        assert _log_counts(tmp_path) == {}  # crash BEFORE the flush
        assert service.recover_close_intents() == ["s1"]
        assert _log_counts(tmp_path) == {0: 1}  # rolled forward
        assert service.store.close_intent_ids() == []
        with pytest.raises(SessionError):  # replay completed the delete
            service.get_session("s1")

    def test_crash_between_flush_and_delete_dedups(self, dataset, tmp_path):
        service = _service(dataset, tmp_path)
        _open_with_round(service)
        with installed(FaultPlan.single("close.after_log_flush")):
            with pytest.raises(FaultInjectedError):
                service.close_session("s1")
        assert _log_counts(tmp_path) == {0: 1}  # flushed before the crash
        # The client re-sends the whole close: same deterministic token,
        # so the second flush is a dedup no-op.
        assert service.close_session("s1").closed
        assert _log_counts(tmp_path) == {0: 1}
        assert service.store.close_intent_ids() == []

    def test_crash_between_delete_and_clear_replays_cleanly(self, dataset, tmp_path):
        service = _service(dataset, tmp_path)
        _open_with_round(service)
        with installed(FaultPlan.single("close.after_delete")):
            with pytest.raises(FaultInjectedError):
                service.close_session("s1")
        assert _log_counts(tmp_path) == {0: 1}
        assert service.store.close_intent_ids() == ["s1"]  # only clear was lost
        assert service.recover_close_intents() == ["s1"]
        assert _log_counts(tmp_path) == {0: 1}  # dedup: no double commit
        assert service.store.close_intent_ids() == []


class TestRestartRecovery:
    """The satellite scenarios: orphaned intents replayed on service start."""

    def test_orphan_with_flushed_log(self, dataset, tmp_path):
        # Crash after the flush: intent present, records committed.
        service = _service(dataset, tmp_path)
        _open_with_round(service)
        with installed(FaultPlan.single("close.after_log_flush")):
            with pytest.raises(FaultInjectedError):
                service.close_session("s1")
        del service  # "process crash"

        restarted = _service(dataset, tmp_path)  # __init__ replays intents
        assert restarted.store.close_intent_ids() == []
        assert _log_counts(tmp_path) == {0: 1}  # exactly once
        with pytest.raises(SessionError):
            restarted.get_session("s1")

    def test_orphan_with_missing_log(self, dataset, tmp_path):
        # Crash between intent write and flush: intent present, log empty.
        service = _service(dataset, tmp_path)
        _open_with_round(service)
        with installed(FaultPlan.single("close.before_log_flush")):
            with pytest.raises(FaultInjectedError):
                service.close_session("s1")
        assert _log_counts(tmp_path) == {}
        del service

        restarted = _service(dataset, tmp_path)
        assert restarted.store.close_intent_ids() == []
        assert _log_counts(tmp_path) == {0: 1}  # the intent IS the commit
        with pytest.raises(SessionError):
            restarted.get_session("s1")

    def test_stale_intent_from_prior_epoch_spares_fresh_session(
        self, dataset, tmp_path
    ):
        # An intent stranded by a crashed close must not delete a *fresh*
        # session that merely reused the id after the original was
        # discarded: created_at is the epoch check.
        service = _service(dataset, tmp_path)
        _open_with_round(service)
        with installed(FaultPlan.single("close.before_log_flush")):
            with pytest.raises(FaultInjectedError):
                service.close_session("s1")
        assert service.store.close_intent_ids() == ["s1"]
        service.discard_session("s1")
        service.open_session(  # new epoch
            1, top_k=8, session_id="s1", algorithm="euclidean"
        )
        del service

        restarted = _service(dataset, tmp_path)
        assert restarted.store.close_intent_ids() == []
        assert _log_counts(tmp_path) == {0: 1}  # old rounds still flushed
        # The fresh session survived the replay.
        assert restarted.get_session("s1").rounds_completed == 0

    def test_replay_is_idempotent_across_many_recoveries(self, dataset, tmp_path):
        service = _service(dataset, tmp_path)
        _open_with_round(service)
        with installed(FaultPlan.single("close.before_log_flush")):
            with pytest.raises(FaultInjectedError):
                service.close_session("s1")
        del service
        for _ in range(3):  # every restart replays; only the first commits
            restarted = _service(dataset, tmp_path)
            restarted.recover_close_intents()
            del restarted
        assert _log_counts(tmp_path) == {0: 1}
