"""Tests of the :mod:`repro.cluster` tier: routing, lifecycle, failure.

The load-bearing guarantees:

* a cluster serves the same rankings as a single-process service
  (bit-identical indices — workers run the exact same stack);
* rendezvous hashing is deterministic and minimally disruptive (killing a
  worker only re-routes the sessions that lived on it);
* a worker that dies mid-feedback-wave degrades gracefully — requests
  re-route or fail with typed errors, nothing hangs, and after recovery
  the shared log holds **exactly one** record per completed round (no
  losses, no duplicates);
* the whole fleet dying surfaces :class:`NoWorkersError`, not a deadlock;
* every worker caps its BLAS pools at its share of the usable CPUs, a
  restarted worker included, and reports the applied value.
"""

from __future__ import annotations

import collections
import logging
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterRouter, rendezvous_owner
from repro.cluster.faults import WORKER_BEFORE_WAVE, WORKER_MID_WAVE
from repro.cluster.messages import WorkerRequest
from repro.datasets.pool import GaussianPoolConfig, make_pool_dataset
from repro.exceptions import (
    ClusterError,
    NoWorkersError,
    SessionError,
    ValidationError,
    WorkerDiedError,
)
from repro.logdb import FileLogStore
from repro.obs import configure, get_hub
from repro.service import RetrievalService, SearchRequest
from repro.service.store import FileSessionStore
from repro.cbir.database import ImageDatabase
from repro.utils import blas
from repro.utils.blas import blas_thread_counts, limit_blas_threads
from repro.utils.faults import FaultPlan

POOL_CONFIG = GaussianPoolConfig(
    num_vectors=300, dim=6, num_clusters=5, num_queries=4, seed=11
)


def _factory():
    dataset, _ = make_pool_dataset(POOL_CONFIG, name="cluster-test")
    return dataset


def _config(tmp_path, **overrides):
    defaults = dict(
        session_dir=tmp_path / "sessions",
        log_dir=tmp_path / "log",
        num_workers=2,
        coalesce_window=0.002,
        request_timeout=20.0,
        retry_limit=3,
        poll_interval=0.02,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


# The id names the one transport: an mp.Queue pair per worker.
@pytest.fixture(params=["queue"])
def cluster(tmp_path):
    router = ClusterRouter(_factory, _config(tmp_path))
    yield router
    router.stop()


class TestConfigValidation:
    def test_rejects_bad_values(self, tmp_path):
        good = dict(session_dir=tmp_path / "s", log_dir=tmp_path / "l")
        with pytest.raises(ValidationError, match="num_workers"):
            ClusterConfig(num_workers=0, **good)
        with pytest.raises(ValidationError, match="log_policy"):
            ClusterConfig(log_policy="sometimes", **good)
        with pytest.raises(ValidationError, match="coalesce_window"):
            ClusterConfig(coalesce_window=-1, **good)
        with pytest.raises(ValidationError, match="retry_limit"):
            ClusterConfig(retry_limit=-1, **good)
        # Counts must be integers: a fraction is rejected, not truncated.
        with pytest.raises(ValidationError, match="num_workers"):
            ClusterConfig(num_workers=2.5, **good)
        with pytest.raises(ValidationError, match="retry_limit"):
            ClusterConfig(retry_limit=1.5, **good)
        # Non-finite timings pass a sign check but break the router's
        # dispatcher, monitor or every call's wait.
        for name in ("coalesce_window", "request_timeout", "poll_interval"):
            for value in (float("inf"), float("-inf"), float("nan")):
                with pytest.raises(ValidationError, match=name):
                    ClusterConfig(**{name: value}, **good)

    def test_rejects_unknown_op(self):
        with pytest.raises(ValidationError, match="unknown cluster op"):
            WorkerRequest(1, "frobnicate", ())


class TestRouting:
    def test_rendezvous_is_deterministic(self, cluster):
        ids = [f"session-{i}" for i in range(40)]
        first = {sid: cluster.worker_for(sid) for sid in ids}
        second = {sid: cluster.worker_for(sid) for sid in ids}
        assert first == second
        # Both workers get some share of a 40-session population.
        assert len(set(first.values())) == cluster.num_workers

    def test_death_only_moves_the_dead_workers_sessions(self, tmp_path):
        with ClusterRouter(_factory, _config(tmp_path, num_workers=3)) as router:
            ids = [f"session-{i}" for i in range(60)]
            before = {sid: router.worker_for(sid) for sid in ids}
            victim = router.worker_for(ids[0])
            router.kill_worker(victim)
            deadline = time.time() + 5.0
            while victim in router.alive_worker_ids and time.time() < deadline:
                time.sleep(0.02)
            assert victim not in router.alive_worker_ids
            for sid in ids:
                after = router.worker_for(sid)
                if before[sid] == victim:
                    assert after != victim  # re-routed somewhere alive
                else:
                    assert after == before[sid]  # undisturbed (rendezvous)


class TestLifecycle:
    def test_open_feedback_close_roundtrip(self, cluster):
        response = cluster.open_session(0, top_k=10, algorithm="euclidean")
        assert response.round_index == 0
        assert len(response.image_indices) == 10
        refined = cluster.submit_feedback(
            response.session_id, {int(response.image_indices[0]): 1}
        )
        assert refined.round_index == 1
        last = cluster.last_response(response.session_id)
        assert last.round_index == 1
        np.testing.assert_array_equal(last.image_indices, refined.image_indices)
        view = cluster.close_session(response.session_id)
        assert view.closed and view.rounds_completed == 1
        assert cluster.session_ids() == []

    def test_cluster_matches_single_process_service(self, cluster, tmp_path):
        # The same stack served locally must produce bit-identical rankings:
        # a cluster is a deployment choice, not a different algorithm.
        local = RetrievalService(
            ImageDatabase(_factory()),
            store=FileSessionStore(tmp_path / "local-sessions"),
            default_algorithm="euclidean",
        )
        for query, algorithm in ((0, "euclidean"), (7, "rf-svm")):
            remote0 = cluster.open_session(query, top_k=12, algorithm=algorithm)
            local0 = local.open_session(query, top_k=12, algorithm=algorithm)
            np.testing.assert_array_equal(
                remote0.image_indices, local0.image_indices
            )
            judgements = {
                int(idx): (1 if rank % 2 == 0 else -1)
                for rank, idx in enumerate(remote0.image_indices[:6])
            }
            remote1 = cluster.submit_feedback(remote0.session_id, judgements)
            local1 = local.submit_feedback(local0.session_id, judgements)
            np.testing.assert_array_equal(
                remote1.image_indices, local1.image_indices
            )
            cluster.close_session(remote0.session_id)
            local.close_session(local0.session_id)

    def test_concurrent_clients_coalesce_into_waves(self, cluster):
        configure()  # fresh hub so the wave histogram starts empty
        try:
            results = []
            start = threading.Barrier(12)

            def client(query):
                start.wait()
                response = cluster.open_session(query, top_k=10, algorithm="euclidean")
                for _ in range(2):
                    response = cluster.submit_feedback(
                        response.session_id, {int(response.image_indices[0]): 1}
                    )
                cluster.close_session(response.session_id)
                results.append(response.round_index)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(12)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [2] * 12
            # Released together, the per-call clients must share a wave.
            assert get_hub().metrics.histogram("cluster.wave.size").snapshot()["max"] >= 2
            # Exactly-once: every client's distinct query is logged once per round.
            counts = collections.Counter(
                record.query_index for record in FileLogStore(cluster.config.log_dir).scan()
            )
            assert counts == {query: 2 for query in range(12)}
        finally:
            get_hub().enabled = False

    def test_single_worker_cluster_works(self, tmp_path):
        with ClusterRouter(_factory, _config(tmp_path, num_workers=1)) as router:
            opened = router.open_session(3, top_k=8, algorithm="euclidean")
            refined = router.submit_feedback(
                opened.session_id, {int(opened.image_indices[0]): 1}
            )
            assert refined.round_index == 1
            assert router.close_session(opened.session_id).closed

    def test_ping_and_stats(self, cluster):
        assert cluster.ping() == {0: "pong", 1: "pong"}
        cluster.open_session(1, top_k=5, algorithm="euclidean")
        stats = cluster.stats()
        assert stats["alive_workers"] == 2
        assert stats["open_sessions"] == 1
        assert set(stats["per_worker"]) == {0, 1}
        # The session store is shared: every worker sees the same count.
        assert all(
            w["open_sessions"] == 1 for w in stats["per_worker"].values()
        )

    def test_stop_is_idempotent_and_rejects_new_work(self, tmp_path):
        router = ClusterRouter(_factory, _config(tmp_path))
        router.stop()
        router.stop()
        with pytest.raises(ClusterError, match="not running"):
            router.open_session(0, algorithm="euclidean")


class TestErrorPropagation:
    def test_unknown_session_raises_typed_error(self, cluster):
        with pytest.raises(SessionError):
            cluster.submit_feedback("no-such-session", {0: 1})
        with pytest.raises(SessionError):
            cluster.get_session("no-such-session")
        with pytest.raises(SessionError):
            cluster.close_session("no-such-session")

    def test_algorithm_instances_are_rejected(self, cluster):
        from repro.feedback import make_algorithm

        with pytest.raises(ValidationError, match="registry-named"):
            cluster.open_session(0, algorithm=make_algorithm("euclidean"))

    def test_duplicate_session_id_fails_alone(self, cluster):
        cluster.open_session(0, session_id="taken", algorithm="euclidean")
        with pytest.raises(SessionError):
            cluster.open_session(1, session_id="taken", algorithm="euclidean")
        # The original session is unharmed by the rejected duplicate.
        assert cluster.get_session("taken").rounds_completed == 0
        cluster.close_session("taken")

    def test_bad_item_in_coalesced_wave_fails_alone(self, tmp_path):
        # One malformed request coalescing into a wave with a healthy one
        # must not fail the healthy request (per-item fallback).
        config = _config(tmp_path, coalesce_window=0.05)
        with ClusterRouter(_factory, config) as router:
            router.open_session(0, session_id="dup", algorithm="euclidean")
            outcomes = {}

            def opener(name, request):
                try:
                    outcomes[name] = router.open_sessions([request])[0]
                except Exception as exc:
                    outcomes[name] = exc

            good = SearchRequest(query=1, algorithm="euclidean",
                                 session_id="fresh")
            bad = SearchRequest(query=2, algorithm="euclidean",
                                session_id="dup")
            # Same rendezvous target: both ids hash wherever they hash, so
            # force the wave by aligning the ids' routes.
            threads = [
                threading.Thread(target=opener, args=("good", good)),
                threading.Thread(target=opener, args=("bad", bad)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert isinstance(outcomes["bad"], SessionError)
            assert outcomes["good"].session_id == "fresh"
            router.close_session("fresh")
            router.close_session("dup")


class TestWorkerDeath:
    @pytest.mark.parametrize(
        "point", [WORKER_BEFORE_WAVE, WORKER_MID_WAVE],
        ids=["before_wave", "mid_wave"],
    )
    def test_kill_mid_feedback_wave_recovers_exactly_once(self, tmp_path, point):
        """The acceptance-criteria chaos test.

        A worker dies inside its first feedback wave: before the service
        runs (the round never committed) or after it committed but before
        the response ships (the reply is lost).  Every session must still
        complete its rounds (re-routed to the survivor), and after closing,
        the shared log must hold exactly ``rounds`` records per session —
        no lost rounds, no duplicates from the re-send path.
        """
        session_ids = [f"wave-{i}" for i in range(6)]
        victim = rendezvous_owner(session_ids[0], [0, 1])
        plan = FaultPlan.single(
            point, action="exit", worker_id=victim, match={"op": "feedback"}
        )
        config = _config(tmp_path, num_workers=2, fault_plan=plan)
        with ClusterRouter(_factory, config) as router:
            requests = [
                SearchRequest(
                    query=i, top_k=10, algorithm="euclidean", session_id=sid
                )
                for i, sid in enumerate(session_ids)
            ]
            opens = router.open_sessions(requests)
            failures = []
            rounds = {}

            def one_round(response):
                try:
                    refined = router.submit_feedback(
                        response.session_id,
                        {int(response.image_indices[0]): 1},
                    )
                    rounds[response.session_id] = refined.round_index
                except Exception as exc:  # pragma: no cover - assertion aid
                    failures.append((response.session_id, exc))

            threads = [
                threading.Thread(target=one_round, args=(r,)) for r in opens
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert failures == []
            assert sorted(rounds.values()) == [1] * 6
            assert router.alive_worker_ids == [w for w in (0, 1) if w != victim]

            # A second round and the close both land on the survivor.
            for session_id in session_ids:
                last = router.last_response(session_id)
                assert last.round_index == 1
                refined = router.submit_feedback(
                    session_id, {int(last.image_indices[1]): 1}
                )
                assert refined.round_index == 2
            views = router.close_sessions(session_ids)
            assert all(v.closed and v.rounds_completed == 2 for v in views)

            # Exactly-once: each session contributed exactly its two rounds.
            counts = collections.Counter(
                record.query_index for record in FileLogStore(tmp_path / "log").scan()
            )
            assert counts == {i: 2 for i in range(6)}

    def test_all_workers_dead_raises_no_workers_not_deadlock(self, tmp_path):
        config = _config(
            tmp_path, num_workers=2, request_timeout=5.0, retry_limit=1
        )
        with ClusterRouter(_factory, config) as router:
            opened = router.open_session(0, top_k=5, algorithm="euclidean")
            for worker_id in list(router.alive_worker_ids):
                router.kill_worker(worker_id)
            deadline = time.time() + 5.0
            while router.alive_worker_ids and time.time() < deadline:
                time.sleep(0.02)
            started = time.time()
            with pytest.raises((NoWorkersError, WorkerDiedError)):
                router.submit_feedback(
                    opened.session_id, {int(opened.image_indices[0]): 1}
                )
            # Typed failure well inside the timeout bound: no hang.
            assert time.time() - started < config.request_timeout + 5.0

    def test_auto_restart_restores_capacity_and_counts(self, tmp_path):
        configure()  # fresh hub: the restart counter starts at zero
        try:
            config = _config(
                tmp_path, num_workers=2, auto_restart=True, retry_limit=3
            )
            with ClusterRouter(_factory, config) as router:
                victim = router.worker_for("anything")
                router.kill_worker(victim)
                deadline = time.time() + 10.0
                while router.restarts < 1 and time.time() < deadline:
                    time.sleep(0.02)
                assert router.restarts == 1
                deadline = time.time() + 10.0
                while len(router.alive_worker_ids) < 2 and time.time() < deadline:
                    time.sleep(0.02)
                assert router.alive_worker_ids == [0, 1]
                hub = get_hub()
                assert hub.metrics.counter("cluster.worker.restarts").value == 1
                assert hub.metrics.gauge("cluster.workers.alive").value == 2
                # The restarted fleet serves normally.
                opened = router.open_session(2, top_k=5, algorithm="euclidean")
                assert router.close_session(opened.session_id).closed
        finally:
            get_hub().enabled = False


def _limit_in_child(limit, pipe):
    pipe.send((limit_blas_threads(limit), blas_thread_counts()))
    pipe.close()


def _wait_for(predicate, timeout=10.0):
    deadline = time.time() + timeout
    while not predicate() and time.time() < deadline:
        time.sleep(0.02)
    return predicate()


class TestBlasThreadBudget:
    """``run_worker`` caps the worker's BLAS pools at ``CPUs // num_workers``."""

    @pytest.fixture()
    def default_threads(self):
        counts = blas_thread_counts()
        if not counts:
            pytest.skip("no controllable BLAS thread pool is loaded in this process")
        return max(counts)

    def test_limit_reaches_the_pools_of_the_calling_process_only(self, default_threads):
        ctx = multiprocessing.get_context("fork")
        receiver, sender = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_limit_in_child, args=(1, sender))
        child.start()
        sender.close()
        assert receiver.poll(20), "the child never reported"
        applied, child_counts = receiver.recv()
        child.join(10)
        assert not child.is_alive()
        assert applied == 1
        assert child_counts and set(child_counts) == {1}
        assert max(blas_thread_counts()) == default_threads  # the parent's pools

    def test_limit_never_raises_a_thread_count(self, default_threads):
        assert limit_blas_threads(default_threads + 7) == default_threads
        assert max(blas_thread_counts()) == default_threads

    def test_workers_report_their_share_of_the_cpus(self, cluster, default_threads):
        per_worker = cluster.stats()["per_worker"]
        assert set(per_worker) == {0, 1}
        usable = len(os.sched_getaffinity(0))
        expected = min(default_threads, max(1, usable // 2))
        assert [stats["blas_threads"] for stats in per_worker.values()] == [expected] * 2
        assert 2 * expected <= max(usable, 2)

    def test_a_restarted_worker_applies_the_same_budget(self, tmp_path, default_threads):
        config = _config(tmp_path, num_workers=2, auto_restart=True)
        with ClusterRouter(_factory, config) as router:
            before = router.stats()["per_worker"]
            victim = router.worker_for("anything")
            router.kill_worker(victim)
            assert _wait_for(lambda: router.restarts == 1)
            assert _wait_for(lambda: router.alive_worker_ids == [0, 1])
            after = router.stats()["per_worker"]
            assert after[victim]["pid"] != before[victim]["pid"]
            assert after[victim]["blas_threads"] == before[victim]["blas_threads"]
            assert after[victim]["blas_threads"] is not None

    def test_a_single_worker_keeps_the_library_default(self, tmp_path, default_threads):
        with ClusterRouter(_factory, _config(tmp_path, num_workers=1)) as router:
            assert router.stats()["per_worker"][0]["blas_threads"] == default_threads
        assert max(blas_thread_counts()) == default_threads  # the router's own pools

    def test_no_controllable_blas_is_a_logged_no_op(self, monkeypatch, caplog):
        monkeypatch.setattr(blas, "_pools", lambda: [])
        with caplog.at_level(logging.WARNING, logger="repro.utils.blas"):
            assert limit_blas_threads(1) is None
        assert len(caplog.records) == 1
        assert "no controllable BLAS" in caplog.records[0].getMessage()

    def test_a_blas_that_cannot_be_driven_is_a_logged_no_op(self, monkeypatch, caplog):
        def broken():
            raise OSError("symbol lookup failed")

        monkeypatch.setattr(blas, "_pools", broken)
        with caplog.at_level(logging.WARNING, logger="repro.utils.blas"):
            assert limit_blas_threads(1) is None
        assert len(caplog.records) == 1
