"""Deterministic chaos: the fault-matrix, kill-during-close, router-fault
and rendezvous-property tests of the hardened cluster tier.

The heart of the suite is the **protocol-step × fault-point matrix**: for
every named fault point of the close protocol (and the worker wave loop),
a 2-worker cluster runs with an ``exit`` rule scoped to the session's home
worker — the deterministic equivalent of a SIGKILL landing at exactly that
step.  The plan is armed in the test process around router construction;
the forked workers inherit it and re-arm it under their own ids.  The
armed worker must die, and after the cluster reconciles, the shared log
must hold **exactly one** record per completed round (zero lost, zero
duplicated) and no orphaned close intent may remain.
"""

from __future__ import annotations

import collections
import random

import pytest

from repro.cluster import ClusterConfig, ClusterRouter, rendezvous_owner
from repro.cluster.faults import (
    ALL_POINTS,
    CLOSE_AFTER_DELETE,
    CLOSE_AFTER_FLUSH,
    CLOSE_BEFORE_FLUSH,
    CLOSE_BEFORE_INTENT,
    ROUTER_BEFORE_SHIP,
    STORE_AFTER_INTENT,
    STORE_BEFORE_DELETE,
    STORE_BEFORE_INTENT_CLEAR,
    WORKER_BEFORE_WAVE,
    WORKER_MID_WAVE,
)
from repro.datasets.pool import GaussianPoolConfig, make_pool_dataset
from repro.logdb import FileLogStore
from repro.service.store import FileSessionStore
from repro.utils.faults import FaultPlan, FaultRule, installed

POOL_CONFIG = GaussianPoolConfig(
    num_vectors=300, dim=6, num_clusters=5, num_queries=4, seed=11
)


def _factory():
    dataset, _ = make_pool_dataset(POOL_CONFIG, name="cluster-fault-test")
    return dataset


def _config(tmp_path, **overrides):
    defaults = dict(
        session_dir=tmp_path / "sessions",
        log_dir=tmp_path / "log",
        num_workers=2,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def _log_counts(tmp_path):
    return collections.Counter(
        record.query_index for record in FileLogStore(tmp_path / "log").scan()
    )


def _leftover_intents(tmp_path):
    return FileSessionStore(tmp_path / "sessions").close_intent_ids()


#: The matrix rows: (fault point, match filter, 1-based hit that fires).
#: Every point of the close protocol plus the worker wave loop for each
#: mutating op.  The hit index matters only where the point also fires on
#: earlier protocol steps (none here — the filters make each row precise).
MATRIX = [
    pytest.param(CLOSE_BEFORE_INTENT, {}, id="close.before_intent_write"),
    pytest.param(STORE_AFTER_INTENT, {}, id="store.after_intent_write"),
    pytest.param(CLOSE_BEFORE_FLUSH, {}, id="close.before_log_flush"),
    pytest.param(CLOSE_AFTER_FLUSH, {}, id="close.after_log_flush"),
    pytest.param(STORE_BEFORE_DELETE, {}, id="store.before_delete"),
    pytest.param(CLOSE_AFTER_DELETE, {}, id="close.after_delete"),
    pytest.param(STORE_BEFORE_INTENT_CLEAR, {}, id="store.before_intent_clear"),
    pytest.param(WORKER_BEFORE_WAVE, {"op": "open"}, id="worker.before_wave[open]"),
    pytest.param(WORKER_MID_WAVE, {"op": "open"}, id="worker.mid_wave_kill[open]"),
    pytest.param(
        WORKER_BEFORE_WAVE, {"op": "feedback"}, id="worker.before_wave[feedback]"
    ),
    pytest.param(
        WORKER_MID_WAVE, {"op": "feedback"}, id="worker.mid_wave_kill[feedback]"
    ),
    pytest.param(WORKER_BEFORE_WAVE, {"op": "close"}, id="worker.before_wave[close]"),
    pytest.param(WORKER_MID_WAVE, {"op": "close"}, id="worker.mid_wave_kill[close]"),
]


class TestFaultMatrix:
    @pytest.mark.parametrize("point, match", MATRIX)
    def test_exactly_once_through_every_crash_point(self, tmp_path, point, match):
        """Kill the home worker at *point*; the round count must not move."""
        session_id = "matrix-victim"
        victim = rendezvous_owner(session_id, [0, 1])
        plan = FaultPlan.single(
            point, action="exit", worker_id=victim, match=match
        )
        with installed(plan), ClusterRouter(_factory, _config(tmp_path)) as router:
            opened = router.open_session(
                0, top_k=8, session_id=session_id, algorithm="euclidean"
            )
            refined = router.submit_feedback(
                session_id, {int(opened.image_indices[0]): 1}
            )
            assert refined.round_index == 1
            view = router.close_session(session_id)
            assert view.closed and view.rounds_completed == 1
            # The fault fired: the armed worker is dead, not merely idle.
            assert router.alive_worker_ids == [1 - victim]
        assert _log_counts(tmp_path) == {0: 1}
        assert _leftover_intents(tmp_path) == []

    def test_matrix_covers_the_whole_catalogue(self):
        # Guard against the catalogue growing without the matrix noticing.
        covered = {entry.values[0] for entry in MATRIX}
        exempt = {
            # Fires on open/feedback puts too — exercised by the rows above
            # on its own schedule, not a distinct close-protocol step.
            "store.before_put",
            # Router-process points: exit would kill the test process.
            ROUTER_BEFORE_SHIP,
        }
        assert covered | exempt >= set(ALL_POINTS)


class TestKillDuringCloseWave:
    """The chaos satellite: a whole close wave dies mid-protocol."""

    @pytest.mark.parametrize(
        "point",
        [CLOSE_BEFORE_FLUSH, CLOSE_AFTER_DELETE],
        ids=["pre-fix-window", "post-fix-window"],
    )
    def test_zero_lost_zero_duplicated(self, tmp_path, point):
        """Close 6 one-round sessions; the home worker of a batch dies at
        *point*.  ``close.before_log_flush`` is the pre-fix loss window
        (records only in the intent), ``close.after_delete`` the post-fix
        one (state deleted, intent not yet cleared) — both must reconcile
        to exactly one log record per session."""
        victim = 0
        plan = FaultPlan.single(point, action="exit", worker_id=victim)
        with installed(plan), ClusterRouter(_factory, _config(tmp_path)) as router:
            # Client-chosen ids, salted until the rendezvous hash sends every
            # other one to the victim: router-minted ids are random, and a
            # draw with none on the victim never runs the armed protocol.
            session_ids = [
                next(
                    candidate
                    for candidate in (f"close-{i}-{salt}" for salt in range(256))
                    if rendezvous_owner(candidate, [0, 1]) == i % 2
                )
                for i in range(6)
            ]
            for i, session_id in enumerate(session_ids):
                opened = router.open_session(
                    i % 4, top_k=8, algorithm="euclidean", session_id=session_id
                )
                router.submit_feedback(
                    session_id, {int(opened.image_indices[0]): 1}
                )
            # One call: each worker gets its three sessions as one wave.
            views = router.close_sessions(session_ids)
            assert all(view.closed for view in views)
            assert all(view.rounds_completed == 1 for view in views)
            assert router.alive_worker_ids == [1 - victim]
        counts = _log_counts(tmp_path)
        assert sum(counts.values()) == 6  # zero lost, zero duplicated
        assert _leftover_intents(tmp_path) == []


class TestRouterFaults:
    @pytest.mark.parametrize("action", ["raise", "drop"])
    def test_router_before_ship_fails_over(self, tmp_path, action):
        # A failed put in the router's own ship path — the seam's error, or
        # a connection reset (an OSError, as a closed queue raises) — must
        # fail the wave over (WorkerDiedError → reconcile → re-send) once,
        # not raise into the client's call.
        config = _config(tmp_path)
        with ClusterRouter(_factory, config) as router:
            opened = router.open_session(0, top_k=8, algorithm="euclidean")
            plan = FaultPlan.single(
                ROUTER_BEFORE_SHIP, action=action, match={"op": "feedback"}
            )
            with installed(plan):
                refined = router.submit_feedback(
                    opened.session_id, {int(opened.image_indices[0]): 1}
                )
            assert refined.round_index == 1
            router.close_session(opened.session_id)
        assert _log_counts(tmp_path) == {0: 1}


class TestRendezvousProperties:
    """Property-style tests of the pure routing function (satellite 2)."""

    WORKERS = [0, 1, 2, 3, 4]

    def _population(self, n=300):
        rng = random.Random(7)
        return [f"sess-{rng.getrandbits(64):016x}" for _ in range(n)]

    def test_stable_under_permutation(self):
        rng = random.Random(13)
        for sid in self._population(50):
            owner = rendezvous_owner(sid, self.WORKERS)
            for _ in range(5):
                shuffled = self.WORKERS[:]
                rng.shuffle(shuffled)
                assert rendezvous_owner(sid, shuffled) == owner

    def test_removal_moves_only_the_removed_workers_sessions(self):
        population = self._population()
        before = {sid: rendezvous_owner(sid, self.WORKERS) for sid in population}
        for removed in self.WORKERS:
            remaining = [w for w in self.WORKERS if w != removed]
            for sid in population:
                after = rendezvous_owner(sid, remaining)
                if before[sid] == removed:
                    assert after != removed  # re-routed somewhere alive
                else:
                    assert after == before[sid]  # completely undisturbed

    def test_re_adding_restores_the_original_placement(self):
        population = self._population()
        before = {sid: rendezvous_owner(sid, self.WORKERS) for sid in population}
        remaining = [w for w in self.WORKERS if w != 2]
        # Re-add in a different position: ownership is order-independent.
        restored = remaining + [2]
        for sid in population:
            assert rendezvous_owner(sid, restored) == before[sid]

    def test_every_worker_gets_a_share(self):
        population = self._population()
        owners = collections.Counter(
            rendezvous_owner(sid, self.WORKERS) for sid in population
        )
        assert set(owners) == set(self.WORKERS)
        # No worker hogs the population: crude balance bound for 300 ids
        # over 5 workers (expected 60 each).
        assert max(owners.values()) < 3 * min(owners.values())
