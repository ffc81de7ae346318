"""Scatter-gather front-end of the cluster tier: one logical service.

A :class:`ClusterRouter` owns N worker processes (each a complete
:class:`~repro.service.RetrievalService` over the shared on-disk stores)
and exposes the service's own client surface — ``open_session``,
``submit_feedback``, ``close_session`` and friends — so swapping a
single-process service for a cluster is a constructor change, not a
client rewrite.

How a request travels
---------------------
1. The calling client thread routes its call's items and ships them
   straight to the owning workers: one envelope per worker (at most
   :data:`~repro.cluster.messages.MAX_WAVE` items each), then it blocks
   on a per-item event.  A worker drains whatever envelopes piled up
   while it was busy and serves runs of the same op as one service wave
   — that queue-depth gather is the cluster's one batching point.
2. A per-worker **receiver** thread matches response envelopes to
   outstanding requests and wakes the callers.  It is also the worker's
   liveness check: whenever its queue stays empty for
   ``_LIVENESS_POLL`` seconds it asks whether the process is still
   running.  When a worker dies, its outstanding requests fail over:
   reads retry on a surviving worker (rendezvous hashing re-routes
   automatically — dead workers leave the hash ring), and writes run the
   reconciliation protocol below.

Sessions are sharded by **rendezvous hashing** of the session id over the
alive workers: no coordination state, minimal re-shuffling when a worker
dies, and any worker *can* serve any session because session state lives
in the shared :class:`~repro.service.FileSessionStore` — placement is an
affinity, not a constraint.

Failure reconciliation (exactly-once rounds)
--------------------------------------------
Every client op settles through one loop, ``ClusterRouter._settle``.  When
a worker dies mid-request, an item is re-sent to a survivor, but a write
first asks the shared store (the source of truth) what the lost reply may
have committed: an ``open`` discards any half-open session; a
``feedback`` round already persisted is *recovered* from the store, never
re-scored; a ``close`` whose session is gone has a survivor roll forward
any orphaned close intent, and the router builds the final view from its
own record.  ``docs/cluster.md`` has the table.  The items of a wave
settle independently: the router books every success, then raises the
first failure.

Every failure surfaces as a typed :class:`~repro.exceptions.ClusterError`
subclass bounded by :data:`REQUEST_TIMEOUT` — a degraded cluster degrades
loudly, it never hangs.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing as mp
import queue
import threading
import time
import uuid
from dataclasses import replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.exceptions import (
    ClusterError,
    ClusterTimeoutError,
    FaultInjectedError,
    NoWorkersError,
    ReproError,
    SessionError,
    WorkerDiedError,
)
from repro.obs import get_hub
from repro.service.dtos import (
    FeedbackRequest,
    RankingResponse,
    SearchRequest,
    SessionView,
    check_feedback_batch,
    check_session_id,
    check_session_ids,
    coerce_feedback,
    coerce_search,
)
from repro.service.service import DEFAULT_ALGORITHM
from repro.utils.faults import trip as _fault_trip

from repro.cluster.messages import (
    MAX_WAVE,
    OP_CLOSE,
    OP_DISCARD,
    OP_FEEDBACK,
    OP_LAST,
    OP_OPEN,
    OP_RECOVER,
    OP_STATS,
    OP_VIEW,
    ClusterConfig,
    WorkerRequest,
)
from repro.cluster.worker import ClusterWorker

__all__ = ["ClusterRouter", "rendezvous_owner"]

#: Seconds a receiver waits on an empty response queue before it checks
#: that its worker process is still running.
_LIVENESS_POLL = 0.05

#: Seconds a client call waits for its replies before it raises
#: :class:`~repro.exceptions.ClusterTimeoutError`: the no-hang bound.
REQUEST_TIMEOUT = 30.0

#: Times an item is re-sent after worker deaths before its error surfaces.
RETRY_LIMIT = 2


def rendezvous_owner(session_id: str, worker_ids: Sequence[int]) -> int:
    """Highest-random-weight (rendezvous) owner of *session_id*.

    Pure and stateless: every router (and every test) computes the same
    owner from the same alive set, no coordination required.  Removing a
    worker re-routes only the sessions it owned; re-adding it restores
    exactly those — the minimal-disruption property the routing tests
    assert.

    Raises
    ------
    NoWorkersError
        When *worker_ids* is empty.
    """
    candidates = list(worker_ids)
    if not candidates:
        raise NoWorkersError("no alive cluster workers")

    def weight(worker_id: int) -> int:
        digest = hashlib.md5(f"{session_id}|{worker_id}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    return max(candidates, key=weight)


class _PendingItem:
    """One client request in flight: payload out, outcome (or error) back."""

    __slots__ = ("op", "payload", "session_id", "deadline", "event", "outcome",
                 "error")

    def __init__(self, op: str, payload: Any, session_id: str) -> None:
        self.op = op
        self.payload = payload
        self.session_id = session_id
        # Shipped together, a wave's items share one bound: settling them
        # one after another never stacks their timeouts.
        self.deadline = time.monotonic() + REQUEST_TIMEOUT
        self.event = threading.Event()
        self.outcome = None
        self.error: Optional[BaseException] = None

    def resolve(self, outcome: Any) -> None:
        self.outcome = outcome
        self.event.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.event.set()


class _WorkerSlot:
    """Router-side state of one worker: handle, liveness, in-flight map."""

    __slots__ = ("worker", "alive", "lock", "outstanding", "receiver")

    def __init__(self, worker: ClusterWorker) -> None:
        self.worker = worker
        self.alive = True
        self.lock = threading.Lock()
        self.outstanding: Dict[int, List[_PendingItem]] = {}
        self.receiver: Optional[threading.Thread] = None


class _SessionRecord:
    """What the router remembers about a session it opened — enough to
    reconcile rounds after a worker death and to synthesize a final view
    when a close commits but its response is lost."""

    __slots__ = ("request", "algorithm", "rounds", "judgements",
                 "created_at", "last_active")

    def __init__(self, request: SearchRequest, algorithm: str) -> None:
        self.request = request
        self.algorithm = algorithm
        self.rounds = 0
        self.judgements: Dict[int, int] = {}
        self.created_at = time.time()
        self.last_active = self.created_at


class ClusterRouter:
    """One logical retrieval service over N worker processes.

    Parameters
    ----------
    dataset_factory:
        Zero-argument callable returning the dataset or database each
        worker serves (see :func:`~repro.cluster.worker.build_worker_service`).
        Under the ``fork`` start method the factory may close over an
        already built dataset (copy-on-write shares the arrays); under
        ``spawn`` it must be picklable (a module-level function or partial).
    config:
        The :class:`~repro.cluster.messages.ClusterConfig`.

    Notes
    -----
    The constructor spawns the workers and starts one receiver thread per
    worker; :meth:`start` is idempotent, so ``with ClusterRouter(...)`` is
    safe.
    """

    def __init__(
        self,
        dataset_factory: Callable[[], Any],
        config: ClusterConfig,
    ) -> None:
        self.config = config
        self._dataset_factory = dataset_factory
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        self._slots: Dict[int, _WorkerSlot] = {}
        self._slots_lock = threading.RLock()
        self._request_ids = itertools.count(1)
        self._session_counter = itertools.count(1)
        self._run_tag = "c" + uuid.uuid4().hex[:8]
        self._sessions: Dict[str, _SessionRecord] = {}
        self._sessions_lock = threading.Lock()
        self._stopping = threading.Event()
        self._started = False
        self._stopped = False
        self._restarts = 0
        self.start()

    # ----------------------------------------------------------- lifecycle
    def start(self) -> "ClusterRouter":
        """Spawn the worker fleet, then one receiver thread per worker.

        Workers are forked *before* any router thread exists — forking a
        single-threaded parent is the only portably safe way to use the
        fast ``fork`` start method.
        """
        if self._started:
            return self
        for worker_id in range(self.config.num_workers):
            worker = ClusterWorker.spawn(
                self._ctx, worker_id, self._dataset_factory, self.config
            )
            self._slots[worker_id] = _WorkerSlot(worker)
        for slot in self._slots.values():
            self._start_receiver(slot)
        self._started = True
        self._publish_alive()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Shut workers down gracefully and tear the router down.

        Safe to call twice.  New calls fail with :class:`ClusterError`;
        waves already shipped are served before the worker sees its
        shutdown envelope (the queue is FIFO), and whatever is still
        outstanding afterwards fails with :class:`ClusterError`.
        """
        if not self._started or self._stopped:
            return
        self._stopped = True
        self._stopping.set()
        with self._slots_lock:
            slots = list(self._slots.values())
        for slot in slots:
            if slot.alive and slot.worker.is_alive():
                slot.worker.shutdown(next(self._request_ids))
        for slot in slots:
            slot.worker.join(timeout)
        for slot in slots:
            if slot.receiver is not None:
                slot.receiver.join(timeout)
            with slot.lock:
                slot.alive = False
                orphaned = [i for items in slot.outstanding.values() for i in items]
                slot.outstanding.clear()
            for item in orphaned:
                item.fail(ClusterError("router stopped"))
            slot.worker.close()
        self._publish_alive()

    def __enter__(self) -> "ClusterRouter":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------- client surface
    def open_session(
        self, request: Union[SearchRequest, int, Any], **kwargs: Any
    ) -> RankingResponse:
        """Open one session; accepts what the service's method accepts."""
        return self.open_sessions([coerce_search(request, kwargs)])[0]

    def open_sessions(
        self, requests: Sequence[Union[SearchRequest, int, Any]]
    ) -> List[RankingResponse]:
        """Open a wave of sessions (shipped together: one envelope per worker)."""
        prepared = [
            self._prepare_open(coerce_search(request, {})) for request in requests
        ]
        return self._settle(
            OP_OPEN, prepared, lost=self._open_lost, book=self._remember_open
        )

    def submit_feedback(
        self,
        request: Union[FeedbackRequest, str],
        judgements: Optional[Mapping[int, int]] = None,
        *,
        top_k: Optional[int] = None,
    ) -> RankingResponse:
        """Run one feedback round; accepts what the service's method accepts."""
        return self.submit_feedback_batch(
            [coerce_feedback(request, judgements, top_k)]
        )[0]

    def submit_feedback_batch(
        self, requests: Sequence[FeedbackRequest]
    ) -> List[RankingResponse]:
        """Run one feedback round per session (shipped together)."""
        started = time.perf_counter()

        def book(request: FeedbackRequest, response: RankingResponse) -> None:
            self._remember_round(request, response)
            get_hub().observe(
                "cluster.round.latency_seconds", time.perf_counter() - started
            )

        return self._settle(
            OP_FEEDBACK, check_feedback_batch(requests),
            lost=self._feedback_lost, book=book,
        )

    def close_session(self, session_id: str) -> SessionView:
        """Close one session, flushing its rounds into the shared log."""
        return self.close_sessions([session_id])[0]

    def close_sessions(self, session_ids: Sequence[str]) -> List[SessionView]:
        """Close a wave of sessions (shipped together)."""
        return self._settle(
            OP_CLOSE, check_session_ids(session_ids),
            lost=self._close_lost, book=self._forget,
        )

    def discard_session(self, session_id: str) -> None:
        """Abandon a session without recording anything."""
        self._settle(OP_DISCARD, [check_session_id(session_id)], book=self._forget)

    def get_session(self, session_id: str) -> SessionView:
        """Read-only snapshot of one open session (idempotent; retried)."""
        return self._call(OP_VIEW, check_session_id(session_id))

    def last_response(self, session_id: str) -> Optional[RankingResponse]:
        """The session's last persisted ranking (idempotent; retried)."""
        return self._call(OP_LAST, check_session_id(session_id))

    # --------------------------------------------------------- introspection
    def stats(self) -> Dict[str, Any]:
        """Cluster-wide health: per-worker stats plus router counters."""
        with self._slots_lock:
            alive = {wid: slot.alive for wid, slot in self._slots.items()}
        return {
            "workers": alive,
            "alive_workers": sum(alive.values()),
            "restarts": self._restarts,
            "open_sessions": len(self._sessions),
            "per_worker": self._broadcast(OP_STATS),
        }

    @property
    def num_workers(self) -> int:
        """Configured fleet size (dead workers included)."""
        with self._slots_lock:
            return len(self._slots)

    @property
    def alive_worker_ids(self) -> List[int]:
        """Ids of the workers currently believed alive."""
        with self._slots_lock:
            return sorted(
                wid for wid, slot in self._slots.items() if slot.alive
            )

    @property
    def restarts(self) -> int:
        """How many dead workers have been respawned."""
        return self._restarts

    def session_ids(self) -> List[str]:
        """Ids of the sessions opened (and not yet closed) via this router."""
        with self._sessions_lock:
            return sorted(self._sessions)

    def worker_for(self, session_id: str) -> int:
        """The alive worker the session currently hashes to."""
        return self._route(session_id)

    def kill_worker(self, worker_id: int) -> None:
        """SIGKILL one worker (chaos testing); its receiver handles the rest."""
        with self._slots_lock:
            slot = self._slots[worker_id]
        slot.worker.kill()

    # ------------------------------------------------------------- settling
    def _settle(
        self,
        op: str,
        payloads: Sequence[Any],
        lost: Optional[Callable[[Any, WorkerDiedError], Any]] = None,
        book: Optional[Callable[[Any, Any], None]] = None,
    ) -> List[Any]:
        """Ship *payloads* as one wave and settle every item.

        Each success is booked with ``book(payload, result)``; the first
        failure is raised only once every item has settled.  A wave spans
        workers, so unlike the service the router cannot refuse it whole,
        and it must not lose track of the items that did commit.
        """
        results, failure = [], None
        for item in self._enqueue(op, payloads):
            try:
                result = self._settle_one(item, lost)
            except ReproError as error:
                failure = failure or error
                continue
            if book is not None:
                book(item.payload, result)
            results.append(result)
        if failure is not None:
            raise failure
        return results

    def _settle_one(
        self,
        item: _PendingItem,
        lost: Optional[Callable[[Any, WorkerDiedError], Any]],
    ) -> Any:
        """*item*'s answer, re-sent after each worker death (the dead worker
        is already off the hash ring) up to :data:`RETRY_LIMIT` times.

        Before a write is re-sent, ``lost(payload, error)`` says what the
        lost reply may have committed: the committed answer, or ``None``
        when a re-send is safe.  Reads pass no *lost* and are re-sent.
        """
        hub = get_hub()
        attempts = 0
        while True:
            try:
                return self._await(item)
            except WorkerDiedError as error:
                attempts += 1
                hub.count("cluster.router.retries")
                if attempts > RETRY_LIMIT:
                    raise
                if lost is not None:
                    hub.count("cluster.router.reroutes")
                    committed = lost(item.payload, error)
                    if committed is not None:
                        return committed
                (item,) = self._enqueue(item.op, [item.payload])

    def _call(self, op: str, session_id: str) -> Any:
        """One item of *op* for *session_id*: a read, or a write that a
        re-send cannot repeat."""
        return self._settle(op, [session_id])[0]

    def _open_lost(self, request: SearchRequest, error: WorkerDiedError) -> None:
        # The dead worker may have stored the session before its reply was
        # lost; discard it so the re-send is idempotent.
        try:
            self._call(OP_DISCARD, request.session_id)
        except ClusterError:
            pass  # best effort; the re-send itself surfaces a real outage

    def _feedback_lost(
        self, request: FeedbackRequest, error: WorkerDiedError
    ) -> Optional[RankingResponse]:
        """The lost round's ranking if it committed, ``None`` if it did not.

        The router books a round only once it settles, so its count is
        still the one the lost round was sent against.
        """
        record = self._get_record(request.session_id)
        try:
            last = self._call(OP_LAST, request.session_id)
        except (WorkerDiedError, NoWorkersError, ClusterTimeoutError):
            return None  # can't reach the store; the re-send path will
            # surface NoWorkersError if the cluster is truly gone
        if last is None or record is None:
            # No persisted ranking, or a session this router didn't open
            # (no round book-keeping): cannot prove the round committed,
            # so re-send.  Sessions opened through the router always
            # reconcile exactly.
            return None
        if last.round_index == record.rounds + 1:
            return last  # committed before the death: recovered, not re-run
        if last.round_index == record.rounds:
            return None  # never committed: re-send is exactly-once
        raise ClusterError(
            f"session {request.session_id!r} is {last.round_index - record.rounds - 1} "
            "rounds ahead of this router's book-keeping — refusing to re-send "
            "a feedback round that may already be applied"
        )

    def _close_lost(
        self, session_id: str, error: WorkerDiedError
    ) -> Optional[SessionView]:
        try:
            self._call(OP_VIEW, session_id)
        except SessionError:
            pass  # gone: the close committed its delete
        else:
            # Still in the store: re-sending runs the close exactly once
            # (the worker's close protocol is idempotent end to end).
            return None
        # Have a survivor roll forward any orphaned close intent so the log
        # flush is certain before the session is reported closed.  Best
        # effort: worker-restart replay covers the same intent later, and
        # the flush is idempotent however many replays run.
        try:
            self._call(OP_RECOVER, session_id)
        except ClusterError:
            pass
        record = self._get_record(session_id)
        if record is None:
            raise error  # foreign session, state gone: nothing to return
        return SessionView(
            session_id=session_id,
            query=record.request.query,
            algorithm=record.algorithm,
            rounds_completed=record.rounds,
            judgements=dict(record.judgements),
            created_at=record.created_at,
            last_active=record.last_active,
            closed=True,
        )

    # ------------------------------------------------------------- plumbing
    def _prepare_open(self, request: SearchRequest) -> SearchRequest:
        """*request* with an id minted if it has none."""
        if request.session_id is None:
            request = replace(request, session_id=self._mint_session_id())
        return request

    def _mint_session_id(self) -> str:
        return f"{self._run_tag}-{next(self._session_counter):06d}"

    def _enqueue(self, op: str, payloads: Sequence[Any]) -> List[_PendingItem]:
        """Ship one call's items from the calling thread, without waiting."""
        if not self._started or self._stopped:
            raise ClusterError("router is not running")
        items = [
            _PendingItem(
                op,
                payload,
                payload if isinstance(payload, str) else payload.session_id,
            )
            for payload in payloads
        ]
        get_hub().count("cluster.router.requests", len(items))
        self._dispatch(items)
        return items

    def _await(self, item: _PendingItem) -> Any:
        if not item.event.wait(max(0.0, item.deadline - time.monotonic())):
            get_hub().count("cluster.router.timeouts")
            raise ClusterTimeoutError(
                f"{item.op} for session {item.session_id!r} timed out after "
                f"{REQUEST_TIMEOUT}s"
            )
        if item.error is not None:
            raise item.error
        outcome = item.outcome
        if outcome.ok:
            return outcome.value
        raise outcome.value  # the worker-side exception, same type

    def _route(self, session_id: str) -> int:
        """Rendezvous-hash the session over the alive workers."""
        with self._slots_lock:
            alive = [wid for wid, slot in self._slots.items() if slot.alive]
        return rendezvous_owner(session_id, alive)

    def _broadcast(self, op: str) -> Dict[int, Any]:
        results: Dict[int, Any] = {}
        with self._slots_lock:
            targets = [
                (wid, slot) for wid, slot in self._slots.items() if slot.alive
            ]
        items = []
        for worker_id, slot in targets:
            item = _PendingItem(op, None, f"broadcast-{worker_id}")
            self._ship(worker_id, op, [item])
            items.append((worker_id, item))
        for worker_id, item in items:
            try:
                results[worker_id] = self._await(item)
            except ClusterError:
                continue  # died mid-broadcast; simply absent from the map
        return results

    # ------------------------------------------------------------- shipping
    def _dispatch(self, batch: List[_PendingItem]) -> None:
        groups: Dict[Any, List[_PendingItem]] = {}
        for item in batch:
            try:
                worker_id = self._route(item.session_id)
            except NoWorkersError as exc:
                item.fail(exc)
                continue
            groups.setdefault((worker_id, item.op), []).append(item)
        for (worker_id, op), items in groups.items():
            for start in range(0, len(items), MAX_WAVE):
                self._ship(worker_id, op, items[start:start + MAX_WAVE])

    def _ship(self, worker_id: int, op: str, items: List[_PendingItem]) -> None:
        hub = get_hub()
        with self._slots_lock:
            slot = self._slots.get(worker_id)
        if slot is None:
            for item in items:
                item.fail(WorkerDiedError(f"worker {worker_id} is gone"))
            return
        request_id = next(self._request_ids)
        with slot.lock:
            if not slot.alive:
                # Death raced the dispatch; fail over so the recovery layer
                # re-routes onto the surviving workers.
                for item in items:
                    item.fail(
                        WorkerDiedError(f"worker {worker_id} died before dispatch")
                    )
                return
            slot.outstanding[request_id] = list(items)
            depth = len(slot.outstanding)
        hub.observe("cluster.worker.queue_depth", depth)
        hub.observe("cluster.wave.size", len(items))
        try:
            _fault_trip("router.before_ship", op=op, worker=worker_id)
            slot.worker.request_queue.put(
                WorkerRequest(request_id, op, tuple(i.payload for i in items))
            )
        except (ValueError, OSError, FaultInjectedError):
            # A closed queue's put raises ValueError or OSError (the seam's
            # "drop" action raises ConnectionResetError, an OSError), and
            # FaultInjectedError is its "raise" action.  Either way the
            # wave never left, so fail it over instead of raising into the
            # client's call.
            with slot.lock:
                slot.outstanding.pop(request_id, None)
            for item in items:
                item.fail(WorkerDiedError(f"worker {worker_id}'s queue is closed"))

    # -------------------------------------------------------------- receiver
    def _start_receiver(self, slot: _WorkerSlot) -> None:
        slot.receiver = threading.Thread(
            target=self._receive_loop,
            args=(slot,),
            name=f"cluster-receiver-{slot.worker.worker_id}",
            daemon=True,
        )
        slot.receiver.start()

    def _receive_loop(self, slot: _WorkerSlot) -> None:
        while True:
            try:
                response = slot.worker.response_queue.get(timeout=_LIVENESS_POLL)
            except queue.Empty:
                # Stopping first: a worker that exits on its shutdown
                # envelope is not a death, and stop() fails what is left.
                if self._stopping.is_set():
                    with slot.lock:
                        if not slot.outstanding:
                            return
                    continue
                if not slot.worker.is_alive():
                    self._worker_died(slot)
                    return
                continue
            except (EOFError, OSError):
                if not self._stopping.is_set():
                    self._worker_died(slot)
                return
            with slot.lock:
                items = slot.outstanding.pop(response.request_id, None)
            if items is None:
                continue  # late reply for a request already failed over
            for item, outcome in zip(items, response.outcomes):
                item.resolve(outcome)

    # ------------------------------------------------------------- liveness
    def _worker_died(self, slot: _WorkerSlot) -> None:
        worker_id = slot.worker.worker_id
        with slot.lock:
            slot.alive = False
            orphaned = list(slot.outstanding.items())
            slot.outstanding.clear()
        get_hub().count("cluster.worker.deaths")
        self._publish_alive()
        for request_id, items in orphaned:
            for item in items:
                item.fail(
                    WorkerDiedError(
                        f"worker {worker_id} died serving {item.op} "
                        f"(request {request_id})"
                    )
                )
        if self.config.auto_restart and not self._stopping.is_set():
            self._restart(worker_id)

    def _restart(self, worker_id: int) -> None:
        worker = ClusterWorker.spawn(
            self._ctx, worker_id, self._dataset_factory, self.config
        )
        slot = _WorkerSlot(worker)
        with self._slots_lock:
            # stop() lists the slots under this lock after it sets
            # _stopping, so a respawn that lost that race never runs.
            if self._stopping.is_set():
                worker.kill()
                worker.join(1.0)
                worker.close()
                return
            self._slots[worker_id] = slot
        self._start_receiver(slot)
        self._restarts += 1
        get_hub().count("cluster.worker.restarts")
        self._publish_alive()

    def _publish_alive(self) -> None:
        with self._slots_lock:
            alive = sum(1 for slot in self._slots.values() if slot.alive)
        get_hub().set_gauge("cluster.workers.alive", alive)

    # ---------------------------------------------------------- bookkeeping
    def _remember_open(self, request: SearchRequest, _: RankingResponse) -> None:
        algorithm = request.algorithm or DEFAULT_ALGORITHM
        with self._sessions_lock:
            self._sessions[request.session_id] = _SessionRecord(
                request, str(algorithm)
            )

    def _remember_round(
        self, request: FeedbackRequest, response: RankingResponse
    ) -> None:
        with self._sessions_lock:
            record = self._sessions.get(request.session_id)
            if record is not None:
                record.rounds = response.round_index
                record.judgements.update(request.judgements)
                record.last_active = time.time()

    def _get_record(self, session_id: str) -> Optional[_SessionRecord]:
        with self._sessions_lock:
            return self._sessions.get(session_id)

    def _forget(self, session_id: str, _: Any = None) -> None:
        with self._sessions_lock:
            self._sessions.pop(session_id, None)
