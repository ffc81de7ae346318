"""Scatter-gather front-end of the cluster tier: one logical service.

A :class:`ClusterRouter` owns N worker processes (each a complete
:class:`~repro.service.RetrievalService` over the shared on-disk stores)
and exposes the service's own client surface — ``open_session``,
``submit_feedback``, ``close_session`` and friends — so swapping a
single-process service for a cluster is a constructor change, not a
client rewrite.

How a request travels
---------------------
1. The client call lands in the router's **inbox** and blocks on a
   per-request event.
2. The **dispatcher** thread lingers ``coalesce_window`` seconds so
   concurrent per-call clients pile up, then groups the queued items by
   ``(worker, op)`` and ships each group as one wave envelope.  This is
   the cluster's throughput lever: workers serve coalesced waves through
   the service's micro-batch APIs, so N concurrent clients cost one
   vectorised pass instead of N dispatches.
3. A per-worker **receiver** thread matches response envelopes to
   outstanding requests and wakes the callers.
4. The **monitor** thread polls worker liveness.  When a worker dies, its
   outstanding requests fail over: reads retry on a surviving worker
   (rendezvous hashing re-routes automatically — dead workers leave the
   hash ring), and writes run the reconciliation protocol below.

Sessions are sharded by **rendezvous hashing** of the session id over the
alive workers: no coordination state, minimal re-shuffling when a worker
dies, and any worker *can* serve any session because session state lives
in the shared :class:`~repro.service.FileSessionStore` — placement is an
affinity, not a constraint.

Failure reconciliation (exactly-once rounds)
--------------------------------------------
A worker death mid-request leaves the router unsure whether the request
committed.  Each op reconciles against the shared store, which is the
source of truth:

* ``open``  — discard any half-open state, then re-send (idempotent after
  the discard).
* ``feedback`` — ask a survivor for the session's last persisted round
  (:meth:`~repro.service.RetrievalService.last_response`).  If the round
  the client was waiting on is already persisted, its ranking is
  *recovered* from the store — never re-scored, so no duplicate round.
  If not, the round never committed and the request is re-sent.
* ``close`` — probe the session: still present means the close never
  committed (re-send); gone means the delete committed, and the router
  synthesizes the final view from its own session record.  Under the
  ``on_close`` log policy the worker's durable close protocol (a
  write-ahead close intent plus an idempotent log flush — see
  ``docs/cluster.md``) guarantees the session's records are already in
  the shared log by the time the delete runs; before synthesizing, the
  router additionally asks a survivor to roll forward any orphaned
  intent (``OP_RECOVER``), so even a kill *between* intent and flush
  loses nothing.

Every failure surfaces as a typed :class:`~repro.exceptions.ClusterError`
subclass bounded by ``request_timeout`` — a degraded cluster degrades
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
    SessionError,
    ValidationError,
    WorkerDiedError,
)
from repro.obs import get_hub
from repro.service.dtos import (
    FeedbackRequest,
    RankingResponse,
    SearchRequest,
    SessionView,
)
from repro.utils.faults import trip as _fault_trip

from repro.cluster.messages import (
    MAX_WAVE,
    OP_CLOSE,
    OP_DISCARD,
    OP_FEEDBACK,
    OP_LAST,
    OP_OPEN,
    OP_PING,
    OP_RECOVER,
    OP_STATS,
    OP_VIEW,
    ClusterConfig,
    WorkerRequest,
)
from repro.cluster.worker import ClusterWorker

__all__ = ["ClusterRouter", "rendezvous_owner"]


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

    __slots__ = ("op", "payload", "session_id", "event", "outcome", "error")

    def __init__(self, op: str, payload: Any, session_id: str) -> None:
        self.op = op
        self.payload = payload
        self.session_id = session_id
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
    The constructor spawns the workers and starts the router threads;
    :meth:`start` is idempotent, so ``with ClusterRouter(...)`` is safe.

    Sessions must use registry-*named* feedback algorithms — strategy
    instances cannot cross the process boundary (the same rule the
    file-backed session store enforces).
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
        self._inbox: List[_PendingItem] = []
        self._inbox_cond = threading.Condition()
        self._request_ids = itertools.count(1)
        self._session_counter = itertools.count(1)
        self._run_tag = "c" + uuid.uuid4().hex[:8]
        self._sessions: Dict[str, _SessionRecord] = {}
        self._sessions_lock = threading.Lock()
        self._stopping = threading.Event()
        self._started = False
        self._stopped = False
        self._restarts = 0
        self._dispatcher: Optional[threading.Thread] = None
        self._monitor: Optional[threading.Thread] = None
        self.start()

    # ----------------------------------------------------------- lifecycle
    def start(self) -> "ClusterRouter":
        """Spawn the worker fleet, then the router threads.

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
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="cluster-dispatcher", daemon=True
        )
        self._dispatcher.start()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="cluster-monitor", daemon=True
        )
        self._monitor.start()
        self._started = True
        self._publish_alive()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Drain, shut workers down gracefully, and tear the router down.

        Safe to call twice.  Requests still queued client-side fail with
        :class:`ClusterError`; waves already shipped are served before the
        worker sees its shutdown envelope (the queue is FIFO).
        """
        if not self._started or self._stopped:
            return
        self._stopped = True
        self._stopping.set()
        with self._inbox_cond:
            leftover, self._inbox = self._inbox, []
            self._inbox_cond.notify_all()
        for item in leftover:
            item.fail(ClusterError("router stopped"))
        if self._dispatcher is not None:
            self._dispatcher.join(timeout)
        with self._slots_lock:
            slots = list(self._slots.values())
        for slot in slots:
            if slot.alive and slot.worker.is_alive():
                slot.worker.shutdown(next(self._request_ids))
        for slot in slots:
            slot.worker.join(timeout)
        if self._monitor is not None:
            self._monitor.join(timeout)
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
        self, request: Union[SearchRequest, int, Any] = None, **kwargs: Any
    ) -> RankingResponse:
        """Open one session; accepts what the service's method accepts."""
        return self.open_sessions([self._coerce_open(request, kwargs)])[0]

    def open_sessions(
        self, requests: Sequence[Union[SearchRequest, int, Any]]
    ) -> List[RankingResponse]:
        """Open a wave of sessions (enqueued together, so they coalesce)."""
        prepared = [self._coerce_open(request, None) for request in requests]
        items = [
            self._enqueue(OP_OPEN, request, request.session_id)
            for request in prepared
        ]
        return [
            self._finish_open(request, item)
            for request, item in zip(prepared, items)
        ]

    def submit_feedback(
        self,
        request: Union[FeedbackRequest, str],
        judgements: Optional[Mapping[int, int]] = None,
        *,
        top_k: Optional[int] = None,
    ) -> RankingResponse:
        """Run one feedback round; accepts what the service's method accepts."""
        if not isinstance(request, FeedbackRequest):
            request = FeedbackRequest(
                session_id=request, judgements=judgements or {}, top_k=top_k
            )
        elif judgements is not None or top_k is not None:
            raise ValidationError(
                "pass judgements/top_k only with a raw session id"
            )
        return self.submit_feedback_batch([request])[0]

    def submit_feedback_batch(
        self, requests: Sequence[Union[FeedbackRequest, Mapping]]
    ) -> List[RankingResponse]:
        """Run one feedback round per session (enqueued together)."""
        prepared = [
            request if isinstance(request, FeedbackRequest)
            else FeedbackRequest(**request)
            for request in requests
        ]
        entries = []
        for request in prepared:
            record = self._get_record(request.session_id)
            expected = record.rounds if record is not None else None
            item = self._enqueue(OP_FEEDBACK, request, request.session_id)
            entries.append((request, expected, item))
        return [
            self._finish_feedback(request, expected, item)
            for request, expected, item in entries
        ]

    def close_session(self, session_id: str) -> SessionView:
        """Close one session, flushing its rounds into the shared log."""
        return self.close_sessions([session_id])[0]

    def close_sessions(self, session_ids: Sequence[str]) -> List[SessionView]:
        """Close a wave of sessions (enqueued together)."""
        items = [
            self._enqueue(OP_CLOSE, session_id, session_id)
            for session_id in session_ids
        ]
        return [
            self._finish_close(session_id, item)
            for session_id, item in zip(session_ids, items)
        ]

    def discard_session(self, session_id: str) -> None:
        """Abandon a session without recording anything."""
        self._retrying_call(OP_DISCARD, session_id, session_id)
        self._forget(session_id)

    def get_session(self, session_id: str) -> SessionView:
        """Read-only snapshot of one open session (idempotent; retried)."""
        return self._retrying_call(OP_VIEW, session_id, session_id)

    def last_response(self, session_id: str) -> Optional[RankingResponse]:
        """The session's last persisted ranking (idempotent; retried)."""
        return self._retrying_call(OP_LAST, session_id, session_id)

    # --------------------------------------------------------- introspection
    def ping(self) -> Dict[int, str]:
        """Round-trip every alive worker; maps worker id to its reply."""
        return self._broadcast(OP_PING)

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
        """How many workers the monitor has respawned."""
        return self._restarts

    def session_ids(self) -> List[str]:
        """Ids of the sessions opened (and not yet closed) via this router."""
        with self._sessions_lock:
            return sorted(self._sessions)

    def worker_for(self, session_id: str) -> int:
        """The alive worker the session currently hashes to."""
        return self._route(session_id)

    def kill_worker(self, worker_id: int) -> None:
        """SIGKILL one worker (chaos testing); the monitor handles the rest."""
        with self._slots_lock:
            slot = self._slots[worker_id]
        slot.worker.kill()

    # ------------------------------------------------------------- recovery
    def _finish_open(
        self, request: SearchRequest, item: _PendingItem
    ) -> RankingResponse:
        attempts = 0
        hub = get_hub()
        while True:
            try:
                response = self._await(item)
            except WorkerDiedError:
                attempts += 1
                hub.count("cluster.router.retries")
                if attempts > self.config.retry_limit:
                    raise
                # The dead worker may have persisted the session before the
                # reply was lost; clear any half-open state so the re-send
                # is idempotent, then re-route (the dead worker is already
                # off the hash ring).
                self._discard_quietly(request.session_id)
                hub.count("cluster.router.reroutes")
                item = self._enqueue(OP_OPEN, request, request.session_id)
                continue
            self._remember_open(request)
            return response

    def _finish_feedback(
        self,
        request: FeedbackRequest,
        expected_rounds: Optional[int],
        item: _PendingItem,
    ) -> RankingResponse:
        attempts = 0
        hub = get_hub()
        started = time.perf_counter()
        while True:
            try:
                response = self._await(item)
            except WorkerDiedError:
                attempts += 1
                hub.count("cluster.router.retries")
                if attempts > self.config.retry_limit:
                    raise
                hub.count("cluster.router.reroutes")
                recovered = self._reconcile_feedback(request, expected_rounds)
                if recovered is not None:
                    response = recovered
                else:
                    item = self._enqueue(
                        OP_FEEDBACK, request, request.session_id
                    )
                    continue
            self._remember_round(request, response)
            hub.observe(
                "cluster.round.latency_seconds", time.perf_counter() - started
            )
            return response

    def _reconcile_feedback(
        self, request: FeedbackRequest, expected_rounds: Optional[int]
    ) -> Optional[RankingResponse]:
        """Did the lost round commit?  ``None`` means no — safe to re-send."""
        try:
            last = self._retrying_call(
                OP_LAST, request.session_id, request.session_id
            )
        except (WorkerDiedError, NoWorkersError, ClusterTimeoutError):
            return None  # can't reach the store; the re-send path will
            # surface NoWorkersError if the cluster is truly gone
        if last is None or expected_rounds is None:
            # No persisted ranking, or a session this router didn't open
            # (no round book-keeping): cannot prove the round committed,
            # so re-send.  Sessions opened through the router always
            # reconcile exactly.
            return None
        if last.round_index == expected_rounds + 1:
            return last  # committed before the death: recovered, not re-run
        if last.round_index == expected_rounds:
            return None  # never committed: re-send is exactly-once
        raise ClusterError(
            f"session {request.session_id!r} is {last.round_index - expected_rounds - 1} "
            "rounds ahead of this router's book-keeping — refusing to re-send "
            "a feedback round that may already be applied"
        )

    def _finish_close(self, session_id: str, item: _PendingItem) -> SessionView:
        attempts = 0
        hub = get_hub()
        while True:
            try:
                view = self._await(item)
            except WorkerDiedError:
                attempts += 1
                hub.count("cluster.router.retries")
                if attempts > self.config.retry_limit:
                    raise
                hub.count("cluster.router.reroutes")
                probed = self._probe_session(session_id)
                if probed is not None:
                    # Still in the store: the close never committed its
                    # delete, so re-sending runs it exactly once (the
                    # worker's close protocol is idempotent end to end).
                    item = self._enqueue(OP_CLOSE, session_id, session_id)
                    continue
                # State is gone — have a survivor roll forward any orphaned
                # close intent so the log flush is certain before we report
                # the session closed.
                self._recover_intents(session_id)
                view = self._synthetic_closed_view(session_id)
                if view is None:
                    raise  # foreign session, state gone: nothing to return
            self._forget(session_id)
            return view

    def _probe_session(self, session_id: str) -> Optional[SessionView]:
        try:
            return self._retrying_call(OP_VIEW, session_id, session_id)
        except SessionError:
            return None

    def _synthetic_closed_view(self, session_id: str) -> Optional[SessionView]:
        record = self._get_record(session_id)
        if record is None:
            return None
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

    def _recover_intents(self, session_id: str) -> None:
        """Best-effort: ask a survivor to replay the session's close intent.

        Failures are swallowed — worker-restart replay and store-level
        reconciliation cover the same intent later, and the flush is
        idempotent however many of them run.
        """
        try:
            self._retrying_call(OP_RECOVER, session_id, session_id)
        except ClusterError:
            pass

    def _discard_quietly(self, session_id: str) -> None:
        try:
            self._retrying_call(OP_DISCARD, session_id, session_id)
        except ClusterError:
            pass  # best effort; the re-send itself will surface real outages

    def _retrying_call(self, op: str, payload: Any, session_id: str) -> Any:
        """Ship one idempotent request, retrying across worker deaths."""
        attempts = 0
        while True:
            try:
                return self._await(self._enqueue(op, payload, session_id))
            except WorkerDiedError:
                attempts += 1
                get_hub().count("cluster.router.retries")
                if attempts > self.config.retry_limit:
                    raise

    # ------------------------------------------------------------- plumbing
    def _coerce_open(
        self, request: Any, kwargs: Optional[Dict[str, Any]]
    ) -> SearchRequest:
        if isinstance(request, SearchRequest):
            if kwargs:
                raise ValidationError(
                    "pass SearchRequest fields only with a raw query"
                )
        else:
            fields = dict(kwargs or {})
            if request is None:
                request = fields.pop("query", None)
            if request is None:
                raise ValidationError(
                    "open_session needs a query or a SearchRequest"
                )
            request = SearchRequest(query=request, **fields)
        if request.algorithm is not None and not isinstance(request.algorithm, str):
            raise ValidationError(
                "cluster sessions need registry-named algorithms; strategy "
                "instances cannot cross the process boundary"
            )
        if request.session_id is None:
            request = replace(request, session_id=self._mint_session_id())
        return request

    def _mint_session_id(self) -> str:
        return f"{self._run_tag}-{next(self._session_counter):06d}"

    def _enqueue(self, op: str, payload: Any, session_id: str) -> _PendingItem:
        if not self._started or self._stopped:
            raise ClusterError("router is not running")
        item = _PendingItem(op, payload, session_id)
        with self._inbox_cond:
            self._inbox.append(item)
            self._inbox_cond.notify()
        get_hub().count("cluster.router.requests")
        return item

    def _await(self, item: _PendingItem) -> Any:
        if not item.event.wait(self.config.request_timeout):
            get_hub().count("cluster.router.timeouts")
            raise ClusterTimeoutError(
                f"{item.op} for session {item.session_id!r} timed out after "
                f"{self.config.request_timeout}s"
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

    # ------------------------------------------------------------ dispatcher
    def _dispatch_loop(self) -> None:
        while True:
            with self._inbox_cond:
                while not self._inbox and not self._stopping.is_set():
                    self._inbox_cond.wait(timeout=0.1)
                if self._stopping.is_set():
                    return  # stop() fails whatever it drained
            if self.config.coalesce_window > 0:
                time.sleep(self.config.coalesce_window)
            with self._inbox_cond:
                batch, self._inbox = self._inbox, []
            if batch:
                self._dispatch(batch)

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
            # wave never left, so fail it over without killing the
            # dispatcher thread.
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
                response = slot.worker.response_queue.get(timeout=0.1)
            except queue.Empty:
                if not slot.alive:
                    return  # marked dead and the queue has drained
                if self._stopping.is_set():
                    with slot.lock:
                        if not slot.outstanding:
                            return
                continue
            except (EOFError, OSError):
                return
            with slot.lock:
                items = slot.outstanding.pop(response.request_id, None)
            if items is None:
                continue  # late reply for a request already failed over
            for item, outcome in zip(items, response.outcomes):
                item.resolve(outcome)

    # --------------------------------------------------------------- monitor
    def _monitor_loop(self) -> None:
        while not self._stopping.wait(self.config.poll_interval):
            with self._slots_lock:
                slots = list(self._slots.items())
            dead = [
                (worker_id, slot)
                for worker_id, slot in slots
                if slot.alive and not slot.worker.is_alive()
            ]
            for worker_id, slot in dead:
                self._mark_dead(worker_id, slot)
            if dead and self.config.auto_restart and not self._stopping.is_set():
                for worker_id, _slot in dead:
                    self._restart(worker_id)

    def _mark_dead(self, worker_id: int, slot: _WorkerSlot) -> None:
        with slot.lock:
            slot.alive = False
            orphaned = [
                (request_id, items)
                for request_id, items in slot.outstanding.items()
            ]
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

    def _restart(self, worker_id: int) -> None:
        worker = ClusterWorker.spawn(
            self._ctx, worker_id, self._dataset_factory, self.config
        )
        slot = _WorkerSlot(worker)
        with self._slots_lock:
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
    def _remember_open(self, request: SearchRequest) -> None:
        algorithm = request.algorithm or self.config.default_algorithm
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

    def _forget(self, session_id: str) -> None:
        with self._sessions_lock:
            self._sessions.pop(session_id, None)
