"""Cluster worker: one complete :class:`~repro.service.RetrievalService`
per process, served over a ``multiprocessing.Queue`` pair.

Workers are deliberately boring.  Each one builds the full stack — dataset,
index, database, service — over the **shared** on-disk session and log
stores, then loops: pull a :class:`~repro.cluster.messages.WorkerRequest`,
serve it through the service's wave APIs, push a
:class:`~repro.cluster.messages.WorkerResponse`.  Its one trick is
queue-depth batching (below); everything else (routing, retries, failure
recovery) lives in the router, and a worker that is SIGKILLed mid-wave
loses nothing the router cannot reconcile from the shared stores.

Two robustness rules govern the serving loop:

* **Per-item fallback.**  Wave APIs abort the whole batch when one request
  is invalid (service-side batch validation), so after a batch failure the
  worker re-serves the items one by one and reports a per-item
  :class:`~repro.cluster.messages.ItemOutcome` — one malformed request
  fails alone instead of poisoning every session that shares its wave.
* **No orphans.**  The receive loop wakes periodically and exits when the
  parent (router) process is gone, so killed test runs and crashed routers
  never leave worker processes behind.
"""

from __future__ import annotations

import os
import queue
import time
from typing import Any, Callable, List, Optional, Sequence

from repro.cbir.database import ImageDatabase
from repro.exceptions import ClusterError, ReproError
from repro.logdb.file_store import FileLogStore
from repro.service.service import RetrievalService
from repro.service.store import FileSessionStore
from repro.utils.blas import limit_blas_threads
from repro.utils.faults import active_plan, install_plan, trip as _fault_trip

from repro.cluster.messages import (
    MAX_WAVE,
    OP_CLOSE,
    OP_DISCARD,
    OP_FEEDBACK,
    OP_LAST,
    OP_OPEN,
    OP_PING,
    OP_RECOVER,
    OP_SHUTDOWN,
    OP_STATS,
    OP_VIEW,
    ClusterConfig,
    ItemOutcome,
    WorkerRequest,
    WorkerResponse,
)

__all__ = ["ClusterWorker", "run_worker", "build_worker_service"]

#: Seconds the serving loop blocks on the request queue before re-checking
#: whether the parent router is still alive.
_IDLE_WAKE = 1.0


def _portable(exc: BaseException) -> ReproError:
    """Make *exc* safe to pickle back to the router.

    The library's own exceptions carry plain-string args and cross the
    process boundary as-is (the router re-raises the very same type).
    Anything else is flattened into a :class:`ClusterError` so an exotic
    unpicklable exception can never wedge the response queue.
    """
    if isinstance(exc, ReproError):
        return exc
    return ClusterError(f"{type(exc).__name__}: {exc}")


def build_worker_service(
    dataset_factory: Callable[[], Any], config: ClusterConfig
) -> RetrievalService:
    """Assemble the per-process serving stack a cluster worker runs.

    The factory may return either an :class:`~repro.datasets.ImageDataset`
    (the worker normalizes features and builds a brute-force index itself)
    or an already-assembled :class:`~repro.cbir.database.ImageDatabase`
    (one without an index gets a brute-force one).  The latter matters
    under the ``fork`` start method: a database built once in the parent —
    normalized features and index included — is shared copy-on-write by
    every worker, so an N-worker fleet streams **one** copy of the pool
    through the cache instead of N private copies.  The
    worker still gets its own file-backed log store (swapped in below) and
    its own session store, which is where all mutable state lives.

    Splitting this out keeps :func:`run_worker` testable in-process: a
    single-process baseline built here serves the identical stack.
    """
    built = dataset_factory()
    log_store = FileLogStore(config.log_dir, num_images=built.num_images)
    if isinstance(built, ImageDatabase):
        database = built
        database.log_database = log_store
        if database.index is None:
            database.build_index("brute-force")
    else:
        database = ImageDatabase(built, log_database=log_store)
        database.build_index("brute-force")
    return RetrievalService(
        database,
        store=FileSessionStore(config.session_dir),
        default_algorithm=config.default_algorithm,
        log_policy=config.log_policy,
    )


class _WorkerServer:
    """Dispatches one request envelope to the service's wave APIs."""

    def __init__(
        self,
        worker_id: int,
        service: RetrievalService,
        blas_threads: Optional[int],
    ) -> None:
        self.worker_id = worker_id
        self.service = service
        self.blas_threads = blas_threads
        self._started_at = time.time()
        self._served = 0
        self._waves = 0

    # ------------------------------------------------------------- dispatch
    def handle(self, op: str, items: Sequence[Any]) -> List[ItemOutcome]:
        items = list(items)
        self._served += len(items)
        self._waves += 1
        if op == OP_OPEN:
            return self._batch(self.service.open_sessions,
                               self.service.open_session, items)
        if op == OP_FEEDBACK:
            return self._batch(self.service.submit_feedback_batch,
                               self.service.submit_feedback, items)
        if op == OP_CLOSE:
            return self._batch(self.service.close_sessions,
                               self.service.close_session, items)
        if op == OP_VIEW:
            return self._each(self.service.get_session, items)
        if op == OP_LAST:
            return self._each(self.service.last_response, items)
        if op == OP_DISCARD:
            return self._each(self.service.discard_session, items)
        if op == OP_RECOVER:
            # Roll forward any orphaned close intent for each session id
            # (idempotent; a no-op when nothing is pending).
            return self._each(
                lambda sid: self.service.recover_close_intents([sid]), items
            )
        if op == OP_STATS:
            return self._each(lambda _payload: self._stats(), items)
        if op == OP_PING:
            return self._each(lambda _payload: "pong", items)
        return [
            ItemOutcome(False, ClusterError(f"unhandled op {op!r}"))
            for _ in items
        ]

    # ------------------------------------------------------------- serving
    @staticmethod
    def _batch(
        batch_fn: Callable[[Sequence[Any]], Sequence[Any]],
        single_fn: Callable[[Any], Any],
        items: Sequence[Any],
    ) -> List[ItemOutcome]:
        try:
            return [ItemOutcome(True, value) for value in batch_fn(items)]
        except Exception:
            # The wave aborted (batch validation fails the whole wave, and
            # failed waves leave no partial state behind) — fall back to
            # per-item serving so only the offending requests fail.
            return _WorkerServer._each(single_fn, items)

    @staticmethod
    def _each(fn: Callable[[Any], Any], items: Sequence[Any]) -> List[ItemOutcome]:
        outcomes: List[ItemOutcome] = []
        for item in items:
            try:
                outcomes.append(ItemOutcome(True, fn(item)))
            except Exception as exc:
                outcomes.append(ItemOutcome(False, _portable(exc)))
        return outcomes

    def _stats(self) -> dict:
        return {
            "worker_id": self.worker_id,
            "pid": os.getpid(),
            "open_sessions": self.service.num_open_sessions,
            "served_items": self._served,
            "waves": self._waves,
            "uptime_seconds": time.time() - self._started_at,
            "blas_threads": self.blas_threads,
        }


def run_worker(
    worker_id: int,
    dataset_factory: Callable[[], Any],
    config: ClusterConfig,
    request_queue: Any,
    response_queue: Any,
) -> None:
    """Worker-process entry point: build the stack, serve until shutdown.

    Exits on an :data:`~repro.cluster.messages.OP_SHUTDOWN` envelope, or
    silently when the parent router process disappears.

    Before anything else the process caps its BLAS thread pools at its share
    of the usable CPUs, ``max(1, CPUs // num_workers)``: every worker keeping
    the library default (one thread per CPU) oversubscribes the machine
    ``num_workers`` times over (``docs/cluster.md``, "CPU budget").  The
    applied value is reported as ``blas_threads`` in the worker's stats.
    """
    blas_threads = limit_blas_threads(
        max(1, len(os.sched_getaffinity(0)) // config.num_workers)
    )
    parent_pid = os.getppid()
    # Re-arm a fault plan inherited from the parent (a test's installed())
    # under this worker's id, before the stack is built.
    plan = active_plan()
    if plan is not None:
        install_plan(plan, worker_id=worker_id)
    if config.observability:
        from repro.obs import configure

        configure()
    service = build_worker_service(dataset_factory, config)
    server = _WorkerServer(worker_id, service, blas_threads)
    while True:
        try:
            first = request_queue.get(timeout=_IDLE_WAKE)
        except queue.Empty:
            if os.getppid() != parent_pid:
                return  # router died; don't linger as an orphan
            continue
        except (EOFError, OSError):
            return  # queue torn down under us
        # Queue-depth batching, the cluster's one batching point:
        # everything that piled up while this worker was busy is drained
        # and runs of the same op merge into ONE service wave, so
        # concurrent clients share waves exactly when the load is there.
        envelopes = [first]
        gathered = len(first.items)
        while first.op != OP_SHUTDOWN and gathered < MAX_WAVE:
            try:
                nxt = request_queue.get_nowait()
            except queue.Empty:
                break
            envelopes.append(nxt)
            if nxt.op == OP_SHUTDOWN:
                break
            gathered += len(nxt.items)
        position = 0
        while position < len(envelopes):
            envelope = envelopes[position]
            if envelope.op == OP_SHUTDOWN:
                response_queue.put(
                    WorkerResponse(
                        envelope.request_id, (ItemOutcome(True, "bye"),)
                    )
                )
                return
            run = [envelope]
            position += 1
            while (
                position < len(envelopes)
                and envelopes[position].op == envelope.op
            ):
                run.append(envelopes[position])
                position += 1
            merged = [item for env in run for item in env.items]
            try:
                _fault_trip("worker.before_wave", op=envelope.op)
                outcomes = server.handle(envelope.op, merged)
            except BaseException as exc:  # belt and braces: never die silently
                outcomes = [_portable_failure(exc) for _ in merged]
            # The "work committed, response lost" crash window: an "exit"
            # rule here dies after the service's effects are durable but
            # before any outcome ships back.
            _fault_trip("worker.mid_wave_kill", op=envelope.op)
            offset = 0
            for env in run:
                count = len(env.items)
                response_queue.put(
                    WorkerResponse(
                        env.request_id, tuple(outcomes[offset:offset + count])
                    )
                )
                offset += count


def _portable_failure(exc: BaseException) -> ItemOutcome:
    return ItemOutcome(False, _portable(exc))


class ClusterWorker:
    """Router-side handle of one worker process and its queue pair."""

    def __init__(
        self,
        worker_id: int,
        process: Any,
        request_queue: Any,
        response_queue: Any,
    ) -> None:
        self.worker_id = worker_id
        self.process = process
        self.request_queue = request_queue
        self.response_queue = response_queue

    @classmethod
    def spawn(
        cls,
        ctx: Any,
        worker_id: int,
        dataset_factory: Callable[[], Any],
        config: ClusterConfig,
    ) -> "ClusterWorker":
        """Start one worker process over freshly-created queues.

        ``ctx`` is a :mod:`multiprocessing` context; the router prefers
        ``fork`` (copy-on-write shares the factory's captured dataset) and
        spawns the initial fleet *before* starting any router thread.
        """
        request_queue = ctx.Queue()
        response_queue = ctx.Queue()
        process = ctx.Process(
            target=run_worker,
            args=(worker_id, dataset_factory, config, request_queue, response_queue),
            name=f"repro-cluster-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        return cls(worker_id, process, request_queue, response_queue)

    def is_alive(self) -> bool:
        """Whether the worker process is currently running."""
        return self.process.is_alive()

    def kill(self) -> None:
        """SIGKILL the worker (the chaos-test primitive: no cleanup runs)."""
        self.process.kill()

    def shutdown(self, request_id: int) -> None:
        """Enqueue a graceful shutdown envelope (best effort)."""
        try:
            self.request_queue.put(WorkerRequest(request_id, OP_SHUTDOWN, ()))
        except (ValueError, OSError):
            pass  # queue already closed

    def join(self, timeout: float = 5.0) -> None:
        """Wait for exit, escalating to terminate/kill if it overstays."""
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(1.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(1.0)

    def close(self) -> None:
        """Tear down the queue pair without blocking on feeder threads."""
        for q in (self.request_queue, self.response_queue):
            try:
                q.cancel_join_thread()
                q.close()
            except (ValueError, OSError):
                pass
