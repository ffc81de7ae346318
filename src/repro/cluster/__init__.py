"""Sharded scatter-gather serving: one logical service over N processes.

The :mod:`repro.cluster` package turns the single-process
:class:`~repro.service.RetrievalService` into a multi-process cluster
without changing the client surface:

* :class:`~repro.cluster.messages.ClusterConfig` — one frozen config
  object describing the fleet (worker count, shared store directories,
  index backend, coalescing window, transport, stealing and failure
  policy).
* :class:`~repro.cluster.worker.ClusterWorker` /
  :func:`~repro.cluster.worker.run_worker` — each worker process hosts a
  complete service stack over the shared on-disk session and log stores
  and serves request waves from a queue pair — or, with
  ``transport="socket"``, over the length-prefixed TCP framing of
  :mod:`repro.cluster.transport`.
* :class:`~repro.cluster.router.ClusterRouter` — the front-end: shards
  sessions over workers by rendezvous hashing
  (:func:`~repro.cluster.router.rendezvous_owner`), coalesces concurrent
  per-call clients into batched waves, steals work off saturated workers
  when ``steal_threshold`` is set, and reconciles worker deaths against
  the shared stores so every feedback round — and every close — applies
  exactly once.
* :mod:`repro.cluster.faults` — the deterministic fault-injection seam
  (:class:`~repro.utils.faults.FaultPlan` rules armed at named protocol
  points) that the chaos and fault-matrix tests drive.

Workers shard the *sessions*; every worker scans the whole pool with its
own index.  See ``docs/cluster.md`` for topology, failure semantics and the
CPU budget.
"""

from repro.cluster.faults import ALL_POINTS
from repro.cluster.messages import (
    TRANSPORTS,
    ClusterConfig,
    ItemOutcome,
    WorkerRequest,
    WorkerResponse,
)
from repro.cluster.router import ClusterRouter, rendezvous_owner
from repro.cluster.worker import ClusterWorker, build_worker_service, run_worker
from repro.utils.faults import FaultPlan, FaultRule

__all__ = [
    "ALL_POINTS",
    "ClusterConfig",
    "ClusterRouter",
    "ClusterWorker",
    "FaultPlan",
    "FaultRule",
    "ItemOutcome",
    "TRANSPORTS",
    "WorkerRequest",
    "WorkerResponse",
    "build_worker_service",
    "rendezvous_owner",
    "run_worker",
]
