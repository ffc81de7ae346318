"""Typed wire messages and configuration of the cluster serving tier.

Router and workers speak a tiny envelope protocol over one
``multiprocessing.Queue`` pair per worker: a :class:`WorkerRequest` carries
one operation code plus a tuple of per-item payloads (the service's own
frozen DTOs — :class:`~repro.service.dtos.SearchRequest`,
:class:`~repro.service.dtos.FeedbackRequest`, session-id strings), and the
worker answers with a :class:`WorkerResponse` of per-item
:class:`ItemOutcome` envelopes.  Outcomes are **per item** even though the
worker serves the batch through the service's wave APIs: when a wave aborts
(one bad request fails service-side batch validation), the worker falls
back to serving the items individually, so one client's malformed round can
never fail an innocent session that merely coalesced into the same wave.

Everything on the wire is picklable by construction — the DTOs are frozen
dataclasses over numpy arrays and primitives, and failures travel as the
library's own exception instances.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Tuple, Union

from repro.exceptions import ValidationError
from repro.service.service import LOG_POLICIES
from repro.utils.faults import FaultPlan

__all__ = [
    "ClusterConfig",
    "WorkerRequest",
    "WorkerResponse",
    "ItemOutcome",
    "OP_OPEN",
    "OP_FEEDBACK",
    "OP_CLOSE",
    "OP_VIEW",
    "OP_LAST",
    "OP_DISCARD",
    "OP_RECOVER",
    "OP_STATS",
    "OP_PING",
    "OP_SHUTDOWN",
]

PathLike = Union[str, Path]

#: Operation codes of the router→worker protocol.
OP_OPEN = "open"
OP_FEEDBACK = "feedback"
OP_CLOSE = "close"
OP_VIEW = "view"
OP_LAST = "last"
OP_DISCARD = "discard"
OP_RECOVER = "recover"
OP_STATS = "stats"
OP_PING = "ping"
OP_SHUTDOWN = "shutdown"

_ALL_OPS = (
    OP_OPEN,
    OP_FEEDBACK,
    OP_CLOSE,
    OP_VIEW,
    OP_LAST,
    OP_DISCARD,
    OP_RECOVER,
    OP_STATS,
    OP_PING,
    OP_SHUTDOWN,
)

#: Most items one dispatch ships to a worker, and most items a worker
#: gathers from its queue into one service wave.
MAX_WAVE = 64


@dataclass(frozen=True)
class ClusterConfig:
    """Everything a :class:`~repro.cluster.router.ClusterRouter` needs.

    Attributes
    ----------
    session_dir, log_dir:
        Directories of the **shared** :class:`~repro.service.FileSessionStore`
        and :class:`~repro.logdb.FileLogStore`.  Every worker mounts both, so
        any worker can serve (and recover) any session — workers hold no
        per-session state of their own.
    num_workers:
        Worker processes to spawn.
    default_algorithm, log_policy:
        Forwarded to each worker's :class:`~repro.service.RetrievalService`.
    coalesce_window:
        Seconds the router's dispatcher lingers after the first queued
        request before shipping a wave, so concurrent per-call clients
        coalesce into batched worker waves (the cluster's main throughput
        lever).  ``0.0`` dispatches immediately.
    request_timeout:
        Seconds a client call waits for its worker response before raising
        :class:`~repro.exceptions.ClusterTimeoutError` (the no-hang bound).
    retry_limit:
        How many times a client call is retried/re-routed after a worker
        death before the error surfaces.
    auto_restart:
        Whether the monitor respawns dead workers.
    poll_interval:
        Seconds between the monitor's liveness sweeps.
    observability:
        Enable the :mod:`repro.obs` hub inside each worker process (the
        router instruments itself against the ambient hub regardless).
    fault_plan:
        Deterministic fault injection (tests only): a
        :class:`~repro.utils.faults.FaultPlan` installed inside every
        worker process with its worker id, arming the named fault points
        of :mod:`repro.cluster.faults`.  ``None`` disables the seam.
    """

    session_dir: PathLike
    log_dir: PathLike
    num_workers: int = 2
    default_algorithm: str = "lrf-csvm"
    log_policy: str = "on_close"
    coalesce_window: float = 0.003
    request_timeout: float = 30.0
    retry_limit: int = 2
    auto_restart: bool = False
    poll_interval: float = 0.05
    observability: bool = False
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        # Counts must be true integers: 2.5 workers would pass a ``< 1``
        # check and then fail deep inside the router's start-up.
        for name, least in (("num_workers", 1), ("retry_limit", 0)):
            value = getattr(self, name)
            try:
                valid = operator.index(value) >= least
            except TypeError:
                valid = False
            if not valid:
                raise ValidationError(
                    f"{name} must be an integer >= {least}, got {value!r}"
                )
        if self.log_policy not in LOG_POLICIES:
            raise ValidationError(
                f"log_policy must be one of {LOG_POLICIES}, got {self.log_policy!r}"
            )
        # A non-finite timing passes the sign checks below but kills the
        # router's threads (inf overflows a sleep or wait; NaN times out
        # every call at once).
        for name in ("coalesce_window", "request_timeout", "poll_interval"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(
                    f"{name} must be finite, got {getattr(self, name)}"
                )
        if self.coalesce_window < 0:
            raise ValidationError(
                f"coalesce_window must be >= 0, got {self.coalesce_window}"
            )
        if self.request_timeout <= 0:
            raise ValidationError(
                f"request_timeout must be positive, got {self.request_timeout}"
            )
        if self.poll_interval <= 0:
            raise ValidationError(
                f"poll_interval must be positive, got {self.poll_interval}"
            )
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise ValidationError(
                f"fault_plan must be a FaultPlan or None, got {self.fault_plan!r}"
            )


@dataclass(frozen=True)
class WorkerRequest:
    """One router→worker envelope: an operation over a tuple of payloads."""

    request_id: int
    op: str
    items: Tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        if self.op not in _ALL_OPS:
            raise ValidationError(f"unknown cluster op {self.op!r}")


@dataclass(frozen=True)
class ItemOutcome:
    """One payload's result: ``value`` is a response DTO, or the exception
    the service raised for it when ``ok`` is ``False``."""

    ok: bool
    value: Any = None


@dataclass(frozen=True)
class WorkerResponse:
    """One worker→router envelope: per-item outcomes, aligned with the
    request's payload order."""

    request_id: int
    outcomes: Tuple[ItemOutcome, ...]
