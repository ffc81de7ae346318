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
never fail an innocent session that merely shares its wave.

Everything on the wire is picklable by construction — the DTOs are frozen
dataclasses over numpy arrays and primitives, and failures travel as the
library's own exception instances.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Tuple, Union

from repro.exceptions import ValidationError

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

#: Most items one envelope carries to a worker, and most items a worker
#: gathers from its queue into one service wave.
MAX_WAVE = 64


@dataclass(frozen=True)
class ClusterConfig:
    """The settings of one cluster deployment.

    Attributes
    ----------
    session_dir, log_dir:
        Directories of the **shared** :class:`~repro.service.FileSessionStore`
        and :class:`~repro.logdb.FileLogStore`.  Every worker mounts both, so
        any worker can serve (and recover) any session — workers hold no
        per-session state of their own.
    num_workers:
        Worker processes to spawn.
    auto_restart:
        Whether a worker's receiver respawns the worker when it finds it
        dead.
    """

    session_dir: PathLike
    log_dir: PathLike
    num_workers: int = 2
    auto_restart: bool = False

    def __post_init__(self) -> None:
        # The count must be a true integer: 2.5 workers would pass a ``< 1``
        # check and then fail deep inside the router's start-up.
        try:
            valid = operator.index(self.num_workers) >= 1
        except TypeError:
            valid = False
        if not valid:
            raise ValidationError(
                f"num_workers must be an integer >= 1, got {self.num_workers!r}"
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
