"""Deterministic fault injection: the cluster's crash-test seam.

Chaos tests that SIGKILL a worker "mid-wave" race wall-clock sleeps
against scheduler jitter; they prove the recovery path works *sometimes*.
This module replaces the race with a deterministic seam: production code
calls :func:`trip` at **named fault points** (``"close.before_log_flush"``,
``"worker.mid_wave_kill"``, ...), and a test installs a :class:`FaultPlan`
that fires a chosen action on the N-th matching hit of a chosen point —
same step, same process, every run.

The seam costs one module-global ``is None`` check per call when no plan
is installed, so it stays in production builds; the full catalogue of
points the cluster tier trips lives in :mod:`repro.cluster.faults`.

Three actions ship:

* ``"raise"`` — raise :class:`~repro.exceptions.FaultInjectedError`
  (exercises error propagation without killing anything);
* ``"exit"``  — ``os._exit`` the process immediately (the deterministic
  equivalent of a SIGKILL landing exactly at this protocol step: no
  ``finally`` blocks, no flushes, no cleanup);
* ``"drop"``  — raise :class:`ConnectionResetError` (models a lost
  connection; flows through the same ``OSError`` handling a closed queue
  takes).

A plan armed in a test process with :func:`installed` is inherited by the
cluster workers it forks, and each worker re-arms it under its own id
(:func:`repro.cluster.worker.run_worker`).  Hit counters are **per
process** (installed state, not plan state), so every worker counts its
own hits and ``worker_id``-scoped rules only arm in the worker they name.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

from repro.exceptions import FaultInjectedError, ValidationError

__all__ = [
    "FaultRule",
    "FaultPlan",
    "install_plan",
    "clear_plan",
    "active_plan",
    "installed",
    "trip",
    "FAULT_ACTIONS",
]

#: The actions a :class:`FaultRule` may fire (see module docstring).
FAULT_ACTIONS = ("raise", "exit", "drop")

#: Process exit code used by the ``"exit"`` action — distinctive enough
#: that a test watching worker exits can tell an injected death from a
#: genuine crash.
_EXIT_CODE = 86


@dataclass(frozen=True)
class FaultRule:
    """One armed fault: *point* + optional filters → *action* on hit *at*.

    Attributes
    ----------
    point:
        Fault-point name this rule listens on (exact match).
    action:
        One of :data:`FAULT_ACTIONS`.
    at:
        1-based index of the first **matching** hit that fires (``at=2``
        lets the first hit pass and fires on the second).
    times:
        How many consecutive matching hits fire from *at* on; ``0`` means
        every hit from *at* onwards (a permanently broken step).
    worker_id:
        Only arm in the process installed with this worker id (``None``
        arms everywhere, including the router process).
    match:
        Extra equality filters against the keyword context a
        :func:`trip` call supplies — e.g. ``{"op": "close"}`` scopes a
        ``worker.before_wave`` rule to close waves only.
    """

    point: str
    action: str = "raise"
    at: int = 1
    times: int = 1
    worker_id: Optional[int] = None
    match: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.point:
            raise ValidationError("a FaultRule needs a non-empty point name")
        if self.action not in FAULT_ACTIONS:
            raise ValidationError(
                f"action must be one of {FAULT_ACTIONS}, got {self.action!r}"
            )
        if int(self.at) < 1:
            raise ValidationError(f"at must be >= 1, got {self.at}")
        if int(self.times) < 0:
            raise ValidationError(f"times must be >= 0, got {self.times}")
        object.__setattr__(self, "match", dict(self.match))

    def applies(self, worker_id: Optional[int], info: Mapping[str, Any]) -> bool:
        """Whether this rule listens to a hit in *worker_id* with *info*."""
        if self.worker_id is not None and self.worker_id != worker_id:
            return False
        return all(info.get(key) == value for key, value in self.match.items())

    def fires(self, hit: int) -> bool:
        """Whether the *hit*-th matching hit (1-based) triggers the action."""
        if hit < self.at:
            return False
        return self.times == 0 or hit < self.at + self.times


@dataclass(frozen=True)
class FaultPlan:
    """An immutable bundle of :class:`FaultRule`\\ s (picklable, fork-safe)."""

    rules: Tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        for rule in self.rules:
            if not isinstance(rule, FaultRule):
                raise ValidationError(
                    f"FaultPlan rules must be FaultRule instances, got {rule!r}"
                )

    @classmethod
    def single(cls, point: str, **kwargs: Any) -> "FaultPlan":
        """Convenience: a plan with one rule (kwargs as for :class:`FaultRule`)."""
        return cls(rules=(FaultRule(point=point, **kwargs),))


class _ActivePlan:
    """Per-process installed state: the plan plus its private hit counters."""

    __slots__ = ("plan", "worker_id", "_hits", "_lock")

    def __init__(self, plan: FaultPlan, worker_id: Optional[int]) -> None:
        self.plan = plan
        self.worker_id = worker_id
        self._hits: Dict[int, int] = {}
        self._lock = threading.Lock()

    def trip(self, point: str, info: Mapping[str, Any]) -> None:
        for index, rule in enumerate(self.plan.rules):
            if rule.point != point or not rule.applies(self.worker_id, info):
                continue
            with self._lock:
                hit = self._hits.get(index, 0) + 1
                self._hits[index] = hit
            if rule.fires(hit):
                _fire(rule, point)


def _fire(rule: FaultRule, point: str) -> None:
    if rule.action == "exit":
        os._exit(_EXIT_CODE)
    if rule.action == "drop":
        raise ConnectionResetError(f"injected connection drop at {point!r}")
    raise FaultInjectedError(f"injected fault at {point!r}")


#: The one installed plan of this process (``None`` = seam disabled).
_active: Optional[_ActivePlan] = None


def install_plan(plan: FaultPlan, worker_id: Optional[int] = None) -> None:
    """Arm *plan* in this process (fresh hit counters; replaces any plan).

    ``worker_id`` identifies this process for ``FaultRule.worker_id``
    scoping — cluster workers pass their own id, tests installing in the
    router process usually pass ``None``.
    """
    global _active
    _active = _ActivePlan(plan, worker_id)


def clear_plan() -> None:
    """Disarm the seam in this process (idempotent)."""
    global _active
    _active = None


def active_plan() -> Optional[FaultPlan]:
    """The currently installed plan, or ``None``."""
    active = _active
    return None if active is None else active.plan


@contextmanager
def installed(plan: FaultPlan, worker_id: Optional[int] = None) -> Iterator[None]:
    """Context manager: arm *plan* for the block, disarm on exit.

    The test-side idiom — guarantees a plan installed in the test process
    never leaks into the next test.
    """
    install_plan(plan, worker_id)
    try:
        yield
    finally:
        clear_plan()


def trip(point: str, **info: Any) -> None:
    """Production-side hook: fire any armed rule listening on *point*.

    A no-op (one global load + ``is None`` check) when no plan is
    installed.  Keyword arguments become the context that
    ``FaultRule.match`` filters against.
    """
    active = _active
    if active is not None:
        active.trip(point, info)
