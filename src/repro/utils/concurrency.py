"""Concurrency primitives for true parallel serving.

Two small, dependency-free building blocks used by the service layer (and
usable standalone):

* :class:`StripedLockMap` — a fixed pool of re-entrant locks addressed by
  hashable key.  The service maps every session id onto a stripe, so
  per-session mutual exclusion costs O(stripes) memory for an unbounded key
  space; :meth:`StripedLockMap.all_of` acquires a whole wave's stripes in a
  canonical order (deadlock-free between concurrent waves), and
  :meth:`StripedLockMap.try_lock` is the non-blocking probe TTL eviction
  uses so it can never stall — or race — a live feedback round.
* :data:`Lock ordering <LOCK_ORDER>` — the documented acquisition order the
  service layer follows; any code extending the service should respect it.

Neither knows anything about sessions or indexes; they are plain
synchronisation tools with deterministic, test-friendly behaviour.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Hashable, Iterable, Iterator, Optional

from repro.exceptions import ValidationError

__all__ = ["StripedLockMap", "WaitCallback", "LOCK_ORDER"]

#: Signature of the optional lock-wait accounting hook
#: :class:`StripedLockMap` accepts: called as ``callback(mode,
#: waited_seconds)`` after every *blocking* acquisition, where ``mode``
#: names the acquisition kind (``"stripe"`` or ``"wave"``).  ``None`` (the
#: default) skips the timing entirely, so un-hooked locks pay nothing.
#: :func:`repro.obs.lock_wait_recorder` builds a metrics-backed callback.
WaitCallback = Callable[[str, float], None]

#: The single lock-acquisition order of the serving stack.  A thread may
#: only acquire locks *downward* through this list (skipping levels freely);
#: acquiring upward is a deadlock waiting to happen.
#:
#: 1. session stripes  (``StripedLockMap.all_of`` — sorted stripe order)
#: 2. store mutex / per-file atomic replace (internal to the stores)
#: 3. log locks (innermost): the ``LogStore``'s matrix-cache lock, then
#:    its backend's batch mutex or cross-process file lock.  The cache lock
#:    is taken before the append mutex or file lock, never inside it;
#:    appends take only the latter.
#:
#: TTL eviction sits outside the order: it only ever *try-locks* a stripe
#: and skips busy sessions, so it can run at any level without deadlocking.
LOCK_ORDER = (
    "session-stripes",
    "store-mutex",
    "logdb-lock",
)


class StripedLockMap:
    """A fixed pool of re-entrant locks addressed by hashable key.

    Keys are mapped onto ``num_stripes`` :class:`threading.RLock` objects by
    hash, so mutual exclusion over an unbounded key space (session ids)
    costs constant memory.  Two keys sharing a stripe exclude each other —
    that is the accepted trade-off of striping; raise ``num_stripes`` to
    lower the collision rate.

    Parameters
    ----------
    num_stripes:
        Number of locks in the pool (default 64).
    wait_callback:
        Optional :data:`WaitCallback` invoked after each blocking
        acquisition with ``("stripe", waited)`` for :meth:`holding` and
        ``("wave", waited)`` for :meth:`all_of`; ``None`` disables wait
        timing altogether.

    Notes
    -----
    The locks are re-entrant, so a thread holding a key's stripe may lock
    the same key (or a colliding one) again without deadlocking — which is
    what lets :meth:`all_of` and nested per-key operations compose.
    """

    def __init__(
        self, num_stripes: int = 64, *, wait_callback: Optional[WaitCallback] = None
    ) -> None:
        if num_stripes < 1:
            raise ValidationError(f"num_stripes must be >= 1, got {num_stripes}")
        self._stripes = tuple(threading.RLock() for _ in range(num_stripes))
        self._wait_callback = wait_callback

    @property
    def num_stripes(self) -> int:
        """Number of locks in the pool."""
        return len(self._stripes)

    def stripe_of(self, key: Hashable) -> int:
        """The stripe index *key* maps to (stable for the map's lifetime)."""
        return hash(key) % len(self._stripes)

    def lock_for(self, key: Hashable) -> threading.RLock:
        """The re-entrant lock guarding *key* (shared with colliding keys)."""
        return self._stripes[self.stripe_of(key)]

    @contextmanager
    def holding(self, key: Hashable) -> Iterator[None]:
        """Context manager: hold *key*'s stripe for the block."""
        lock = self.lock_for(key)
        if self._wait_callback is None:
            lock.acquire()
        else:
            started = time.perf_counter()
            lock.acquire()
            self._wait_callback("stripe", time.perf_counter() - started)
        try:
            yield
        finally:
            lock.release()

    @contextmanager
    def all_of(self, keys: Iterable[Hashable]) -> Iterator[None]:
        """Hold the stripes of every key in *keys* for the block.

        Distinct stripes are acquired in ascending stripe order — the
        canonical order — so two threads locking overlapping waves can
        never deadlock against each other.
        """
        stripes = sorted({self.stripe_of(key) for key in keys})
        acquired = []
        started = None if self._wait_callback is None else time.perf_counter()
        try:
            for stripe in stripes:
                self._stripes[stripe].acquire()
                acquired.append(stripe)
            if started is not None:
                self._wait_callback("wave", time.perf_counter() - started)
            yield
        finally:
            for stripe in reversed(acquired):
                self._stripes[stripe].release()

    @contextmanager
    def try_lock(self, key: Hashable) -> Iterator[bool]:
        """Non-blocking probe: yields ``True`` iff *key*'s stripe was free.

        The stripe is held for the block when acquired; when the yield is
        ``False`` the caller must skip the key (this is how TTL eviction
        steps around sessions that are mid-round).
        """
        lock = self.lock_for(key)
        held = lock.acquire(blocking=False)
        try:
            yield held
        finally:
            if held:
                lock.release()

