"""The cluster tier's fault-point catalogue (re-exporting the seam).

The injection machinery itself lives in :mod:`repro.utils.faults` (it has
no dependencies, so the service and store layers can trip points without
importing the cluster package).  This module is the cluster-facing entry:
it re-exports the seam and names every point the serving stack trips, so
tests build plans against documented constants instead of free strings.

Fault points, by protocol step
------------------------------

**Durable close protocol** (see ``docs/cluster.md``), in execution order —
each one is a distinct crash window the protocol must survive:

========================== ====================================================
``CLOSE_BEFORE_INTENT``    close wave validated, nothing persisted yet
``STORE_AFTER_INTENT``     per session, right after its intent file commits
``CLOSE_BEFORE_FLUSH``     intents durable, log flush not started (the old
                           delete-to-flush loss window now sits *behind*
                           the intent)
``CLOSE_AFTER_FLUSH``      log records committed, sessions still stored
``STORE_BEFORE_DELETE``    per session, right before its state is deleted
``CLOSE_AFTER_DELETE``     per session, state gone, intent still present
``STORE_BEFORE_INTENT_CLEAR`` per session, right before its intent clears
========================== ====================================================

**Worker wave execution:**

========================== ====================================================
``WORKER_BEFORE_WAVE``     envelope received, service not yet called
                           (``match={"op": ...}`` scopes to one op)
``WORKER_MID_WAVE``        service call committed, response not yet sent —
                           the classic "work done, reply lost" window
========================== ====================================================

**Router and transport:**

========================== ====================================================
``ROUTER_BEFORE_SHIP``     wave grouped and booked outstanding, not yet sent
``STORE_BEFORE_PUT``       per session-state write (any op that persists)
``TRANSPORT_SOCKET_DROP``  inside socket send/recv (``match={"side": ...}``
                           scopes to the router or worker end)
========================== ====================================================

The ``"exit"`` action at any of these points is the deterministic
equivalent of a SIGKILL landing exactly there; the fault-matrix test in
``tests/test_cluster_faults.py`` walks the full protocol-step ×
fault-point grid and asserts exactly-once log records at every cell.
"""

from __future__ import annotations

from repro.utils.faults import (
    FAULT_ACTIONS,
    FaultPlan,
    FaultRule,
    active_plan,
    clear_plan,
    install_plan,
    installed,
    trip,
)

__all__ = [
    "FaultPlan",
    "FaultRule",
    "FAULT_ACTIONS",
    "install_plan",
    "clear_plan",
    "active_plan",
    "installed",
    "trip",
    "CLOSE_BEFORE_INTENT",
    "CLOSE_BEFORE_FLUSH",
    "CLOSE_AFTER_FLUSH",
    "CLOSE_AFTER_DELETE",
    "STORE_BEFORE_PUT",
    "STORE_BEFORE_DELETE",
    "STORE_AFTER_INTENT",
    "STORE_BEFORE_INTENT_CLEAR",
    "WORKER_BEFORE_WAVE",
    "WORKER_MID_WAVE",
    "ROUTER_BEFORE_SHIP",
    "TRANSPORT_SOCKET_DROP",
    "ALL_POINTS",
]

# --- durable close protocol (service layer) -------------------------------
CLOSE_BEFORE_INTENT = "close.before_intent_write"
CLOSE_BEFORE_FLUSH = "close.before_log_flush"
CLOSE_AFTER_FLUSH = "close.after_log_flush"
CLOSE_AFTER_DELETE = "close.after_delete"

# --- session store commit points ------------------------------------------
STORE_BEFORE_PUT = "store.before_put"
STORE_BEFORE_DELETE = "store.before_delete"
STORE_AFTER_INTENT = "store.after_intent_write"
STORE_BEFORE_INTENT_CLEAR = "store.before_intent_clear"

# --- worker wave execution -------------------------------------------------
WORKER_BEFORE_WAVE = "worker.before_wave"
WORKER_MID_WAVE = "worker.mid_wave_kill"

# --- router dispatch and transport ----------------------------------------
ROUTER_BEFORE_SHIP = "router.before_ship"
TRANSPORT_SOCKET_DROP = "transport.socket_drop"

#: Every named point, in rough protocol order (the matrix test iterates it).
ALL_POINTS = (
    ROUTER_BEFORE_SHIP,
    TRANSPORT_SOCKET_DROP,
    WORKER_BEFORE_WAVE,
    CLOSE_BEFORE_INTENT,
    STORE_AFTER_INTENT,
    CLOSE_BEFORE_FLUSH,
    CLOSE_AFTER_FLUSH,
    STORE_BEFORE_DELETE,
    CLOSE_AFTER_DELETE,
    STORE_BEFORE_INTENT_CLEAR,
    STORE_BEFORE_PUT,
    WORKER_MID_WAVE,
)
