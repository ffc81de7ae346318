"""The :class:`RetrievalService`: a multi-session retrieval facade.

This is the system's public interaction surface: many concurrent users, each
owning an explicit session (``open_session`` → ``submit_feedback``\\ * →
``close_session``), served over **one** shared
:class:`~repro.cbir.database.ImageDatabase` with its attached
:class:`~repro.index.VectorIndex`.  Feedback algorithms are stateless
strategies; everything a session accumulates lives in its
:class:`~repro.service.state.SessionState`, which any
:class:`~repro.service.store.SessionStore` backend can persist and a fresh
service can resume bit-identically.  A wave of first-round searches is one
:meth:`~repro.cbir.search.SearchEngine.batch_search` call, and closed
sessions' rounds are what grows the shared log database — the long-term
resource the paper's LRF-CSVM exploits.

Thread safety and lock discipline
---------------------------------
Every public entry point is safe to call from any number of threads.
Serving only *reads* the features, the index and the log vectors: an index
is built on the database before serving starts
(:meth:`~repro.cbir.database.ImageDatabase.build_index`) and never changes
under a running service.  The service takes one lock level of its own (the
first of :data:`repro.utils.concurrency.LOCK_ORDER`), the **session
stripes** (:class:`~repro.utils.concurrency.StripedLockMap`).  Each call
locks the stripes of every session it touches, in canonical order, for its
whole duration.  Two calls on the same session serialise; calls on disjoint
sessions run truly in parallel.

Below them sit only the stores' own locks.  A wave's log records land in
the shared log as **one** atomic :meth:`~repro.logdb.store.LogStore.extend`
batch; the log target is a pluggable :class:`~repro.logdb.store.LogStore`
(which carries its own innermost synchronisation) — give the database a
file-backed store and many service *processes* ship their logs into one
directory.  Feedback rounds read the log through a versioned immutable
:class:`~repro.logdb.relevance_matrix.LogSnapshot` captured at most once per
batch (when a round first reads it), so scoring sees a consistent relevance
matrix while appends continue.

A wave runs on its calling thread: client threads are what parallelise
in-process serving (NumPy releases the GIL in the dense kernels), and the
process cluster (:mod:`repro.cluster`) is the scale-out path.  Strategy
instances passed by the caller (instance-backed sessions) are never cloned —
their thread safety remains the caller's responsibility; registry-named
algorithms are materialised per round and are fully safe.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Union

from repro.cbir.database import ImageDatabase
from repro.cbir.query import Query, RetrievalResult
from repro.cbir.search import SearchEngine
from repro.exceptions import SessionError, ValidationError
from repro.feedback.base import (
    FeedbackContext,
    FirstReadSnapshot,
    RelevanceFeedbackAlgorithm,
)
from repro.feedback.registry import make_algorithm
from repro.logdb.session import LogSession
from repro.logdb.store import _session_document, _session_from_document
from repro.obs import get_hub, lock_wait_recorder
from repro.service.dtos import FeedbackRequest, RankingResponse, SearchRequest, SessionView
from repro.service.dtos import (
    check_feedback_batch,
    check_session_id,
    check_session_ids,
    coerce_feedback,
    coerce_search,
)
from repro.service.state import SessionState
from repro.service.store import InMemorySessionStore, SessionStore
from repro.utils.concurrency import StripedLockMap
from repro.utils.faults import trip as _fault_trip

__all__ = ["RetrievalService", "LOG_POLICIES"]

#: When closed sessions' judgements reach the shared log database:
#: ``on_close`` appends one log session per completed round at close time
#: (the service default — in-flight sessions never contaminate each other),
#: ``off`` never appends (evaluation runs).
LOG_POLICIES = ("on_close", "off")

#: The scheme of a session whose request names none, unless the service
#: is built with another.
DEFAULT_ALGORITHM = "lrf-csvm"


class RetrievalService:
    """Session-oriented retrieval service over one shared image database.

    Parameters
    ----------
    database:
        The shared corpus (features + feedback log).
    store:
        Session storage backend; defaults to an in-memory store.
    default_algorithm:
        Scheme used when a :class:`SearchRequest` names none.
    log_policy:
        One of :data:`LOG_POLICIES`.

    Raises
    ------
    ValidationError
        For an unknown log policy.

    Notes
    -----
    All entry points are thread-safe; see the module docstring for the
    lock discipline.  Every entry point that takes session ids raises
    :class:`ValidationError` for one that is not a valid id string.
    """

    def __init__(
        self,
        database: ImageDatabase,
        *,
        store: Optional[SessionStore] = None,
        default_algorithm: Union[str, RelevanceFeedbackAlgorithm] = DEFAULT_ALGORITHM,
        log_policy: str = "on_close",
    ) -> None:
        if log_policy not in LOG_POLICIES:
            raise ValidationError(
                f"log_policy must be one of {LOG_POLICIES}, got {log_policy!r}"
            )
        self.database = database
        self.search_engine = SearchEngine(database)
        self.store: SessionStore = (
            store if store is not None else InMemorySessionStore()
        )
        self.default_algorithm = default_algorithm
        self.log_policy = log_policy
        self._id_counter = itertools.count(1)
        # Strategy configurations (``_group_key`` without a ranking size)
        # that built once: a constructor either accepts a configuration or
        # refuses it, so each is built at its first open only.
        self._buildable: Set[object] = set()
        # The wait recorder consults the observability hub at call time, so
        # lock-wait accounting follows repro.obs.configure()/disable() live.
        self._session_locks = StripedLockMap(
            wait_callback=lock_wait_recorder("service.session_locks")
        )
        # Roll forward any close that crashed mid-protocol before this
        # process took over the store (cluster worker restarts land here).
        if self._durable_close:
            self.recover_close_intents()

    @property
    def _durable_close(self) -> bool:
        """Whether closes run the write-ahead intent protocol: ``on_close``
        over a store that persists intents (otherwise: delete, then append)."""
        return self.log_policy == "on_close" and getattr(
            self.store, "supports_close_intents", False
        )

    # ---------------------------------------------------------------- opening
    def open_session(
        self, request: Union[SearchRequest, int, Query], **kwargs
    ) -> RankingResponse:
        """Open one session and return its initial (round-0) ranking.

        Accepts a full :class:`SearchRequest` or the query plus
        ``SearchRequest`` keyword arguments for convenience.

        Parameters
        ----------
        request:
            A :class:`SearchRequest`, a database image index, or a
            :class:`~repro.cbir.query.Query`.
        kwargs:
            :class:`SearchRequest` fields when passing a raw query.

        Returns
        -------
        RankingResponse
            ``round_index`` 0 and the initial ranking.

        Raises
        ------
        SessionError
            If a client-chosen session id already exists.
        ValidationError
            For malformed request fields.
        """
        return self.open_sessions([coerce_search(request, kwargs)])[0]

    def open_sessions(
        self, requests: Sequence[Union[SearchRequest, int, Query]]
    ) -> List[RankingResponse]:
        """Open a wave of sessions with one batched first-round search.

        The wave's queries go through a single
        :meth:`~repro.cbir.search.SearchEngine.batch_search` call (one per
        distinct ``top_k``; waves are nearly always uniform) — per session
        this produces the same ranking as a dedicated search, but the wave
        costs one vectorised pass instead of N dispatches.

        Parameters
        ----------
        requests:
            The wave; each element as accepted by :meth:`open_session`.

        Returns
        -------
        list of RankingResponse
            One round-0 response per request, in request order.

        Raises
        ------
        SessionError
            If an id is requested twice in the wave or already exists; the
            failed wave leaves no sessions behind.
        ValidationError
            If a request names an unknown algorithm or parameters its
            constructor does not take (an out-of-range value raises the
            constructor's own error); the wave stores nothing.

        Notes
        -----
        Thread-safe: the wave holds its sessions' stripes end to end.
        """
        coerced = [coerce_search(request, {}) for request in requests]
        if not coerced:
            return []
        now = time.time()
        # Build and validate every state of the wave BEFORE serving any of
        # it: two requests claiming one id would otherwise silently hand one
        # user the other's ranking.
        states: List[SessionState] = []
        wave_ids = set()
        for request in coerced:
            state = self._new_state(request, now)
            if state.session_id in wave_ids:
                raise SessionError(
                    f"session '{state.session_id}' is requested twice in one wave"
                )
            wave_ids.add(state.session_id)
            # Fail states the backend cannot persist (e.g. instance-backed
            # against the file store) BEFORE serving any of the wave.
            self.store.check_storable(state)
            # A strategy that cannot be built would fail every round of its
            # session: refuse it now, before anything of the wave is stored.
            if state.instance is None:
                strategy = self._group_key(state, None)
                if strategy not in self._buildable:
                    self._materialize(state)
                    self._buildable.add(strategy)
            states.append(state)
        hub = get_hub()
        with hub.span("service.open_sessions", wave=len(states)) as span:
            with self._session_locks.all_of(wave_ids):
                # Existence is re-checked under the stripes: a concurrent wave
                # claiming the same client-chosen id serialises here, so only
                # one of them can win.
                for state in states:
                    if state.session_id in self.store:
                        raise SessionError(
                            f"session '{state.session_id}' already exists"
                        )
                by_top_k: Dict[Optional[int], List[SessionState]] = {}
                for state in states:
                    by_top_k.setdefault(state.top_k, []).append(state)
                results: Dict[str, RetrievalResult] = {}
                for top_k, group in by_top_k.items():
                    batched = self.search_engine.batch_search(
                        [state.query for state in group], top_k=top_k
                    )
                    for state, result in zip(group, batched):
                        results[state.session_id] = result
                # Nothing is stored until every search of the wave succeeded.
                responses = []
                for state in states:
                    result = results[state.session_id]
                    state.record_ranking(result)
                    self.store.put(state)
                    responses.append(
                        RankingResponse(
                            session_id=state.session_id, round_index=0, result=result
                        )
                    )
        if hub.enabled:
            hub.count("service.sessions_opened", len(states))
            hub.set_gauge("service.open_sessions", len(self.store))
            hub.observe("service.open_wave_seconds", span.duration)
        return responses

    # --------------------------------------------------------------- feedback
    def submit_feedback(
        self,
        request: Union[FeedbackRequest, str],
        judgements: Optional[Mapping[int, int]] = None,
        *,
        top_k: Optional[int] = None,
    ) -> RankingResponse:
        """Run one feedback round for one session; returns the refined ranking.

        Parameters
        ----------
        request:
            A :class:`FeedbackRequest`, or the session id when passing the
            judgements separately.
        judgements:
            Image index → ±1 mapping (only with a raw session id).
        top_k:
            Refined-ranking size (only with a raw session id).

        Returns
        -------
        RankingResponse
            The refined ranking with this round's index.

        Raises
        ------
        SessionError
            For unknown or closed sessions.
        ValidationError
            For malformed judgements or out-of-range image indices.
        """
        return self.submit_feedback_batch(
            [coerce_feedback(request, judgements, top_k)]
        )[0]

    def submit_feedback_batch(
        self, requests: Sequence[FeedbackRequest]
    ) -> List[RankingResponse]:
        """Run one feedback round for each session in the batch.

        Rounds are grouped by (strategy, ``top_k``).  Groups whose scheme
        vectorises across queries (the Euclidean baseline routes through
        ``VectorIndex.batch_search``) are scored as one
        :meth:`RelevanceFeedbackAlgorithm.rank_batch` pass; every other
        round is an independent solve over its own
        :class:`SessionState` — which is what keeps concurrent sessions
        bit-identical to dedicated single-user runs.  Every context carries
        the session's last ranking (a Euclidean round answers from it
        without a scan) and the batch's one
        :class:`~repro.feedback.base.FirstReadSnapshot` of the log.

        Parameters
        ----------
        requests:
            One :class:`FeedbackRequest` per session; a session may appear
            at most once per batch.

        Returns
        -------
        list of RankingResponse
            One refined ranking per request, in request order.

        Raises
        ------
        SessionError
            For unknown/closed sessions or a duplicated id in the batch
            (rejected before any session state is touched).
        ValidationError
            For an item that is not a :class:`FeedbackRequest`, or
            judgements referencing images outside the database.

        Notes
        -----
        Thread-safe: the batch holds its sessions' stripes for the whole
        round.
        """
        coerced = check_feedback_batch(requests)
        if not coerced:
            return []
        now = time.time()
        # Validate the whole batch BEFORE touching any session state: a bad
        # request must not leave a half-applied round behind (the in-memory
        # store hands out live objects), and one session may only advance by
        # one round per batch — duplicates would corrupt its history.
        seen_ids = set()
        num_images = self.database.num_images
        for request in coerced:
            if request.session_id in seen_ids:
                raise SessionError(
                    f"session '{request.session_id}' appears twice in one "
                    "feedback batch; submit its rounds sequentially"
                )
            seen_ids.add(request.session_id)
            worst = max(request.judgements)
            if worst >= num_images:
                raise ValidationError(
                    f"judgement references image {worst} but the database "
                    f"only has {num_images} images"
                )
        hub = get_hub()
        with hub.span("service.feedback_batch", batch=len(coerced)) as batch_span, \
                self._session_locks.all_of(seen_ids):
            states = [self._open_state(request.session_id) for request in coerced]
            # Snapshots for rollback: the in-memory store hands out live
            # objects, so if anything between apply_round and the final
            # store.put raises, every session of the batch must be restored
            # — no phantom rounds, no half-mutated warm-start memory.
            snapshots = [
                (
                    dict(state.judgements),
                    len(state.round_judgements),
                    dict(state.memory.arrays),
                    dict(state.memory.meta),
                )
                for state in states
            ]
            try:
                # One versioned log snapshot for the whole batch, taken when
                # a round first reads it: every round scores against the
                # same immutable sparse R — the object shared by all batches
                # of this log version — no matter what concurrent sessions
                # append, and a batch that never reads R takes none.
                log_snapshot = FirstReadSnapshot(self.database.log_database)
                contexts: List[FeedbackContext] = []
                round_indices: List[int] = []
                for request, state in zip(coerced, states):
                    state.apply_round(request.judgements)
                    round_indices.append(state.rounds_completed)
                    indices, labels = state.labeled_arrays()
                    contexts.append(
                        FeedbackContext(
                            database=self.database,
                            query=state.query,
                            labeled_indices=indices,
                            labels=labels,
                            memory=state.memory,
                            log=log_snapshot,
                            previous_ranking=state.last_result(),
                        )
                    )
                results = self._score_rounds(coerced, states, contexts)
            except BaseException:
                for state, (judged, rounds, mem_arrays, mem_meta) in zip(
                    states, snapshots
                ):
                    state.judgements = judged
                    del state.round_judgements[rounds:]
                    state.memory.arrays = mem_arrays
                    state.memory.meta = mem_meta
                raise

            responses = []
            for state, result, round_index in zip(states, results, round_indices):
                state.record_ranking(result)
                state.last_active = now
                self.store.put(state)
                responses.append(
                    RankingResponse(
                        session_id=state.session_id,
                        round_index=round_index,
                        result=result,
                        solver_stats=state.solver_stats(),
                    )
                )
        if hub.enabled:
            hub.count("service.rounds_scored", len(coerced))
            hub.observe("service.feedback_batch_seconds", batch_span.duration)
        return responses

    # ---------------------------------------------------------------- closing
    def close_session(self, session_id: str) -> SessionView:
        """Close one session, flushing its rounds into the shared log.

        Parameters
        ----------
        session_id:
            An open session's id.

        Returns
        -------
        SessionView
            The final snapshot (``closed`` is ``True``).

        Raises
        ------
        SessionError
            For unknown or already-closed sessions.
        """
        return self.close_sessions([session_id])[0]

    def close_sessions(self, session_ids: Sequence[str]) -> List[SessionView]:
        """Close a wave of sessions, flushing their rounds into the log.

        Under the ``on_close`` policy every completed round of every listed
        session becomes one :class:`~repro.logdb.session.LogSession`.  With
        a store that supports close intents (the file backend), the wave
        runs the **durable close protocol** — per session:

        1. persist a write-ahead *close intent* (the session's log records
           plus a deterministic dedup token);
        2. flush the records into the log via the store's idempotent
           :meth:`~repro.logdb.store.LogStore.extend_once`;
        3. delete the session state;
        4. clear the intent.

        The intent is the commit decision: a crash at any step after (1)
        is rolled *forward* by :meth:`recover_close_intents` (on restart,
        or by the cluster router's reconciliation), and the token makes
        every replay — including a router re-sending the whole close to a
        surviving worker — exactly-once.  Without intent support (or under
        other log policies) the plain order runs: delete the sessions, then
        append the wave's records as one atomic batch.

        Parameters
        ----------
        session_ids:
            The sessions to close.

        Returns
        -------
        list of SessionView
            Final snapshots, in argument order.

        Raises
        ------
        SessionError
            For unknown or already-closed sessions.
        ValidationError
            For a bare string in place of a sequence of ids.

        Notes
        -----
        Thread-safe: holds the wave's stripes, so a close cannot interleave
        with a live feedback round of the same session.
        """
        session_ids = check_session_ids(session_ids)
        views: List[SessionView] = []
        hub = get_hub()
        with hub.span("service.close_sessions", wave=len(session_ids)), \
                self._session_locks.all_of(session_ids):
            # Pre-validate the whole wave (unknown/closed/duplicated ids)
            # BEFORE mutating anything: a bad id mid-wave must not leave
            # earlier sessions deleted with their log records unwritten.
            seen_ids = set()
            states = []
            for session_id in session_ids:
                if session_id in seen_ids:
                    raise SessionError(
                        f"session '{session_id}' appears twice in one close wave"
                    )
                seen_ids.add(session_id)
                states.append(self._open_state(session_id))
            if self._durable_close:
                views = self._close_durably(states)
            else:
                records: List[LogSession] = []
                for state in states:
                    if self.log_policy == "on_close":
                        records.extend(
                            self._log_session(state, judged)
                            for judged in state.round_judgements
                        )
                    state.closed = True
                    views.append(state.view())
                    self.store.delete(state.session_id)
                self.database.log_database.extend(records)
        if hub.enabled:
            hub.count("service.sessions_closed", len(views))
            hub.set_gauge("service.open_sessions", len(self.store))
        return views

    def _close_durably(self, states: Sequence[SessionState]) -> List[SessionView]:
        """The write-ahead close order: intent → flush → delete → clear.

        Sessions without completed rounds skip the intent machinery —
        there is nothing to lose, so a plain delete is already crash-safe
        (a lost reply re-sends the close, finds the state present or gone,
        and reconciles either way).
        """
        _fault_trip("close.before_intent_write")
        intents: List[Optional[Dict]] = []
        for state in states:
            intent = self._close_intent_document(state)
            if intent is not None:
                self.store.write_close_intent(state.session_id, intent)
            intents.append(intent)
        _fault_trip("close.before_log_flush")
        for intent in intents:
            if intent is not None:
                self._flush_intent(intent)
        _fault_trip("close.after_log_flush")
        views = []
        for state, intent in zip(states, intents):
            state.closed = True
            views.append(state.view())
            self.store.delete(state.session_id)
            _fault_trip("close.after_delete", session_id=state.session_id)
            if intent is not None:
                self.store.clear_close_intent(state.session_id)
        return views

    def recover_close_intents(
        self, session_ids: Optional[Sequence[str]] = None
    ) -> List[str]:
        """Roll forward orphaned write-ahead close intents; returns the ids.

        An intent on disk means a close committed its decision but crashed
        before finishing.  Replay completes it, idempotently, in the same
        order the protocol runs: flush the intent's records through the
        log's token-deduplicated :meth:`~repro.logdb.store.LogStore.extend_once`
        (a replay of an already-flushed intent is a no-op), delete the
        session state — but **only** when its ``created_at`` matches the
        intent's (a *stale* intent from a prior epoch must not delete a
        fresh session that merely reused the id) — then clear the intent.

        Called automatically when a service starts over an intent-capable
        store under ``on_close`` (the worker-restart path), and by the
        cluster router's close reconciliation against a surviving worker.

        Parameters
        ----------
        session_ids:
            Restrict replay to these ids; ``None`` replays every pending
            intent the store lists.

        Returns
        -------
        list of str
            Ids whose intent was replayed (missing intents are skipped).
        """
        if not getattr(self.store, "supports_close_intents", False):
            return []
        pending = (
            self.store.close_intent_ids()
            if session_ids is None
            else list(session_ids)
        )
        replayed: List[str] = []
        for session_id in pending:
            with self._session_locks.holding(session_id):
                intent = self.store.read_close_intent(session_id)
                if intent is None:
                    continue
                self._flush_intent(intent)
                try:
                    state_created = float(self.store.get(session_id).created_at)
                except SessionError:
                    state_created = None
                if state_created is not None and state_created == float(
                    intent.get("created_at", float("nan"))
                ):
                    self.store.delete(session_id)
                self.store.clear_close_intent(session_id)
                replayed.append(session_id)
        if replayed:
            get_hub().count("cluster.close_replays", len(replayed))
        return replayed

    def _close_intent_document(self, state: SessionState) -> Optional[Dict]:
        """The write-ahead record of one closing session (``None`` = no rounds).

        The token is derived from ``(session_id, created_at, rounds)`` —
        everything a re-sent close regenerates bit-identically from the
        stored state — so every replay of this close carries the same
        token and the log commits its records exactly once.
        """
        if not state.round_judgements:
            return None
        records = [
            self._log_session(state, judged) for judged in state.round_judgements
        ]
        return {
            "version": 1,
            "session_id": state.session_id,
            "created_at": float(state.created_at),
            "token": (
                f"close:{state.session_id}:{float(state.created_at)!r}"
                f":r{state.rounds_completed}"
            ),
            "records": [_session_document(record) for record in records],
        }

    def _flush_intent(self, intent: Dict) -> None:
        """Commit an intent's records into the log (token-deduplicated)."""
        records = [
            _session_from_document(document)
            for document in intent.get("records", ())
        ]
        token = intent.get("token")
        if records and token:
            self.database.log_database.extend_once(records, str(token))

    def discard_session(self, session_id: str) -> None:
        """Abandon a session without recording anything.

        A missing id is a no-op.  Thread-safe (holds the session's stripe).
        """
        check_session_id(session_id)
        with self._session_locks.holding(session_id):
            self.store.delete(session_id)

    # ------------------------------------------------------------- inspection
    def get_session(self, session_id: str) -> SessionView:
        """A read-only snapshot of one open session.

        Raises
        ------
        SessionError
            For unknown ids.

        Notes
        -----
        Taken under the session's stripe, so the snapshot is consistent
        (never a torn view of a round in flight).
        """
        check_session_id(session_id)
        with self._session_locks.holding(session_id):
            return self.store.get(session_id).view()

    def last_response(self, session_id: str) -> Optional[RankingResponse]:
        """Replay the most recent ranking of an open session from its state.

        The recovery primitive of the cluster tier: after a worker dies
        mid-round, the router asks any surviving worker (they share the
        session store) for the session's last persisted ranking and its
        round index, and reconciles — if the round the client was waiting
        on is already persisted, its response is recovered from here
        instead of being re-scored.

        Parameters
        ----------
        session_id:
            An open session's id.

        Returns
        -------
        RankingResponse or None
            The last recorded ranking stamped with the session's completed
            round count, or ``None`` when no ranking has been recorded yet.

        Raises
        ------
        SessionError
            For unknown or closed sessions.

        Notes
        -----
        Taken under the session's stripe, so the round index and ranking
        are a consistent pair (never a torn view of a round in flight).
        """
        check_session_id(session_id)
        with self._session_locks.holding(session_id):
            state = self._open_state(session_id)
            result = state.last_result()
            if result is None:
                return None
            return RankingResponse(
                session_id=state.session_id,
                round_index=state.rounds_completed,
                result=result,
                solver_stats=state.solver_stats(),
            )

    @property
    def num_open_sessions(self) -> int:
        """Number of sessions currently stored."""
        return len(self.store)

    def shutdown(self) -> None:
        """A no-op: the service owns no threads or other resources to release.

        Kept because ``bench/`` and teardown code call it; the service
        remains usable afterwards.
        """

    # -------------------------------------------------------------- internals
    def _score_rounds(
        self,
        coerced: Sequence[FeedbackRequest],
        states: Sequence[SessionState],
        contexts: Sequence[FeedbackContext],
    ) -> List[object]:
        """Score every round of the batch; results in request order.

        Rounds are grouped by (strategy, ``top_k``), preserving request
        order inside every group:

        * a group whose algorithm overrides ``rank_batch`` (a genuinely
          vectorised batch path) — or whose sessions share a caller-owned
          instance — is one ``rank_batch`` call, keeping the vectorised
          win / the caller's sequencing;
        * every other round is ranked by a **freshly materialised**
          strategy, so no two rounds share mutable strategy state.
        """
        groups: Dict[object, List[int]] = {}
        for position, (request, state) in enumerate(zip(coerced, states)):
            groups.setdefault(self._group_key(state, request.top_k), []).append(
                position
            )

        results: List[object] = [None] * len(coerced)
        for positions in groups.values():
            lead_state = states[positions[0]]
            top_k = coerced[positions[0]].top_k
            algorithm = self._materialize(lead_state)
            label = (
                lead_state.algorithm
                if lead_state.instance is None
                else type(lead_state.instance).__name__
            )
            if (
                lead_state.instance is not None
                or type(algorithm).rank_batch
                is not RelevanceFeedbackAlgorithm.rank_batch
            ):
                with self._traced_round(
                    [states[position].session_id for position in positions], label
                ):
                    outcome = algorithm.rank_batch(
                        [contexts[position] for position in positions], top_k=top_k
                    )
                for position, result in zip(positions, outcome):
                    results[position] = result
            else:
                for position in positions:
                    # The probe instance serves the group's first round (it
                    # is fresh and unshared); the rest materialise their own.
                    if position != positions[0]:
                        algorithm = self._materialize(states[position])
                    with self._traced_round([states[position].session_id], label):
                        results[position] = algorithm.rank(
                            contexts[position], top_k=top_k
                        )
        return results

    @staticmethod
    @contextmanager
    def _traced_round(session_ids: Sequence[str], algorithm: str) -> Iterator[None]:
        """A ``service.round`` span around one scoring call (no-op when disabled)."""
        hub = get_hub()
        if not hub.enabled:
            yield
            return
        attrs: Dict[str, object] = {"algorithm": algorithm, "rounds": len(session_ids)}
        if len(session_ids) == 1:
            attrs["session_id"] = session_ids[0]
        with hub.span("service.round", **attrs) as span:
            yield
        hub.observe("service.round_seconds", span.duration)

    def _new_state(self, request: SearchRequest, now: float) -> SessionState:
        """Build the fresh state of one request (existence checked later)."""
        session_id = request.session_id or self._new_id()
        algorithm = (
            self.default_algorithm if request.algorithm is None else request.algorithm
        )
        state = SessionState(
            session_id=session_id,
            query=request.query,
            top_k=request.top_k,
            created_at=now,
            last_active=now,
        )
        if isinstance(algorithm, str):
            state.algorithm = algorithm
            state.algorithm_params = dict(request.algorithm_params)
        else:
            state.instance = algorithm
        return state

    def _new_id(self) -> str:
        """Mint a service-assigned session id (the counter is race-free)."""
        while True:
            session_id = f"s{next(self._id_counter):06d}"
            if session_id not in self.store:
                return session_id

    def _open_state(self, session_id: str) -> SessionState:
        """The stored state of an *open* session (raises otherwise)."""
        state = self.store.get(session_id)
        if state.closed:
            raise SessionError(f"session '{session_id}' is closed")
        return state

    def _materialize(self, state: SessionState) -> RelevanceFeedbackAlgorithm:
        """The strategy serving *state*: its instance, or a fresh build."""
        if state.instance is not None:
            return state.instance
        return make_algorithm(state.algorithm, **state.algorithm_params)

    def _group_key(self, state: SessionState, top_k: Optional[int]) -> object:
        """Batch-grouping key: same strategy configuration + ranking size."""
        if state.instance is not None:
            return (id(state.instance), top_k)
        return (
            state.algorithm,
            json.dumps(state.algorithm_params, sort_keys=True, default=str),
            top_k,
        )

    def _log_session(self, state: SessionState, judged: Mapping[int, int]) -> LogSession:
        """One round's judgements as the log record the paper accumulates."""
        query_index = (
            int(state.query.query_index) if state.query.is_internal else None
        )
        return LogSession(judgements=dict(judged), query_index=query_index)
