"""The :class:`LogDatabase` façade: a log store plus its relevance matrix.

Since the v2 redesign the log layer is split in two:

* a pluggable :class:`~repro.logdb.store.LogStore` backend owns the durable
  session sequence (in-memory, or the on-disk multi-process segment store);
* this façade owns the **derived artifact** — the sparse relevance matrix
  ``R`` — and keeps it fresh *incrementally*: the matrix cache is never
  invalidated by an append; a read extends it by exactly the sessions
  appended since (one CSR block + one ``vstack``, see
  :meth:`~repro.logdb.relevance_matrix.RelevanceMatrix.append_sessions`)
  instead of rebuilding from session zero.

Readers that need a *stable* view while appends continue — feedback
strategies mid-round, the evaluation protocol, concurrent serving threads —
take a :class:`LogSnapshot`: an immutable, versioned capture of ``R`` that
never changes length or contents no matter what lands in the store
afterwards.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence

import numpy as np
from scipy import sparse

from repro.exceptions import LogDatabaseError
from repro.logdb.relevance_matrix import RelevanceMatrix
from repro.obs import get_hub
from repro.logdb.session import LogSession
from repro.logdb.store import InMemoryLogStore, LogStore

__all__ = ["LogDatabase", "LogSnapshot"]


class LogSnapshot:
    """An immutable, versioned capture of the relevance matrix ``R``.

    A snapshot is what feedback strategies and the evaluation protocol
    consume: it guarantees every log read inside a round sees the same
    ``R`` — same number of sessions, same judgements — even while other
    sessions keep appending to the underlying store.
    :meth:`LogDatabase.snapshot` hands out **one snapshot object per log
    version**, so everything derived from it (:meth:`log_rows`,
    :meth:`log_csr`, anything memoised through :meth:`derived`) is built
    once per version and shared by every round, session and client
    thread that reads that version.

    ``R`` stays sparse throughout: a session judges the ~20 images one
    round returned, so the matrix is a fraction of a percent dense and no
    accessor here ever allocates ``num_images x num_sessions`` floats.
    :meth:`log_vectors` returns the small dense block of the requested
    images only; full-pool consumers (the log SVM's decision function,
    the graph family's co-relevance kernel) read the sparse views.

    Attributes
    ----------
    version:
        Number of log sessions the snapshot contains.  Snapshots of the
        same store are totally ordered by ``version``; a later snapshot is
        always an extension of an earlier one (the log is append-only).
    matrix:
        The captured :class:`RelevanceMatrix` (immutable).

    Notes
    -----
    Thread-safe: derived views are built at most once under an internal
    lock and their buffers are marked read-only, so any number of rounds
    (on any number of client threads) may share one snapshot.
    """

    __slots__ = ("version", "matrix", "_derived", "_lock")

    def __init__(self, matrix: RelevanceMatrix) -> None:
        self.matrix = matrix
        self.version = int(matrix.num_sessions)
        self._derived: Dict[Hashable, Any] = {}
        # Re-entrant: a derived value may be built from another one.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ info
    @property
    def num_sessions(self) -> int:
        """Number of log sessions captured (== :attr:`version`)."""
        return self.version

    @property
    def num_images(self) -> int:
        """Number of images the log refers to."""
        return self.matrix.num_images

    @property
    def is_empty(self) -> bool:
        """Whether the snapshot contains no sessions (cold start)."""
        return self.version == 0

    # --------------------------------------------------------------- queries
    def log_vectors(self, image_indices: Sequence[int]) -> np.ndarray:
        """Dense user-log vectors (one **row per image**) of *image_indices*.

        The block a strategy trains on: the labelled images, the selected
        unlabeled ones.  It is sliced out of :meth:`log_rows`, so the cost
        is proportional to the judgements of the requested images, not to
        the pool.  Duplicate and unsorted indices are honoured as given.

        Returns
        -------
        numpy.ndarray
            A fresh, writable, C-contiguous
            ``(len(image_indices), num_sessions)`` array (zero columns on
            an empty log).

        Raises
        ------
        LogDatabaseError
            If an index is negative or not below :attr:`num_images`.
        """
        indices = np.asarray(image_indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_images):
            raise LogDatabaseError("image_indices out of range")
        return self.log_rows()[indices].toarray()

    def log_vector(self, image_index: int) -> np.ndarray:
        """Dense user-log vector ``r_i`` of one image."""
        return self.matrix.log_vector(image_index)

    def log_rows(self) -> sparse.csr_matrix:
        """The user-log vectors of **every** image as a shared sparse matrix.

        ``R`` transposed: row ``i`` is the log vector ``r_i``.  This is
        what full-pool log scoring consumes — the kernels accept it as
        their left operand and cost ``O(nnz x n_SV)`` — and row-slicing it
        (``log_rows()[candidates]``) restricts scoring to a candidate set.
        Built at most once per snapshot.

        Returns
        -------
        scipy.sparse.csr_matrix
            Read-only ``(num_images, num_sessions)`` matrix.
        """
        return self.derived("log_rows", lambda: _frozen(self.matrix.tocsr().T.tocsr()))

    def log_csr(self) -> sparse.csr_matrix:
        """The captured ``R`` as a shared read-only CSR matrix.

        The sessions-major view — e.g. the graph family's log co-relevance
        kernel computes ``R^T R`` straight off it.  Built at most once per
        snapshot.

        Returns
        -------
        scipy.sparse.csr_matrix
            Read-only ``(num_sessions, num_images)`` matrix.
        """
        return self.derived("log_csr", lambda: _frozen(self.matrix.tocsr()))

    def derived(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """``build()``, computed at most once per snapshot under *key*.

        A snapshot never changes and is shared by every reader of its log
        version, so a value that is a pure function of it (and of whatever
        *key* names) can be computed by the first caller and reused until
        the log grows.  The graph family memoises its fused affinity
        matrix here.  Entries live exactly as long as the snapshot.

        Parameters
        ----------
        key:
            Hashable identity of the derived value; callers namespace their
            keys (``("graph.fused", ...)``) to stay out of each other's way.
        build:
            Zero-argument factory, called under the snapshot's lock (at
            most one build runs at a time) only when *key* is absent.  The
            result is shared between threads, so it must not be mutated.
        """
        try:
            return self._derived[key]
        except KeyError:
            pass
        with self._lock:
            if key not in self._derived:
                self._derived[key] = build()
            return self._derived[key]

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"LogSnapshot(version={self.version}, num_images={self.num_images})"
        )


def _frozen(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
    """*matrix* with its three CSR buffers marked read-only (it is shared)."""
    for buffer in (matrix.data, matrix.indices, matrix.indptr):
        buffer.setflags(write=False)
    return matrix


class LogDatabase:
    """Thin façade: delegates storage to a :class:`LogStore`, maintains ``R``.

    Parameters
    ----------
    num_images:
        Corpus size; required when no *store* is given (a fresh
        :class:`InMemoryLogStore` is created), otherwise validated against
        the store's.
    store:
        The backing :class:`LogStore`; defaults to a process-local
        in-memory store, the exact behaviour of the pre-v2 ``LogDatabase``.

    Notes
    -----
    **Incremental matrix maintenance.**  Appends never invalidate the
    cached matrix; :meth:`relevance_matrix` grows the cache by exactly the
    sessions the store committed since the cache was built — O(new
    judgements + one CSR concatenation), not O(whole log) — and the result
    is bit-identical to a from-scratch
    :meth:`RelevanceMatrix.from_sessions` build (tested).  This
    also absorbs sessions shipped by *other processes* through a shared
    file store.

    **Thread safety.**  Appends delegate to the store (atomic batches,
    race-free ids); the matrix cache is advanced under an internal lock;
    returned matrices and :class:`LogSnapshot` objects are immutable and
    safe to use lock-free.  Copy/pickle capture a consistent snapshot of
    the store (locks are recreated, caches dropped).
    """

    def __init__(
        self, num_images: Optional[int] = None, *, store: Optional[LogStore] = None
    ) -> None:
        if store is None:
            if num_images is None:
                raise LogDatabaseError(
                    "LogDatabase needs num_images (or a pre-built store)"
                )
            store = InMemoryLogStore(num_images)
        elif num_images is not None and store.num_images != int(num_images):
            raise LogDatabaseError(
                f"store covers {store.num_images} images, got num_images={num_images}"
            )
        self._store = store
        self._matrix_cache: Optional[RelevanceMatrix] = None
        # The one snapshot of the cached matrix (see snapshot()).
        self._snapshot_cache: Optional[LogSnapshot] = None
        # Guards cache advancement only; storage locking lives in the store.
        self._lock = threading.RLock()

    # ----------------------------------------------------------- copy/pickle
    def __getstate__(self) -> Dict[str, object]:
        """Copy/pickle support: a consistent store snapshot, minus the lock.

        The store serialises itself consistently (its own lock); the matrix
        and snapshot caches are dropped (lazily regrown), so a copy taken
        mid-append-burst can never pair a stale cache with a longer log.
        """
        state = self.__dict__.copy()
        state["_matrix_cache"] = None
        state["_snapshot_cache"] = None
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        """Restore a pickled/copied log with a fresh lock of its own."""
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ info
    def __len__(self) -> int:
        return len(self._store)

    @property
    def store(self) -> LogStore:
        """The backing :class:`LogStore`."""
        return self._store

    @property
    def num_images(self) -> int:
        """Number of images the log refers to."""
        return self._store.num_images

    @property
    def num_sessions(self) -> int:
        """Number of sessions committed so far (store-wide)."""
        return len(self._store)

    @property
    def is_empty(self) -> bool:
        """Whether the log contains no sessions yet (cold start)."""
        return len(self._store) == 0

    @property
    def sessions(self) -> Sequence[LogSession]:
        """A snapshot of the committed sessions, in id order."""
        return self._store.snapshot()

    def session(self, session_id: int) -> LogSession:
        """Return the session with the given id (its insertion index).

        A point lookup: only the storage overlapping ``[id, id + 1)`` is
        read (one segment on the file backend, never the whole log).
        """
        session_id = int(session_id)
        if session_id < 0:
            raise LogDatabaseError(
                f"session_id must be in [0, {len(self._store)}), got {session_id}"
            )
        found = self._store.scan(start=session_id, stop=session_id + 1)
        if not found or found[0].session_id != session_id:
            raise LogDatabaseError(
                f"session_id must be in [0, {len(self._store)}), got {session_id}"
            )
        return found[0]

    # --------------------------------------------------------------- recording
    def record_session(self, session: LogSession) -> LogSession:
        """Append *session* to the log; returns the stored (id-tagged) record.

        Id assignment and the append are one atomic step inside the store;
        the matrix cache is **not** invalidated — the next matrix read
        extends it by this session.
        """
        hub = get_hub()
        if not hub.enabled:
            return self._store.append(session)
        with hub.timer("logdb.append_seconds"):
            stored = self._store.append(session)
        hub.count("logdb.sessions_appended")
        return stored

    def record_judgements(
        self,
        judgements: Dict[int, int],
        *,
        query_index: Optional[int] = None,
    ) -> LogSession:
        """Convenience wrapper building and recording a session from a dict."""
        return self.record_session(
            LogSession(judgements=judgements, query_index=query_index)
        )

    def extend(self, sessions: Iterable[LogSession]) -> List[LogSession]:
        """Record every session in *sessions* as one atomic append batch.

        The batch lands entirely or not at all (the store validates up
        front), so a reader observes the log either before a wave's
        append or after it, never half-applied.
        """
        hub = get_hub()
        if not hub.enabled:
            return self._store.extend(sessions)
        with hub.timer("logdb.append_seconds"):
            stored = self._store.extend(sessions)
        hub.count("logdb.sessions_appended", len(stored))
        return stored

    def extend_once(
        self, sessions: Iterable[LogSession], token: str
    ) -> List[LogSession]:
        """Record *sessions* at most once per *token* (idempotent batch).

        Forwards to :meth:`LogStore.extend_once` — the cluster's durable
        close protocol flushes a closing session's rounds through here, so
        a close replayed after a worker death dedups instead of
        double-committing.  Returns ``[]`` when the token already landed.

        Raises
        ------
        LogDatabaseError
            If the backing store does not support idempotent appends, for
            an empty batch/token, or on validation failure.
        """
        hub = get_hub()
        if not hub.enabled:
            return self._store.extend_once(sessions, token)
        with hub.timer("logdb.append_seconds"):
            stored = self._store.extend_once(sessions, token)
        if stored:
            hub.count("logdb.sessions_appended", len(stored))
        return stored

    # --------------------------------------------------------------- matrices
    def relevance_matrix(self) -> RelevanceMatrix:
        """The relevance matrix over all committed sessions (incremental).

        Grows the cached matrix by the sessions appended since it was
        built.  Should the store ever *shrink* (only possible when a caller
        replaces the backing files out-of-band), the cache falls back to a
        full rebuild.
        """
        hub = get_hub()
        with self._lock:
            cache = self._matrix_cache
            count = len(self._store)
            if cache is None or cache.num_sessions > count:
                with hub.timer("logdb.matrix_rebuild_seconds"):
                    cache = RelevanceMatrix.from_sessions(
                        self._store.scan(), num_images=self.num_images
                    )
                hub.count("logdb.matrix_rebuilds")
            elif cache.num_sessions < count:
                with hub.timer("logdb.matrix_extend_seconds"):
                    cache = cache.append_sessions(
                        self._store.scan(start=cache.num_sessions)
                    )
                hub.count("logdb.matrix_extensions")
                hub.count("logdb.matrix_sessions_absorbed", count - self._matrix_cache.num_sessions)
            self._matrix_cache = cache
            return cache

    def snapshot(self) -> LogSnapshot:
        """The immutable, versioned :class:`LogSnapshot` of the current log.

        The object every log *reader* should hold for the duration of a
        round: its length and contents never change, no matter how many
        sessions other threads or processes append meanwhile.  While the
        log version is unchanged every call returns the **same** object, so
        the sparse views and memoised values hanging off it are built once
        per version, not once per round; the first call after an append
        returns a new one (holders of the old one keep a frozen view).
        """
        hub = get_hub()
        if not hub.enabled:
            return self._shared_snapshot()
        with hub.span("logdb.snapshot") as span:
            snapshot = self._shared_snapshot()
            span.set(version=snapshot.version)
        return snapshot

    def _shared_snapshot(self) -> LogSnapshot:
        """The cached snapshot, replaced whenever the matrix cache advanced."""
        with self._lock:
            matrix = self.relevance_matrix()
            snapshot = self._snapshot_cache
            if snapshot is None or snapshot.matrix is not matrix:
                snapshot = self._snapshot_cache = LogSnapshot(matrix)
            return snapshot

    def log_vectors(self, image_indices: Sequence[int]) -> np.ndarray:
        """Dense user-log vectors of *image_indices* (one row per image).

        With an empty log the vectors have zero columns; callers that need a
        non-degenerate representation should check :attr:`is_empty` first.
        Callers making several reads per round should take one
        :meth:`snapshot` instead and read through it.
        """
        return self.relevance_matrix().log_vectors(image_indices)

    # ------------------------------------------------------------- statistics
    def judged_image_indices(self) -> np.ndarray:
        """Indices of images that received at least one judgement."""
        matrix = self.relevance_matrix().tocsr()
        judged = np.asarray((matrix != 0).sum(axis=0)).ravel() > 0
        return np.flatnonzero(judged)

    def coverage(self) -> float:
        """Fraction of database images with at least one judgement."""
        return self.judged_image_indices().size / self.num_images

    def statistics(self) -> Dict[str, float]:
        """Summary statistics of the log (sessions, judgements, coverage)."""
        matrix = self.relevance_matrix()
        return {
            "num_sessions": float(matrix.num_sessions),
            "num_judgements": float(matrix.nnz),
            "num_positive": float(matrix.num_positive),
            "num_negative": float(matrix.num_negative),
            "coverage": float(self.coverage()),
            "density": float(matrix.density),
        }
