"""The :class:`LogStore`: the feedback log and its relevance matrix.

A log store is an append-only, id-ordered sequence of
:class:`~repro.logdb.session.LogSession` records, plus the derived
artifact every reader needs: the sparse relevance matrix ``R`` (sessions ×
images), kept fresh *incrementally*.  Appends never invalidate the cached
matrix; a read extends it by exactly the sessions committed since (one CSR
block + one ``vstack``, see
:meth:`~repro.logdb.relevance_matrix.RelevanceMatrix.append_sessions`),
and :meth:`LogStore.snapshot` hands out one immutable
:class:`~repro.logdb.relevance_matrix.LogSnapshot` per log version.
Everything that *writes* logs (service close-batches, ``per_round``
policies, the simulation campaign) and everything that *reads* them
(feedback strategies, the evaluation protocol) holds one store object.

Two backends ship:

* :class:`InMemoryLogStore` — a mutex-guarded list; fastest, dies with the
  process.
* :class:`~repro.logdb.file_store.FileLogStore` — a crash-safe append-only
  on-disk segment store whose file-lock append protocol lets multiple OS
  *processes* ship logs into one store.

The contract every backend honours:

* **ids are insertion order** — session ``i`` is the ``i``-th record ever
  appended, store-wide (across processes for shared backends);
* **appends are atomic batches** — one :meth:`LogStore.extend` call lands
  entirely or not at all, and two concurrent appenders can never mint the
  same id, lose a record, or duplicate one;
* **reads are consistent prefixes** — :meth:`LogStore.scan` observes some
  complete prefix of the append order, never a torn batch.
"""

from __future__ import annotations

import abc
import threading
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.exceptions import LogDatabaseError
from repro.logdb.relevance_matrix import LogSnapshot, RelevanceMatrix
from repro.logdb.session import LogSession, _integer
from repro.obs import get_hub
from repro.utils.io import load_json, save_json

__all__ = ["LogStore", "InMemoryLogStore"]

PathLike = Union[str, Path]

#: Version tag of the portable single-file export format.
_EXPORT_VERSION = 1


def _check_num_images(num_images: object) -> int:
    """*num_images* as an ``int >= 1``; floats are rejected, never truncated."""
    count = _integer(num_images, "num_images")
    if count < 1:
        raise LogDatabaseError(f"num_images must be >= 1, got {count}")
    return count


class LogStore(abc.ABC):
    """Append-only, id-ordered feedback log with an incremental ``R``.

    Parameters
    ----------
    num_images:
        Size of the image corpus the log refers to; every judgement is
        validated against it on append.

    Notes
    -----
    **Incremental matrix maintenance.**  :meth:`relevance_matrix` grows
    the cached matrix by exactly the sessions committed since it was built
    — O(new judgements + one CSR concatenation), not O(whole log) — and
    the result is bit-identical to a from-scratch
    :meth:`RelevanceMatrix.from_sessions` build (tested).  This also
    absorbs sessions shipped by *other processes* through a shared file
    store.

    **Thread safety.**  All methods are safe to call from concurrent
    threads; whether two *processes* may share one store is a backend
    property (the in-memory backend is process-local, the file backend is
    explicitly multi-process).  The matrix cache advances under its own
    lock, taken *before* the backend's append mutex or file lock, never
    inside it.  Copy/pickle drop the matrix and snapshot caches (lazily
    regrown), so a copy taken mid-append-burst never pairs a stale cache
    with a longer log.
    """

    #: Short name of the backend, recorded in :meth:`save` exports.
    kind: str = "log-store"

    def __init__(self, num_images: int) -> None:
        self._num_images = _check_num_images(num_images)
        self._matrix_cache: Optional[RelevanceMatrix] = None
        # The one snapshot of the cached matrix (see snapshot()).
        self._snapshot_cache: Optional[LogSnapshot] = None
        self._cache_lock = threading.RLock()

    # ----------------------------------------------------------- copy/pickle
    def __getstate__(self) -> Dict[str, object]:
        """Copy/pickle support: the store's state minus caches and lock."""
        state = self.__dict__.copy()
        state["_matrix_cache"] = None
        state["_snapshot_cache"] = None
        del state["_cache_lock"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        """Restore a pickled/copied store with a fresh cache lock."""
        self.__dict__.update(state)
        self._cache_lock = threading.RLock()

    # ------------------------------------------------------------------ info
    @property
    def num_images(self) -> int:
        """Number of images the log refers to."""
        return self._num_images

    @property
    def store(self) -> "LogStore":
        """This store (``bench/workloads.py`` reads ``log_database.store``)."""
        return self

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of sessions committed so far (store-wide)."""

    # -------------------------------------------------------------- appending
    def append(self, session: LogSession) -> LogSession:
        """Append one session; returns the stored (id-tagged) record.

        Raises
        ------
        LogDatabaseError
            If the session references an image outside the corpus.
        """
        return self.extend([session])[0]

    def extend(self, sessions: Iterable[LogSession]) -> List[LogSession]:
        """Append *sessions* as one atomic batch; returns the stored records.

        The whole batch is validated up front and lands under one mutual
        exclusion (a lock hold in memory, a file-lock hold on disk): a
        concurrent reader or appender observes the store either before the
        batch or after it, never in between.  The matrix cache is **not**
        invalidated — the next matrix read extends it by this batch.

        Raises
        ------
        LogDatabaseError
            If any session references an image outside the corpus (the
            store is left unchanged).
        """
        return self._append_batch(list(sessions), None)

    def extend_once(
        self, sessions: Iterable[LogSession], token: str
    ) -> List[LogSession]:
        """Append *sessions* atomically **at most once** per *token*.

        The durability primitive of the cluster's close protocol: a close
        replayed after a worker death re-sends the same records under the
        same deterministic token (the close protocol derives it from the
        session id, its creation stamp and its round count).  The first
        call appends and remembers the token; every later call returns
        ``[]`` without touching the log.  Checking the token and appending
        the batch are one atomic step (same mutual exclusion as
        :meth:`extend`), so two concurrent replays can never double-commit.

        Raises
        ------
        LogDatabaseError
            For an empty token, an empty batch (a token must commit
            something to dedup against), or validation failures.
        """
        batch = list(sessions)
        if not token or not isinstance(token, str):
            raise LogDatabaseError(
                f"extend_once needs a non-empty string token, got {token!r}"
            )
        if not batch:
            raise LogDatabaseError(
                "extend_once needs a non-empty batch (an empty commit would "
                "burn the token without persisting anything)"
            )
        return self._append_batch(batch, token)

    @abc.abstractmethod
    def has_token(self, token: str) -> bool:
        """Whether :meth:`extend_once` already committed under *token*."""

    def _append_batch(
        self, batch: List[LogSession], token: Optional[str]
    ) -> List[LogSession]:
        """Validate *batch*, commit it, and account for it on the hub."""
        for session in batch:
            self._validate(session)
        hub = get_hub()
        if not hub.enabled:
            return self._commit(batch, token)
        with hub.timer("logdb.append_seconds"):
            stored = self._commit(batch, token)
        hub.count("logdb.sessions_appended", len(stored))
        return stored

    @abc.abstractmethod
    def _commit(
        self, batch: List[LogSession], token: Optional[str]
    ) -> List[LogSession]:
        """Mint ids for the validated *batch* and land it atomically.

        With a *token*, checking it, landing the batch and recording it
        are one atomic step, and a token already recorded commits nothing
        and returns ``[]``.
        """

    # ---------------------------------------------------------------- reading
    @abc.abstractmethod
    def scan(self, start: int = 0, stop: Optional[int] = None) -> List[LogSession]:
        """The committed sessions with ids in ``[start, stop)``, in id order.

        ``scan(0)`` is the full log; incremental matrix maintenance scans
        only the suffix appended since the cached matrix.  Backends only
        touch the storage overlapping the requested range.

        Raises
        ------
        LogDatabaseError
            If *start* is negative.
        """

    def relevance_matrix(self) -> RelevanceMatrix:
        """The relevance matrix over all committed sessions (incremental).

        Grows the cached matrix by the sessions appended since it was
        built.  Should the store ever *shrink* (only possible when a caller
        replaces the backing files out-of-band), the cache falls back to a
        full rebuild.
        """
        hub = get_hub()
        with self._cache_lock:
            cache = self._matrix_cache
            count = len(self)
            if cache is None or cache.num_sessions > count:
                with hub.timer("logdb.matrix_rebuild_seconds"):
                    cache = RelevanceMatrix.from_sessions(
                        self.scan(), num_images=self._num_images
                    )
                hub.count("logdb.matrix_rebuilds")
            elif cache.num_sessions < count:
                with hub.timer("logdb.matrix_extend_seconds"):
                    cache = cache.append_sessions(self.scan(start=cache.num_sessions))
                hub.count("logdb.matrix_extensions")
                hub.count(
                    "logdb.matrix_sessions_absorbed",
                    count - self._matrix_cache.num_sessions,
                )
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
        with self._cache_lock:
            matrix = self.relevance_matrix()
            snapshot = self._snapshot_cache
            if snapshot is None or snapshot.matrix is not matrix:
                snapshot = self._snapshot_cache = LogSnapshot(matrix)
            return snapshot

    # ------------------------------------------------------------ maintenance
    def compact(self) -> int:
        """Reorganise storage for reading; returns the number of files removed.

        A no-op for backends without fragmentation (the in-memory store);
        the segment store merges its committed segments into one and deletes
        orphans left behind by crashed writers.
        """
        return 0

    # ------------------------------------------------------------ persistence
    def save(self, path: PathLike) -> Path:
        """Export the full log as one portable JSON document, atomically.

        The export is backend-independent: any store can :meth:`load` it.

        Returns
        -------
        Path
            The path actually written.
        """
        document = {
            "version": _EXPORT_VERSION,
            "kind": self.kind,
            "num_images": self.num_images,
            "sessions": [_session_document(s) for s in self.scan()],
        }
        return save_json(document, path)

    @classmethod
    def load(cls, path: PathLike, *, store: Optional["LogStore"] = None) -> "LogStore":
        """Rebuild a store from a :meth:`save` export.

        Parameters
        ----------
        path:
            The exported document.
        store:
            Optional **empty** destination backend; when omitted, a fresh
            :class:`InMemoryLogStore` is created — but only when called as
            ``LogStore.load`` / ``InMemoryLogStore.load``.  A backend that
            needs constructor arguments (``FileLogStore.load(path)``)
            requires an explicit ``store=`` so callers never silently get
            a different backend than the one they named.  Sessions are
            replayed in id order, so the rebuilt store assigns identical
            ids.

        Raises
        ------
        LogDatabaseError
            For an unsupported export version, a corpus-size mismatch with
            *store*, a non-empty destination, or a missing ``store=`` on a
            backend that cannot be default-constructed.
        """
        document = load_json(path)
        version = int(document.get("version", -1))
        if version != _EXPORT_VERSION:
            raise LogDatabaseError(
                f"unsupported log export version {version} (expected {_EXPORT_VERSION})"
            )
        num_images = int(document["num_images"])
        if store is None:
            if cls not in (LogStore, InMemoryLogStore):
                raise LogDatabaseError(
                    f"{cls.__name__}.load needs an explicit destination: pass "
                    f"store={cls.__name__}(...) (an empty one)"
                )
            store = InMemoryLogStore(num_images)
        elif store.num_images != num_images:
            raise LogDatabaseError(
                f"export covers {num_images} images but the destination store "
                f"covers {store.num_images}"
            )
        if len(store) != 0:
            raise LogDatabaseError("LogStore.load requires an empty destination store")
        store.extend(
            _session_from_document(entry) for entry in document["sessions"]
        )
        return store

    # ------------------------------------------------------------- validation
    def _validate(self, session: LogSession) -> None:
        """Reject sessions referencing images outside the corpus."""
        indices, _ = session.as_arrays()
        if indices.size and indices.max() >= self._num_images:
            raise LogDatabaseError(
                f"session references image {indices.max()} but the database "
                f"only has {self._num_images} images"
            )


class InMemoryLogStore(LogStore):
    """List-backed store: fastest, lives and dies with the process.

    One mutex guards the list, so appends from concurrent threads are
    atomic batches with race-free id assignment, and scans return
    consistent snapshots.  Copy/pickle take the same mutex, so a copy made
    while another thread appends is a consistent prefix of the log.
    """

    kind = "memory"

    def __init__(self, num_images: int) -> None:
        super().__init__(num_images)
        self._sessions: List[LogSession] = []
        self._tokens: set = set()
        self._mutex = threading.Lock()

    def __len__(self) -> int:
        """Number of sessions appended so far."""
        return len(self._sessions)

    def _commit(
        self, batch: List[LogSession], token: Optional[str]
    ) -> List[LogSession]:
        with self._mutex:
            if token in self._tokens:
                return []
            stored = [
                session.with_session_id(len(self._sessions) + offset)
                for offset, session in enumerate(batch)
            ]
            self._sessions.extend(stored)
            if token is not None:
                self._tokens.add(token)
            return stored

    def has_token(self, token: str) -> bool:
        """Whether *token* already committed a batch in this store."""
        with self._mutex:
            return token in self._tokens

    def scan(self, start: int = 0, stop: Optional[int] = None) -> List[LogSession]:
        """The sessions with ids in ``[start, stop)`` (a consistent list copy)."""
        if start < 0:
            raise LogDatabaseError(f"start must be >= 0, got {start}")
        with self._mutex:
            return self._sessions[start:stop]

    # ----------------------------------------------------------- copy/pickle
    def __getstate__(self) -> Dict[str, object]:
        """Pickle/copy support: a consistent snapshot, minus the locks."""
        with self._mutex:
            state = super().__getstate__()
            state["_sessions"] = list(self._sessions)
            state["_tokens"] = set(self._tokens)
        del state["_mutex"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        """Restore a pickled/copied store with fresh locks of its own."""
        super().__setstate__(state)
        self._mutex = threading.Lock()


def _session_document(session: LogSession) -> Dict[str, object]:
    """One session as a JSON-safe document (order-preserving pair list)."""
    return {
        "judgements": [[int(k), int(v)] for k, v in session.judgements.items()],
        "query_index": (
            None if session.query_index is None else int(session.query_index)
        ),
    }


def _session_from_document(document: Dict[str, object]) -> LogSession:
    """Rebuild a session from :func:`_session_document` output."""
    return LogSession(
        judgements={int(k): int(v) for k, v in document["judgements"]},
        query_index=(
            None
            if document.get("query_index") is None
            else int(document["query_index"])
        ),
    )
