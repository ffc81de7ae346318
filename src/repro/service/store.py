"""Session persistence: the :class:`SessionStore` protocol and its backends.

A store maps session ids to :class:`~repro.service.state.SessionState`
objects.  Two backends ship:

* :class:`InMemorySessionStore` — a dict; state dies with the process.
* :class:`FileSessionStore` — one ``<id>.json`` document per session
  (arrays embedded), so sessions survive process restarts and a fresh
  service can resume them bit-identically.

Sessions live until they are closed or discarded; nothing expires them.

Thread safety
-------------
Every store call is individually atomic: the in-memory backend guards its
dict with a mutex, and the file backend writes each file via
write-temp-then-:func:`os.replace` (a reader sees the old complete file or
the new complete file, never a truncated one).  What a bare store does
*not* provide is mutual exclusion between concurrent operations on the
**same** session — a get-modify-put round must not interleave with another
writer of that id.  That per-session discipline belongs to the caller: the
:class:`~repro.service.service.RetrievalService` brackets every session's
round with a striped lock.
"""

from __future__ import annotations

import abc
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.exceptions import SessionError, ValidationError
from repro.obs import get_hub
from repro.service.dtos import check_session_id
from repro.service.state import SessionState
from repro.utils.faults import trip as _fault_trip
from repro.utils.io import load_json, save_json, stat_key

__all__ = ["SessionStore", "InMemorySessionStore", "FileSessionStore"]

PathLike = Union[str, Path]

#: Most sessions a :class:`FileSessionStore` keeps in its read cache (LRU).
_CACHE_SIZE = 1024


class SessionStore(abc.ABC):
    """Keyed storage of session states."""

    # ------------------------------------------------------------------- api
    @abc.abstractmethod
    def put(self, state: SessionState) -> None:
        """Insert or overwrite *state* under its ``session_id``.

        Atomic per call; concurrent writers of the same id need external
        serialisation (last complete write wins either way).
        """

    @abc.abstractmethod
    def get(self, session_id: str) -> SessionState:
        """The state stored under *session_id*.

        Raises
        ------
        SessionError
            If the id is unknown.
        """

    @abc.abstractmethod
    def delete(self, session_id: str) -> None:
        """Remove *session_id* if present (missing ids are a no-op)."""

    @abc.abstractmethod
    def session_ids(self) -> List[str]:
        """A sorted snapshot of all stored session ids."""

    # ----------------------------------------------------------- close intents
    #: Whether this backend persists write-ahead close-intent records (the
    #: durable close protocol of ``RetrievalService.close_sessions``).  The
    #: service consults this flag and falls back to the legacy close order
    #: when the backend cannot make an intent durable.
    supports_close_intents: bool = False

    def write_close_intent(self, session_id: str, document: Dict) -> None:
        """Persist the write-ahead close-intent *document* for *session_id*.

        The intent is the close protocol's commit decision: once it is
        durable, a crash at any later step is rolled **forward** by
        :meth:`~repro.service.service.RetrievalService.recover_close_intents`
        (flush the log idempotently, delete the state, clear the intent)
        instead of losing the session's rounds.  Overwriting an existing
        intent for the same id is allowed (a re-sent close regenerates an
        identical document).

        Backends that cannot make the record durable must leave
        :attr:`supports_close_intents` ``False``; this default refuses.
        """
        raise ValidationError(
            f"{type(self).__name__} does not support close-intent records"
        )

    def read_close_intent(self, session_id: str) -> Optional[Dict]:
        """The stored intent document of *session_id*, or ``None``."""
        return None

    def clear_close_intent(self, session_id: str) -> None:
        """Remove the intent of *session_id* if present (missing = no-op)."""

    def close_intent_ids(self) -> List[str]:
        """Sorted session ids with a pending close intent (orphans included)."""
        return []

    # ---------------------------------------------------------------- shared
    def exists(self, session_id: str) -> bool:
        """Whether *session_id* is stored — O(1) in both shipped backends.

        The hot-path membership primitive (the service probes it per
        session of every open wave); the default falls back to a
        :meth:`session_ids` snapshot for custom backends.
        """
        return session_id in self.session_ids()

    def __contains__(self, session_id: str) -> bool:
        return self.exists(session_id)

    def __len__(self) -> int:
        return len(self.session_ids())

    @staticmethod
    def _missing(session_id: str) -> SessionError:
        return SessionError(f"unknown session '{session_id}'")


class InMemorySessionStore(SessionStore):
    """Dict-backed store: fastest, lives and dies with the process.

    A single mutex guards the dict, so puts, deletes and id snapshots from
    concurrent threads are safe.  Note the store hands out **live**
    :class:`SessionState` objects — mutating one concurrently from two
    threads is exactly the race the service's per-session locks exist to
    prevent.
    """

    def __init__(self) -> None:
        self._states: Dict[str, SessionState] = {}
        self._mutex = threading.Lock()

    def put(self, state: SessionState) -> None:
        """Insert or overwrite *state* under its ``session_id``."""
        with self._mutex:
            self._states[state.session_id] = state

    def get(self, session_id: str) -> SessionState:
        """The live state stored under *session_id* (raises :class:`SessionError`)."""
        with self._mutex:
            try:
                return self._states[session_id]
            except KeyError:
                raise self._missing(session_id) from None

    def delete(self, session_id: str) -> None:
        """Remove *session_id* if present (missing ids are a no-op)."""
        with self._mutex:
            self._states.pop(session_id, None)

    def exists(self, session_id: str) -> bool:
        """Dict membership — O(1)."""
        with self._mutex:
            return session_id in self._states

    def session_ids(self) -> List[str]:
        """A sorted snapshot of the stored ids (stable under concurrent puts)."""
        with self._mutex:
            return sorted(self._states)


class FileSessionStore(SessionStore):
    """On-disk store: one JSON commit record per session.

    Arrays ride inside the document losslessly (dtype, shape and raw
    bytes), so a session reloaded by a fresh service continues
    bit-identically — the property the persistence tests assert.

    Crash safety
    ------------
    :meth:`put` writes the whole document to a same-directory temporary
    and moves it into place with one :func:`os.replace`, an atomic rename:
    a crash at any point leaves either the previous complete document or
    the new one, never a torn file, and never a session whose parts come
    from two different rounds.

    Read caching
    ------------
    Re-parsing the document on *every* :meth:`get` would put its
    deserialisation on each feedback round's hot path.  The store
    therefore keeps a bounded per-process read cache, validated by
    :func:`~repro.utils.io.stat_key` of the document: every
    :func:`os.replace` commit produces a fresh ``(inode, mtime_ns, size)``,
    so a hit is returned only while the on-disk document is the one the
    cached state was built from.  Writers in *other* processes (cluster
    workers sharing the directory, a session re-routed off a dead worker)
    invalidate the entry automatically through that key — the cache never
    serves a state another process has since overwritten.  Writes stay
    write-through and atomic.  The cache holds up to ``_CACHE_SIZE``
    sessions, least recently used out first.

    Parameters
    ----------
    directory:
        Directory holding the per-session files (created if missing).
    """

    def __init__(self, directory: PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        # Close intents live in a subdirectory so ``session_ids()`` (a
        # non-recursive ``*.json`` glob) can never mistake one for a session.
        self._intents_dir = self.directory / "close-intents"
        self._intents_dir.mkdir(exist_ok=True)
        # session_id -> (stat key of the committed JSON, state).  LRU;
        # guarded by a mutex (puts/gets may come from many threads).
        self._cache: "OrderedDict[str, Tuple[Tuple[int, int, int], SessionState]]" = (
            OrderedDict()
        )
        self._cache_mutex = threading.Lock()

    # ------------------------------------------------------------------- api
    def put(self, state: SessionState) -> None:
        """Persist *state* as its one JSON document, atomically (see above).

        Raises
        ------
        ValidationError
            If the state's id is not filesystem-safe.
        """
        _fault_trip("store.before_put", session_id=state.session_id)
        json_path = self._json_path(state.session_id)
        save_json(state.to_payload(), json_path)
        self._cache_store(state.session_id, json_path, state)

    def get(self, session_id: str) -> SessionState:
        """Load and deserialise one session.

        Served from the stat-validated read cache when the on-disk commit
        record is unchanged since this process last read or wrote it (see
        the class docstring); re-parsed from disk otherwise.  Raises
        :class:`SessionError` when the id is unknown or its document cannot
        be read (a torn or foreign file).
        """
        json_path = self._json_path(session_id)
        cached = self._cache_load(session_id, json_path)
        if cached is not None:
            return cached
        if not json_path.exists():
            raise self._missing(session_id)
        try:
            document = load_json(json_path)
        except (OSError, ValueError) as exc:
            raise SessionError(
                f"session '{session_id}' has an unreadable file {json_path.name}: {exc}"
            ) from exc
        state = SessionState.from_payload(document)
        self._cache_store(session_id, json_path, state)
        return state

    def delete(self, session_id: str) -> None:
        """Remove the session's document if present (missing ids are a no-op)."""
        _fault_trip("store.before_delete", session_id=session_id)
        with self._cache_mutex:
            self._cache.pop(session_id, None)
        self._json_path(session_id).unlink(missing_ok=True)

    def exists(self, session_id: str) -> bool:
        """One ``Path.exists`` probe of the commit record — O(1)."""
        return self._json_path(session_id).exists()

    def session_ids(self) -> List[str]:
        """Sorted ids of every committed session (JSON documents on disk).

        In-flight temporaries are invisible by construction: they carry a
        ``.tmp-<pid>-<tid>`` tail after the ``.json`` suffix, so the glob
        never matches them.
        """
        return sorted(path.stem for path in self.directory.glob("*.json"))

    # ----------------------------------------------------------- close intents
    supports_close_intents = True

    def write_close_intent(self, session_id: str, document: Dict) -> None:
        """Persist *document* atomically as the id's write-ahead close record.

        One ``os.replace``-committed JSON file under ``close-intents/``;
        overwriting a previous intent for the same id is fine (a replayed
        close writes the identical document).
        """
        save_json(document, self._intent_path(session_id))
        _fault_trip("store.after_intent_write", session_id=session_id)
        self._publish_intents()

    def read_close_intent(self, session_id: str) -> Optional[Dict]:
        """The stored intent document, or ``None`` when there is none."""
        path = self._intent_path(session_id)
        if not path.exists():
            return None
        try:
            return load_json(path)
        except (OSError, ValueError):
            return None  # racing clear, or unreadable residue

    def clear_close_intent(self, session_id: str) -> None:
        """Remove the id's intent file if present (idempotent)."""
        _fault_trip("store.before_intent_clear", session_id=session_id)
        self._intent_path(session_id).unlink(missing_ok=True)
        self._publish_intents()

    def close_intent_ids(self) -> List[str]:
        """Sorted ids of every pending close intent on disk."""
        return sorted(path.stem for path in self._intents_dir.glob("*.json"))

    def _intent_path(self, session_id: str) -> Path:
        return self._intents_dir / f"{check_session_id(session_id)}.json"

    def _publish_intents(self) -> None:
        hub = get_hub()
        if hub.enabled:
            hub.set_gauge("cluster.close_intents", len(self.close_intent_ids()))

    # ------------------------------------------------------------- read cache
    def _cache_load(
        self, session_id: str, json_path: Path
    ) -> Optional[SessionState]:
        key = stat_key(json_path)
        with self._cache_mutex:
            entry = self._cache.get(session_id)
            if entry is None:
                return None
            if key is None or entry[0] != key:
                # Overwritten by another process (or deleted): stale.
                del self._cache[session_id]
                return None
            self._cache.move_to_end(session_id)
            return entry[1]

    def _cache_store(
        self, session_id: str, json_path: Path, state: SessionState
    ) -> None:
        key = stat_key(json_path)
        if key is None:
            return  # deleted between the write and the stat — don't cache
        with self._cache_mutex:
            self._cache[session_id] = (key, state)
            self._cache.move_to_end(session_id)
            while len(self._cache) > _CACHE_SIZE:
                self._cache.popitem(last=False)

    # ------------------------------------------------------------- internals
    def _json_path(self, session_id: str) -> Path:
        return self.directory / f"{check_session_id(session_id)}.json"
