"""Session persistence: the :class:`SessionStore` protocol and its backends.

A store maps session ids to :class:`~repro.service.state.SessionState`
objects and owns TTL bookkeeping.  Two backends ship:

* :class:`InMemorySessionStore` — a dict; state dies with the process.
* :class:`FileSessionStore` — one ``<id>.json`` document plus one
  ``<id>.npz`` array bundle per session, so sessions survive process
  restarts and a fresh service can resume them bit-identically.

The service calls :meth:`SessionStore.evict_expired` with its own clock on
every API entry; stores never read wall-clock time themselves, which keeps
eviction deterministic under test.

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
round with a striped lock and passes the same lock map into
:meth:`evict_expired`, so TTL eviction *try-locks* each candidate and skips
any session that is mid-round instead of racing it.
"""

from __future__ import annotations

import abc
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.exceptions import SessionError, ValidationError
from repro.obs import get_hub
from repro.service.state import SessionState
from repro.utils.concurrency import StripedLockMap
from repro.utils.faults import trip as _fault_trip
from repro.utils.io import load_array_bundle, load_json, save_array_bundle, save_json

__all__ = ["SessionStore", "InMemorySessionStore", "FileSessionStore"]

PathLike = Union[str, Path]

#: Most sessions a :class:`FileSessionStore` keeps in its read cache (LRU).
_CACHE_SIZE = 1024


class SessionStore(abc.ABC):
    """Keyed storage of session states with optional TTL eviction.

    Parameters
    ----------
    ttl:
        Seconds of idleness (measured from ``last_active`` against the clock
        the service passes in) after which a session is evicted; ``None``
        disables eviction.  The service calls :meth:`evict_expired` on
        every API entry, and each call sweeps every stored session.
    """

    def __init__(self, *, ttl: Optional[float] = None) -> None:
        # ``not > 0`` also rejects NaN, which would expire every session.
        if ttl is not None and not ttl > 0:
            raise ValidationError(f"ttl must be positive, got {ttl}")
        self.ttl = None if ttl is None else float(ttl)

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
            If the id is unknown (or was evicted).
        """

    @abc.abstractmethod
    def delete(self, session_id: str) -> None:
        """Remove *session_id* if present (missing ids are a no-op)."""

    @abc.abstractmethod
    def session_ids(self) -> List[str]:
        """A sorted snapshot of all stored session ids."""

    @abc.abstractmethod
    def last_active_of(self, session_id: str) -> float:
        """``last_active`` of one session without materialising arrays.

        Raises
        ------
        SessionError
            If the id is unknown.
        """

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
    def check_storable(self, state: SessionState) -> None:
        """Raise if :meth:`put` would reject *state* (cheap pre-validation).

        The service calls this for every session of an open wave *before*
        serving any of them, so a state this backend cannot persist (e.g.
        an instance-backed session against the file store) fails the wave
        up front instead of after siblings were already stored.  The base
        accepts everything (the in-memory store stores anything).
        """

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

    def evict_expired(
        self, now: float, *, locks: Optional[StripedLockMap] = None
    ) -> List[str]:
        """Drop every session idle longer than :attr:`ttl`; returns the ids.

        Parameters
        ----------
        now:
            The caller's clock reading (stores never read wall-clock time).
        locks:
            Optional per-session lock map (the service passes its own).
            When given, each candidate is only inspected and deleted under
            a **non-blocking** try-lock of its stripe: a session currently
            inside a feedback round holds its stripe, so eviction skips it
            — it can never yank state out from under a live round — and
            retries naturally on a later tick.

        Returns
        -------
        list of str
            Ids actually evicted (expired sessions skipped as busy are not
            included).
        """
        if self.ttl is None:
            return []
        evicted: List[str] = []
        for session_id in self.session_ids():
            if locks is None:
                if self._evict_one(session_id, now):
                    evicted.append(session_id)
                continue
            with locks.try_lock(session_id) as held:
                if held and self._evict_one(session_id, now):
                    evicted.append(session_id)
        return evicted

    def _evict_one(self, session_id: str, now: float) -> bool:
        """Delete *session_id* iff it is expired; False when missing/fresh."""
        try:
            last_active = self.last_active_of(session_id)
        except SessionError:
            return False  # deleted concurrently — nothing to do
        if now - last_active <= self.ttl:
            return False
        self.delete(session_id)
        return True

    @staticmethod
    def _missing(session_id: str) -> SessionError:
        return SessionError(f"unknown or expired session '{session_id}'")


class InMemorySessionStore(SessionStore):
    """Dict-backed store: fastest, lives and dies with the process.

    A single mutex guards the dict, so puts, deletes and id snapshots from
    concurrent threads are safe.  Note the store hands out **live**
    :class:`SessionState` objects — mutating one concurrently from two
    threads is exactly the race the service's per-session locks exist to
    prevent.
    """

    def __init__(self, *, ttl: Optional[float] = None) -> None:
        super().__init__(ttl=ttl)
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

    def last_active_of(self, session_id: str) -> float:
        """``last_active`` of one stored session."""
        return self.get(session_id).last_active


class FileSessionStore(SessionStore):
    """On-disk store: one JSON document + one npz bundle per session.

    Arrays round-trip losslessly (float64 in, float64 out), so a session
    reloaded by a fresh service continues bit-identically — the property the
    persistence tests assert.  Instance-backed sessions (strategy objects
    instead of registry names) cannot be serialised and are rejected by
    :meth:`SessionState.to_payload`.

    Crash safety
    ------------
    :meth:`put` never leaves torn files behind.  Both files are written to
    same-directory temporaries and moved into place with :func:`os.replace`
    (each rename is atomic), and they land **arrays first, document last**:
    the JSON document is the commit record (:meth:`get` and
    :meth:`session_ids` key off it), so a crash mid-save can never leave a
    truncated JSON next to a stale npz — every file on disk is complete.
    The one remaining crash window is between the two renames, which leaves
    the *previous* committed document next to the fresher array bundle;
    :meth:`SessionState.from_payload` detects the disagreeing round stamps,
    discards the skewed warm-start scratch, and resumes correctly from the
    committed round with a cold solver seed.

    Read caching
    ------------
    Re-parsing the JSON document and inflating the npz bundle on *every*
    :meth:`get` put ~1–2 ms of pure deserialisation on each feedback
    round's hot path (a many-client cluster load surfaced this).  The
    store therefore keeps a bounded per-process read cache, validated by
    ``stat`` of the JSON commit record: every :func:`os.replace` commit
    produces a fresh ``(inode, mtime_ns, size)``, so a hit is returned
    only while the on-disk document is byte-identical to the one the
    cached state was built from.  Writers in *other* processes (cluster
    workers sharing the directory, a session re-routed off a dead worker)
    invalidate the entry automatically through that stat key — the cache
    never serves a state another process has since overwritten.  Writes
    are unchanged (write-through, atomic, arrays-first).  The cache holds
    up to ``_CACHE_SIZE`` sessions, least recently used out first.

    Parameters
    ----------
    directory:
        Directory holding the per-session files (created if missing).
    ttl:
        As for :class:`SessionStore`; each sweep here is a glob plus one
        JSON load per stored session.
    """

    def __init__(
        self, directory: PathLike, *, ttl: Optional[float] = None
    ) -> None:
        super().__init__(ttl=ttl)
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
    def check_storable(self, state: SessionState) -> None:
        """Reject up front what :meth:`put` would reject (see base class).

        Raises
        ------
        ValidationError
            If the state is instance-backed (not serialisable) or its id is
            not filesystem-safe.
        """
        if state.instance is not None:
            raise ValidationError(
                "instance-backed sessions cannot be serialised; open the "
                "session with a registry-named algorithm instead"
            )
        self._safe(state.session_id)

    def put(self, state: SessionState) -> None:
        """Persist *state* as its JSON + npz pair, atomically (see above).

        Raises
        ------
        ValidationError
            If the state is instance-backed (not serialisable) or its id is
            not filesystem-safe.
        """
        _fault_trip("store.before_put", session_id=state.session_id)
        document, arrays = state.to_payload()
        # Arrays first, document last: the document commits the write.
        save_array_bundle(arrays, self._npz_path(state.session_id))
        json_path = self._json_path(state.session_id)
        save_json(document, json_path)
        self._cache_store(state.session_id, json_path, state)

    def get(self, session_id: str) -> SessionState:
        """Load and deserialise one session (raises :class:`SessionError`).

        Served from the stat-validated read cache when the on-disk commit
        record is unchanged since this process last read or wrote it (see
        the class docstring); re-parsed from disk otherwise.
        """
        json_path = self._json_path(session_id)
        cached = self._cache_load(session_id, json_path)
        if cached is not None:
            return cached
        if not json_path.exists():
            raise self._missing(session_id)
        document = load_json(json_path)
        npz_path = self._npz_path(session_id)
        arrays = load_array_bundle(npz_path) if npz_path.exists() else {}
        state = SessionState.from_payload(document, arrays)
        self._cache_store(session_id, json_path, state)
        return state

    def delete(self, session_id: str) -> None:
        """Remove both files if present (missing ids are a no-op)."""
        _fault_trip("store.before_delete", session_id=session_id)
        with self._cache_mutex:
            self._cache.pop(session_id, None)
        self._json_path(session_id).unlink(missing_ok=True)
        self._npz_path(session_id).unlink(missing_ok=True)

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

    def last_active_of(self, session_id: str) -> float:
        """``last_active`` from the cache or the JSON document (no array load)."""
        json_path = self._json_path(session_id)
        cached = self._cache_load(session_id, json_path)
        if cached is not None:
            return cached.last_active
        if not json_path.exists():
            raise self._missing(session_id)
        return float(load_json(json_path).get("last_active", 0.0))

    def evict_expired(
        self, now: float, *, locks: Optional[StripedLockMap] = None
    ) -> List[str]:
        """TTL eviction plus a sweep of crash-orphaned array bundles.

        In addition to the base eviction of expired sessions, every
        ``.npz`` file without a committed JSON document — the residue of a
        crash between the array write and the JSON commit record (or an
        abandoned atomic-save temporary) — is deleted once it is older
        than the TTL.  The age guard compares the file's mtime against
        **wall-clock** time (the same basis mtimes are recorded in — the
        injectable service clock only governs ``last_active`` bookkeeping),
        which keeps the sweep from racing a *live* ``put`` that is between
        its two renames right now.
        """
        evicted = super().evict_expired(now, locks=locks)
        if self.ttl is not None:
            self._sweep_orphans()
        return evicted

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
        return self._intents_dir / f"{self._safe(session_id)}.json"

    def _publish_intents(self) -> None:
        hub = get_hub()
        if hub.enabled:
            hub.set_gauge("cluster.close_intents", len(self.close_intent_ids()))

    def _sweep_orphans(self) -> None:
        """Delete stale npz bundles whose commit record never landed."""
        wall_now = time.time()
        for bundle in self.directory.glob("*.npz"):
            if bundle.with_suffix(".json").exists():
                continue  # committed session — not ours to touch
            try:
                age = wall_now - bundle.stat().st_mtime
            except OSError:
                continue  # deleted concurrently
            if age > self.ttl:
                bundle.unlink(missing_ok=True)

    # ------------------------------------------------------------- read cache
    @staticmethod
    def _stat_key(json_path: Path) -> Optional[Tuple[int, int, int]]:
        """Identity of the committed document, or ``None`` when missing.

        Every atomic save commits via :func:`os.replace` of a fresh
        temporary, so any writer — this process or another — changes the
        inode; mtime and size guard the remaining edge cases.
        """
        try:
            stat = json_path.stat()
        except OSError:
            return None
        return (stat.st_ino, stat.st_mtime_ns, stat.st_size)

    def _cache_load(
        self, session_id: str, json_path: Path
    ) -> Optional[SessionState]:
        key = self._stat_key(json_path)
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
        key = self._stat_key(json_path)
        if key is None:
            return  # deleted between the write and the stat — don't cache
        with self._cache_mutex:
            self._cache[session_id] = (key, state)
            self._cache.move_to_end(session_id)
            while len(self._cache) > _CACHE_SIZE:
                self._cache.popitem(last=False)

    # ------------------------------------------------------------- internals
    def _json_path(self, session_id: str) -> Path:
        return self.directory / f"{self._safe(session_id)}.json"

    def _npz_path(self, session_id: str) -> Path:
        return self.directory / f"{self._safe(session_id)}.npz"

    @staticmethod
    def _safe(session_id: str) -> str:
        if not session_id or not all(
            ch.isalnum() or ch in "._-" for ch in session_id
        ):
            raise ValidationError(
                f"session_id must match [A-Za-z0-9._-]+ , got {session_id!r}"
            )
        return session_id
