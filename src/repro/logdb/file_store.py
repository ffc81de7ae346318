"""The on-disk :class:`FileLogStore`: crash-safe, multi-process log shipping.

An append-only segment store.  Layout of the store directory::

    manifest.json            the commit record (atomic, see below)
    store.lock               the cross-process append lock
    segments/
        seg-00000000-...json one immutable JSON segment per committed batch

**Append protocol** (the ROADMAP "cross-process log shipping" item): every
append/extend runs under an exclusive :func:`repro.utils.io.file_lock` on
``store.lock`` —

1. read ``manifest.json`` (the session count there mints the batch's ids);
2. write the batch as a brand-new segment file via
   write-temp-then-:func:`os.replace`;
3. rewrite ``manifest.json`` (again atomically) naming the new segment.

Step 3 is the *commit*: a reader keys everything off the manifest, so any
number of OS processes can ship logs into one directory and no record is
ever lost, duplicated, or observed half-written.

**Crash safety.**  The kernel releases the file lock when a writer dies, so
a crash can never wedge the store, and each crash window is benign:

* crash mid-step-2 — only a ``.tmp-…`` file exists; atomic savers clean up
  on error and readers never glob temporaries;
* crash between 2 and 3 — the segment file exists but no manifest names it
  (an *orphan*).  Reads cleanly ignore it; the next committed batch reuses
  the same id range and therefore the same segment name, atomically
  replacing the orphan (recovery by overwrite); :meth:`compact` deletes
  any that remain.

Segments named by a committed manifest are immutable; :meth:`compact`
(under the lock) merges them into one segment of a new *generation* and
deletes every file the new manifest no longer references.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.exceptions import LogDatabaseError
from repro.logdb.session import LogSession
from repro.logdb.store import (
    LogStore,
    _check_num_images,
    _session_document,
    _session_from_document,
)
from repro.obs import get_hub
from repro.utils.io import file_lock, load_json, save_json

__all__ = ["FileLogStore"]

PathLike = Union[str, Path]

#: Version tag written into every manifest.
_MANIFEST_VERSION = 1


class FileLogStore(LogStore):
    """Append-only on-disk segment store shared safely by many processes.

    Parameters
    ----------
    directory:
        The store directory (created if missing).  Opening an existing
        store reads ``num_images`` from its manifest.
    num_images:
        Corpus size; required when creating a new store, validated against
        the manifest when opening an existing one (``None`` = take the
        manifest's value).

    Raises
    ------
    LogDatabaseError
        When creating without ``num_images``, opening with a mismatching
        ``num_images``, or opening a directory whose manifest is from an
        unsupported version.

    Notes
    -----
    Thread-safe *and* process-safe: every append runs under the store's
    cross-process file lock, and reads of the sessions are lock-free (they
    key off the atomically-replaced manifest).  Handles are never kept
    open, and a copy or pickle drops the matrix caches, so the object is
    picklable and a copy is another handle on the same directory.
    """

    kind = "file"

    def __init__(self, directory: PathLike, *, num_images: Optional[int] = None) -> None:
        if num_images is not None:
            # Validated before anything touches disk: a refused create
            # must not leave a manifest behind.
            num_images = _check_num_images(num_images)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._segments_dir = self.directory / "segments"
        self._segments_dir.mkdir(exist_ok=True)
        self._manifest_path = self.directory / "manifest.json"
        self._lock_path = self.directory / "store.lock"
        if not self._manifest_path.exists():
            # Creation races with another process are settled under the
            # lock: whoever arrives second sees the manifest and validates.
            with file_lock(self._lock_path):
                if not self._manifest_path.exists():
                    if num_images is None:
                        raise LogDatabaseError(
                            "creating a FileLogStore requires num_images"
                        )
                    save_json(
                        {
                            "version": _MANIFEST_VERSION,
                            "num_images": num_images,
                            "num_sessions": 0,
                            "generation": 0,
                            "segments": [],
                        },
                        self._manifest_path,
                    )
        manifest = self._read_manifest()
        if num_images is not None and int(manifest["num_images"]) != num_images:
            raise LogDatabaseError(
                f"store at {self.directory} covers {manifest['num_images']} images, "
                f"asked to open it with num_images={num_images}"
            )
        super().__init__(int(manifest["num_images"]))

    # ------------------------------------------------------------------ info
    def __len__(self) -> int:
        """Number of sessions committed store-wide (reads the manifest)."""
        return int(self._read_manifest()["num_sessions"])

    # -------------------------------------------------------------- appending
    def _commit(
        self, batch: List[LogSession], token: Optional[str]
    ) -> List[LogSession]:
        """Ship *batch* as one committed segment (the module's append protocol).

        An empty batch commits nothing.  A token rides **inside the
        manifest** (``applied_tokens``), so "segment committed" and "token
        recorded" are one atomic ``os.replace`` of the manifest.  A crash
        before that commit leaves an orphan segment and no token; the
        replay re-mints the same ids and overwrites the orphan.
        """
        if not batch:
            return []
        hub = get_hub()
        lock_requested = time.perf_counter() if hub.enabled else 0.0
        with file_lock(self._lock_path):
            if hub.enabled:
                hub.observe(
                    "logdb.file.lock_wait_seconds", time.perf_counter() - lock_requested
                )
            manifest = self._read_manifest()
            if token is not None:
                tokens = manifest.setdefault("applied_tokens", [])
                if token in tokens:
                    hub.count("logdb.file.dedup_skips")
                    return []
                tokens.append(token)
            first_id = int(manifest["num_sessions"])
            stored = [
                session.with_session_id(first_id + offset)
                for offset, session in enumerate(batch)
            ]
            name = self._segment_name(int(manifest["generation"]), first_id)
            save_json(
                {
                    "first_id": first_id,
                    "count": len(stored),
                    "sessions": [_session_document(s) for s in stored],
                },
                self._segments_dir / name,
            )
            manifest["segments"].append(
                {"name": name, "first_id": first_id, "count": len(stored)}
            )
            manifest["num_sessions"] = first_id + len(stored)
            save_json(manifest, self._manifest_path)  # the commit point
            hub.count("logdb.file.segments_written")
            hub.set_gauge("logdb.file.segments", len(manifest["segments"]))
        return stored

    def has_token(self, token: str) -> bool:
        """Whether *token* already committed a batch (lock-free manifest read)."""
        return token in self._read_manifest().get("applied_tokens", [])

    # ---------------------------------------------------------------- reading
    def scan(self, start: int = 0, stop: Optional[int] = None) -> List[LogSession]:
        """The committed sessions with ids in ``[start, stop)``, in id order.

        Lock-free: keys off one atomically-replaced manifest, and only the
        segments overlapping the requested id range are read at all.  A
        compaction racing the read can delete a just-listed segment; the
        read then simply retries against the newer manifest.
        """
        if start < 0:
            raise LogDatabaseError(f"start must be >= 0, got {start}")
        for _ in range(8):
            manifest = self._read_manifest()
            try:
                return self._scan_manifest(manifest, start, stop)
            except FileNotFoundError:
                time.sleep(0.005)  # compaction in flight — retry on fresh manifest
        raise LogDatabaseError(
            f"could not obtain a consistent scan of {self.directory} "
            "(segments kept disappearing mid-read)"
        )

    # ------------------------------------------------------------ maintenance
    def compact(self) -> int:
        """Merge all committed segments into one; delete unreferenced files.

        Runs under the append lock.  Removes crash orphans (segments no
        manifest names) and superseded generations; returns the number of
        files deleted.  Ids, contents and scan order are unchanged — and so
        is the ``applied_tokens`` ledger: :meth:`extend_once` dedup keys
        survive compaction, so a close replayed arbitrarily late still
        cannot double-commit.
        """
        with file_lock(self._lock_path):
            manifest = self._read_manifest()
            generation = int(manifest["generation"]) + 1
            sessions = self._scan_manifest(manifest, 0)
            keep: List[Dict[str, object]] = []
            if sessions:
                name = self._segment_name(generation, 0)
                save_json(
                    {
                        "first_id": 0,
                        "count": len(sessions),
                        "sessions": [_session_document(s) for s in sessions],
                    },
                    self._segments_dir / name,
                )
                keep.append({"name": name, "first_id": 0, "count": len(sessions)})
            manifest["generation"] = generation
            manifest["segments"] = keep
            save_json(manifest, self._manifest_path)  # the commit point
            referenced = {str(entry["name"]) for entry in keep}
            removed = 0
            for path in self._segments_dir.glob("seg-*.json"):
                if path.name not in referenced:
                    path.unlink(missing_ok=True)
                    removed += 1
            hub = get_hub()
            hub.count("logdb.file.compactions")
            hub.set_gauge("logdb.file.segments", len(keep))
            return removed

    # ------------------------------------------------------------- internals
    def _read_manifest(self) -> Dict[str, object]:
        """Load and version-check the manifest."""
        manifest = load_json(self._manifest_path)
        version = int(manifest.get("version", -1))
        if version != _MANIFEST_VERSION:
            raise LogDatabaseError(
                f"unsupported log-store manifest version {version} "
                f"(expected {_MANIFEST_VERSION})"
            )
        return manifest

    def _scan_manifest(
        self, manifest: Dict[str, object], start: int, stop: Optional[int] = None
    ) -> List[LogSession]:
        """Read the manifest's segments overlapping ``[start, stop)``."""
        out: List[LogSession] = []
        for entry in manifest["segments"]:
            first = int(entry["first_id"])
            count = int(entry["count"])
            if first + count <= start or (stop is not None and first >= stop):
                continue  # segment entirely outside the requested range
            document = load_json(self._segments_dir / str(entry["name"]))
            for offset, record in enumerate(document["sessions"]):
                session_id = first + offset
                if session_id < start:
                    continue
                if stop is not None and session_id >= stop:
                    break
                out.append(
                    _session_from_document(record).with_session_id(session_id)
                )
        return out

    @staticmethod
    def _segment_name(generation: int, first_id: int) -> str:
        """Deterministic segment file name: generation + first session id.

        Determinism is what makes orphan *recovery by overwrite* work: a
        batch re-attempted after a crash-before-commit minted the same ids,
        so it lands on the same name and atomically replaces the orphan.
        """
        return f"seg-g{generation:04d}-{first_id:08d}.json"
