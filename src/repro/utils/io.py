"""Lightweight persistence helpers (text, JSON documents, numpy bundles, file locks).

Every saver is **atomic**: the payload is written to a same-directory
temporary file and moved into place with :func:`os.replace`, so a reader (or
a crash, or a parallel writer of a *different* file) can never observe a
truncated document — it sees either the previous complete file or the new
complete file.  Concurrent writers of the *same* path still need external
serialisation (the session stores provide it); atomicity here is
last-writer-wins, never torn bytes.

:func:`file_lock` supplies that external serialisation **across OS
processes**: an exclusive advisory lock on a dedicated lock file, used by
the on-disk log store so many worker processes can ship log segments into
one directory without losing or duplicating a record.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, TextIO, Union

import numpy as np

__all__ = [
    "atomic_text_file",
    "save_json",
    "load_json",
    "save_array_bundle",
    "load_array_bundle",
    "file_lock",
]

try:  # POSIX advisory locks: released by the kernel even on process death.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback below
    fcntl = None

PathLike = Union[str, Path]


def _temp_sibling(target: Path, suffix: str = "") -> Path:
    """A same-directory temp path unique to this process and thread.

    Same directory ⇒ same filesystem ⇒ :func:`os.replace` is an atomic
    rename.  ``suffix`` lets numpy's savez (which appends ``.npz`` to alien
    suffixes) write exactly where we expect.
    """
    tag = f".tmp-{os.getpid()}-{threading.get_ident()}"
    return target.with_name(target.name + tag + suffix)


class _NumpyJSONEncoder(json.JSONEncoder):
    """JSON encoder that understands numpy scalars and arrays."""

    def default(self, obj):  # noqa: D102 - inherited contract
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        return super().default(obj)


@contextmanager
def atomic_text_file(path: PathLike) -> Iterator[TextIO]:
    """Open *path* for writing text (UTF-8) so that it lands atomically.

    The ``with`` body writes to a same-directory temporary file, which is
    renamed over *path* with :func:`os.replace` when the body completes.  A
    failure anywhere (crash, killed process, serialisation error) leaves any
    previous file at *path* intact and no temp file behind.  Parent
    directories are created as needed.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    temp = _temp_sibling(target)
    try:
        with temp.open("w", encoding="utf-8") as handle:
            yield handle
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def save_json(document: Mapping[str, Any], path: PathLike) -> Path:
    """Serialise *document* to *path* as pretty-printed JSON, atomically.

    Written through :func:`atomic_text_file`: a failure mid-write (crash,
    killed process, serialisation error) leaves any previous file at *path*
    intact.

    Parameters
    ----------
    document:
        JSON-serialisable mapping (numpy scalars/arrays are converted).
    path:
        Destination file; parent directories are created as needed.

    Returns
    -------
    Path
        The path actually written.
    """
    with atomic_text_file(path) as handle:
        json.dump(document, handle, indent=2, sort_keys=True, cls=_NumpyJSONEncoder)
        handle.write("\n")
    return Path(path)


def load_json(path: PathLike) -> Dict[str, Any]:
    """Load a JSON document from *path*."""
    with Path(path).open("r", encoding="utf-8") as handle:
        return json.load(handle)


def save_array_bundle(arrays: Mapping[str, np.ndarray], path: PathLike) -> Path:
    """Save a named bundle of arrays to a compressed ``.npz`` file, atomically.

    Like :func:`save_json`, the bundle lands via write-temp-then-
    :func:`os.replace`, so a crash mid-save never leaves a truncated
    archive behind.

    Returns
    -------
    Path
        The path actually written: ``numpy`` appends ``.npz`` to any path
        not already carrying that suffix (it appends to — not replaces —
        an existing suffix, e.g. ``corel.index`` → ``corel.index.npz``).
    """
    target = Path(path)
    if target.suffix != ".npz":
        target = target.with_name(target.name + ".npz")
    target.parent.mkdir(parents=True, exist_ok=True)
    temp = _temp_sibling(target, suffix=".npz")
    try:
        np.savez_compressed(
            temp, **{key: np.asarray(value) for key, value in arrays.items()}
        )
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    return target


def load_array_bundle(path: PathLike) -> Dict[str, np.ndarray]:
    """Load a bundle previously written by :func:`save_array_bundle`."""
    with np.load(Path(path), allow_pickle=False) as data:
        return {key: np.array(data[key]) for key in data.files}


@contextmanager
def file_lock(path: PathLike, *, timeout: float = 30.0) -> Iterator[None]:
    """Hold an exclusive cross-process lock on *path* for the ``with`` body.

    The mutual-exclusion primitive of the on-disk log store's append
    protocol (:class:`repro.logdb.file_store.FileLogStore`): any number of
    OS processes may contend on the same lock file, and exactly one at a
    time runs its critical section.  On POSIX the lock is an
    :func:`fcntl.flock` on an open handle — the kernel releases it when the
    holder exits *or dies*, so a crashed writer can never wedge the store.
    Where ``fcntl`` is unavailable the lock degrades to an
    exclusive-create spin file with an age-based stale-lock breaker.

    Parameters
    ----------
    path:
        Lock-file path; created (empty) if missing, never deleted on the
        POSIX path.  Parent directories are created as needed.
    timeout:
        Seconds to wait for the lock before raising ``TimeoutError``
        (only enforceable on the fallback path; ``flock`` waits in the
        kernel and is expected to be held for milliseconds).

    Raises
    ------
    TimeoutError
        Fallback path only: the lock stayed busy longer than *timeout*.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    if fcntl is not None:
        with target.open("a+b") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        return
    # Fallback: O_CREAT|O_EXCL spin lock (best effort — POSIX hosts never
    # take this path).  A lock file more than 10 timeouts old is presumed
    # orphaned by a crashed holder and broken; the wide margin keeps the
    # breaker from sniping a merely-slow live holder, and the deadline is
    # honoured on every iteration so the wait can never spin forever.
    spin = target.with_name(target.name + ".spin")
    deadline = time.monotonic() + timeout
    while True:
        try:
            descriptor = os.open(spin, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(descriptor)
            break
        except FileExistsError:
            if time.monotonic() > deadline:
                raise TimeoutError(f"could not acquire file lock {target}")
            try:
                if time.time() - spin.stat().st_mtime > 10 * timeout:
                    spin.unlink(missing_ok=True)
                    continue
            except OSError:
                pass  # holder released (or stat raced) — retry the create
            time.sleep(0.002)
    try:
        yield
    finally:
        spin.unlink(missing_ok=True)
