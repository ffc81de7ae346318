"""Thread budget of the BLAS pools loaded in this process.

numpy and scipy each bundle an OpenBLAS that starts one thread per usable
CPU.  That is the right default for one process, and oversubscription as
soon as several processes share the machine: N forked workers run N × CPUs
BLAS threads on CPUs cores.  :func:`limit_blas_threads` caps the pools of
the calling process; the cluster worker calls it with its share of the
CPUs (see ``docs/cluster.md``, "CPU budget").

The cap works on Linux with OpenBLAS: the shared objects are found in
``/proc/self/maps`` and driven through ``ctypes`` — numpy's
``scipy_openblas_set_num_threads64_`` and scipy's
``scipy_openblas_set_num_threads`` are the two spellings in the wheels this
repo is tested with.  Elsewhere (no ``/proc``, another BLAS) nothing is
found, and :func:`limit_blas_threads` logs once and returns ``None``.
"""

from __future__ import annotations

import ctypes
import logging
import os
from typing import Callable, List, Optional, Tuple

__all__ = ["limit_blas_threads", "blas_thread_counts"]

_LOG = logging.getLogger(__name__)

#: ``(set, get)`` of one thread pool.
_Pool = Tuple[Callable[[int], None], Callable[[], int]]

#: Symbol decorations OpenBLAS builds use: plain or ILP64 (``64_``), with the
#: ``scipy_`` prefix inside the numpy / scipy wheels.
_SYMBOL_SPELLINGS = tuple(
    (f"{prefix}openblas_set_num_threads{suffix}", f"{prefix}openblas_get_num_threads{suffix}")
    for prefix in ("scipy_", "")
    for suffix in ("", "64_")
)


def _pools() -> List[_Pool]:
    """The OpenBLAS copies mapped into this process, via ``ctypes``."""
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(None, 5) for line in maps]
    except OSError:
        return []
    paths = sorted(
        {
            parts[5].strip()
            for parts in fields
            if len(parts) == 6 and "openblas" in os.path.basename(parts[5]).lower()
        }
    )
    pools: List[_Pool] = []
    for path in paths:
        try:
            library = ctypes.CDLL(path)  # already mapped: this only takes a handle
        except OSError:
            continue
        for set_name, get_name in _SYMBOL_SPELLINGS:
            setter = getattr(library, set_name, None)
            getter = getattr(library, get_name, None)
            if setter is None or getter is None:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            pools.append((setter, getter))
            break
    return pools


def blas_thread_counts() -> List[int]:
    """Current thread count of every controllable BLAS pool (may be empty)."""
    return [int(get()) for _, get in _pools()]


def limit_blas_threads(limit: int) -> Optional[int]:
    """Cap every BLAS pool loaded in this process at *limit* threads.

    A pool already at or below *limit* is left alone, so a smaller count the
    operator asked for (``OPENBLAS_NUM_THREADS``) is never raised.  Only the
    calling process is affected; pools of libraries imported later keep
    their default.

    Returns the largest thread count a controllable pool now has (at most
    *limit*), or ``None`` — after one log line, never an exception — where
    no controllable BLAS is loaded.
    """
    try:
        pools = _pools()
        for set_threads, get_threads in pools:
            if get_threads() > limit:
                set_threads(limit)
        counts = [int(get()) for _, get in pools]
    except Exception:  # a BLAS we cannot drive must not take the process down
        _LOG.warning("BLAS thread pools could not be limited to %d", limit, exc_info=True)
        return None
    if not counts:
        _LOG.warning("no controllable BLAS thread pool found; thread count left as is")
        return None
    return max(counts)
