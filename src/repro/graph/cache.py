"""Process-level cache of visual affinity graphs.

The visual k-NN graph depends only on the feature matrix.  One
:class:`~repro.graph.feedback.LabelPropagationFeedback` instance is
materialised *per round* by the service's stateless-strategy machinery, so
without a cache every round would rebuild the same graph.  The
:class:`GraphCache` keys graphs by the **identity** of the feature matrix
(``ImageDatabase.features`` is one stable array per database — forked
cluster workers each hold their own copy and warm their own entry),
holding the array by weak reference so a dropped database releases its
graph.

Thread-safe; hits/misses surface as ``graph.cache.hits`` /
``graph.cache.misses`` on the :mod:`repro.obs` hub.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Tuple

import numpy as np

from repro.graph.builder import AffinityGraph, KNNGraphBuilder
from repro.obs import get_hub

__all__ = ["GraphCache", "default_graph_cache"]


class GraphCache:
    """The :class:`~repro.graph.builder.AffinityGraph` of every live feature
    matrix it has been asked for, built on first request."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[int, Tuple[weakref.ref, AffinityGraph]] = {}
        self._hits = 0
        self._misses = 0

    @property
    def hits(self) -> int:
        """Number of lookups served from the cache."""
        return self._hits

    @property
    def misses(self) -> int:
        """Number of lookups that had to build."""
        return self._misses

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_build(self, features: np.ndarray) -> AffinityGraph:
        """The cached graph of *features*, building it on a miss.

        The build runs **outside** the cache lock (it is the expensive
        part); when two threads race the same missing matrix, both build
        and the later insert wins — wasteful but correct, since the graph
        is a pure function of the matrix.
        """
        key = id(features)
        hub = get_hub()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0]() is features:
                self._hits += 1
                hub.count("graph.cache.hits")
                return entry[1]
        graph = KNNGraphBuilder().build(features)
        reference = weakref.ref(features, lambda _, key=key: self._evict(key))
        with self._lock:
            self._misses += 1
            self._entries[key] = (reference, graph)
        hub.count("graph.cache.misses")
        return graph

    def _evict(self, key: int) -> None:
        """Weakref callback: the feature matrix died, drop its graph."""
        with self._lock:
            self._entries.pop(key, None)


#: The process-wide cache every feedback round reads.
_DEFAULT_CACHE = GraphCache()


def default_graph_cache() -> GraphCache:
    """The process-wide :class:`GraphCache` shared across feedback rounds."""
    return _DEFAULT_CACHE
