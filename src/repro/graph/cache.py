"""Process-level cache of visual affinity graphs.

The visual k-NN graph is session-independent: it depends only on the
feature matrix and the builder parameters.  One
:class:`~repro.graph.feedback.LabelPropagationFeedback` instance is
materialised *per round* by the service's stateless-strategy machinery, so
without a cache every round would rebuild the same graph.  The
:class:`GraphCache` keys graphs by the **identity** of the feature matrix
(``ImageDatabase.features`` is one stable array per database — forked
cluster workers each hold their own copy and warm their own entry) plus
the builder's :meth:`~repro.graph.builder.KNNGraphBuilder.signature`,
holding the array by weak reference so a dropped database releases its
graph.

Thread-safe; hits/misses surface as ``graph.cache.hits`` /
``graph.cache.misses`` on the :mod:`repro.obs` hub.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Callable, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.graph.builder import AffinityGraph
from repro.obs import get_hub

__all__ = ["GraphCache", "default_graph_cache"]

#: Cache key: feature-matrix identity plus the builder signature.
_Key = Tuple[int, Tuple[object, ...]]


class GraphCache:
    """A small LRU cache of :class:`~repro.graph.builder.AffinityGraph`.

    Parameters
    ----------
    capacity:
        Maximum number of cached graphs; the least recently used entry is
        evicted beyond it.  A handful suffices — one entry per (database,
        parameterisation) pair alive in the process.
    """

    def __init__(self, *, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValidationError(f"capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[_Key, Tuple[weakref.ref, AffinityGraph]]" = OrderedDict()
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------ stats
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

    # ------------------------------------------------------------------- API
    def get_or_build(
        self,
        features: np.ndarray,
        signature: Tuple[object, ...],
        factory: Callable[[], AffinityGraph],
    ) -> AffinityGraph:
        """The cached graph for ``(features, signature)``, building on miss.

        *factory* runs **outside** the cache lock (graph construction is the
        expensive part); when two threads race the same missing key, both
        build and the later insert wins — wasteful but correct, since equal
        keys produce bit-identical graphs.
        """
        key = (id(features), tuple(signature))
        hub = get_hub()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0]() is features:
                self._entries.move_to_end(key)
                self._hits += 1
                hub.count("graph.cache.hits")
                return entry[1]
        graph = factory()
        reference = weakref.ref(features, lambda _, key=key: self._evict(key))
        with self._lock:
            self._misses += 1
            self._entries[key] = (reference, graph)
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
        hub.count("graph.cache.misses")
        return graph

    def clear(self) -> None:
        """Drop every cached graph (and reset the hit/miss counters)."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0

    # ------------------------------------------------------------- internals
    def _evict(self, key: _Key) -> None:
        """Weakref callback: the feature matrix died, drop its graph."""
        with self._lock:
            self._entries.pop(key, None)


#: The process-wide default cache shared by every feedback instance that is
#: not handed an explicit one.
_DEFAULT_CACHE = GraphCache()


def default_graph_cache() -> GraphCache:
    """The process-wide :class:`GraphCache` shared across feedback rounds."""
    return _DEFAULT_CACHE
