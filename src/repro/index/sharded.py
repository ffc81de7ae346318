"""Exact scatter-gather sharding over any registered index backend.

:class:`ShardedVectorIndex` partitions the pool across *N* sub-indexes
("shards"), scatters every ``search`` / ``batch_search`` to all of them and
merges the per-shard top-k under the library-wide tie rule — ascending
distance, ties by ascending **global** database index.  Because every
backend ranks with *exact* distances, the per-shard distances of a vector
are bitwise-equal to the distances a single unsharded scan would compute
for it, so the merged ranking is bit-for-bit identical to the unsharded
index whenever the shards are exact (the property the test-suite asserts
for shard counts 1/2/3/7, ties included).

This is the data-parallel half of the cluster story
(:mod:`repro.cluster` is the session-parallel half): the same merge rule
that glues shards inside one process glues worker responses across
processes, so scaling out never changes a ranking.

Two invariants make the merge exact:

* **shard-local tie order matches the global one** — each shard is a
  contiguous slice of the pool (``np.array_split``), so its local→global id
  map is strictly increasing and breaking a distance tie by ascending
  *local* index also breaks it by ascending *global* index;
* **the gather re-sorts with the global key** — merged candidates are
  ordered by ``np.lexsort((global_ids, distances))``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.index.base import VectorIndex
from repro.obs import get_hub

__all__ = ["ShardedVectorIndex"]


class ShardedVectorIndex(VectorIndex):
    """Scatter-gather wrapper: one logical index over *N* shard sub-indexes.

    Shards are scanned one after another on the calling thread; the gather
    merges them in shard order.

    Parameters
    ----------
    num_shards:
        Number of partitions (capped at the number of indexed vectors, so
        every shard is non-empty).
    shard_kind:
        Registry name of the per-shard backend (any backend except
        ``sharded`` itself).
    shard_params:
        Constructor parameters forwarded to every shard backend.
    metric:
        Distance metric, as for every backend.
    """

    kind = "sharded"

    def __init__(
        self,
        *,
        num_shards: int = 4,
        shard_kind: str = "brute-force",
        shard_params: Optional[Dict[str, object]] = None,
        metric: str = "euclidean",
    ) -> None:
        if int(num_shards) < 1:
            raise ValidationError(f"num_shards must be >= 1, got {num_shards}")
        if shard_kind == self.kind:
            raise ValidationError("sharded shards cannot themselves be sharded")
        super().__init__(metric=metric)
        self.num_shards = int(num_shards)
        self.shard_kind = str(shard_kind)
        self.shard_params: Dict[str, object] = dict(shard_params or {})
        # Validate the shard backend (and its parameters) eagerly, so a bad
        # configuration fails at construction rather than at build time.
        self._make_shard()
        self._shards: List[VectorIndex] = []
        self._shard_ids: List[np.ndarray] = []

    # ------------------------------------------------------------------ info
    @property
    def is_exact(self) -> bool:
        """Exact iff every shard is exact (the merge itself never loses)."""
        return bool(self._shards) and all(s.is_exact for s in self._shards)

    @property
    def shards(self) -> List[VectorIndex]:
        """The shard sub-indexes, in partition order (read-only view)."""
        return list(self._shards)

    # ------------------------------------------------------------------ build
    def _build(self, vectors: np.ndarray) -> None:
        effective = min(self.num_shards, vectors.shape[0])
        self._shards = []
        self._shard_ids = []
        for ids in np.array_split(np.arange(vectors.shape[0], dtype=np.int64), effective):
            shard = self._make_shard()
            shard.build(vectors[ids])
            self._shards.append(shard)
            self._shard_ids.append(ids)

    # ----------------------------------------------------------------- search
    def _search(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        hub = get_hub()
        scatter_started = perf_counter()
        gathered = []
        for shard, ids in zip(self._shards, self._shard_ids):
            # One shard's top-min(k, shard.size), ids mapped to global.
            distances, local = shard.search(queries, min(k, shard.size))
            gathered.append((distances, ids[local]))
        if hub.enabled:
            hub.observe(
                "index.shard_fanout_seconds", perf_counter() - scatter_started
            )
            hub.count("index.shard_queries", queries.shape[0] * len(self._shards))
        with hub.timer("index.shard_merge_seconds"):
            return self._merge(gathered, k)

    @staticmethod
    def _merge(
        gathered: List[Tuple[np.ndarray, np.ndarray]], k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gather: global top-k of the shard candidates, exact tie rule."""
        distances = np.concatenate([block[0] for block in gathered], axis=1)
        ids = np.concatenate([block[1] for block in gathered], axis=1)
        # Row-wise (distance, ascending global id), per query along the
        # last axis.
        order = np.lexsort((ids, distances), axis=1)[:, :k]
        return (
            np.take_along_axis(distances, order, axis=1),
            np.take_along_axis(ids, order, axis=1),
        )

    # -------------------------------------------------------------- internals
    def _make_shard(self) -> VectorIndex:
        from repro.index.registry import make_index

        return make_index(self.shard_kind, metric=self.metric, **self.shard_params)

    # ------------------------------------------------------------ persistence
    def _params(self) -> Dict[str, object]:
        return {
            "num_shards": self.num_shards,
            "shard_kind": self.shard_kind,
            "shard_params": dict(self.shard_params),
        }
    # The default _restore re-partitions the loaded vectors contiguously,
    # exactly as build() did.
