"""Exact KD-tree index (Euclidean metric, array-backed nodes).

A classic median-split KD-tree: internal nodes split on the dimension with
the widest spread, leaves hold up to ``leaf_size`` points scanned densely.
Search is exact — branch-and-bound with ``(distance, index)``-ordered
pruning, so results (including tie handling) are bit-for-bit identical to
:class:`repro.index.brute_force.BruteForceIndex`.  KD-trees pay off in low
dimensions; past ~15 dimensions pruning degrades towards a full scan.

Growth is **truly incremental** up to a point: :meth:`KDTreeIndex.add`
routes each new point down the existing splitting planes into the leaf that
owns its region and appends it to that leaf's overflow list — an exact
insertion (the point lies in the half-space every ancestor plane assigns
it, so branch-and-bound finds it like any resident point) that costs
``O(depth)`` instead of a full rebuild.  Only once the accumulated overflow
exceeds ``rebuild_threshold`` of the pool does the backend fall back to the
deferred full rebuild (drained lazily by the next search, or explicitly via
:meth:`~repro.index.base.VectorIndex.refresh`), restoring balanced leaves.
"""

from __future__ import annotations

import heapq
import threading
from typing import Dict, List, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.index.base import VectorIndex
from repro.obs import get_hub

__all__ = ["KDTreeIndex"]


class KDTreeIndex(VectorIndex):
    """Exact Euclidean k-NN via a median-split KD-tree.

    Parameters
    ----------
    leaf_size:
        Maximum number of points scanned densely at a leaf.
    metric:
        Must be ``"euclidean"`` (plane-distance pruning is an L2 bound).
    rebuild_threshold:
        Fraction of the pool the leaf-overflow lists may reach before an
        :meth:`add` gives up on incremental insertion and defers a full
        rebuild instead (the escape hatch against degenerate leaves).
        ``0.0`` disables incremental insertion entirely — every ``add``
        defers a rebuild, the pre-incremental behaviour.
    """

    kind = "kd-tree"

    def __init__(
        self,
        *,
        leaf_size: int = 40,
        metric: str = "euclidean",
        rebuild_threshold: float = 0.25,
    ) -> None:
        if metric != "euclidean":
            raise ValidationError(
                f"KDTreeIndex supports only the euclidean metric, got '{metric}'"
            )
        if leaf_size < 1:
            raise ValidationError(f"leaf_size must be >= 1, got {leaf_size}")
        if not 0.0 <= float(rebuild_threshold):
            raise ValidationError(
                f"rebuild_threshold must be >= 0, got {rebuild_threshold}"
            )
        super().__init__(metric=metric)
        self.leaf_size = int(leaf_size)
        self.rebuild_threshold = float(rebuild_threshold)
        self._pending_rebuild = False
        # Serialises the deferred rebuild: racing searches must not both
        # rebuild, nor observe a half-built node table.
        self._rebuild_mutex = threading.Lock()
        # Leaf node → appended global indices living in that leaf's region
        # but outside its dense perm[start:end] block.
        self._extra: Dict[int, List[int]] = {}
        self._num_extra = 0
        #: Number of tree (re)builds performed (observability / tests).
        self.rebuilds_ = 0
        #: Number of points absorbed without a rebuild (observability / tests).
        self.incremental_inserts_ = 0

    @property
    def is_exact(self) -> bool:
        """Exact: branch-and-bound prunes but never drops true neighbours."""
        return True

    @property
    def needs_rebuild(self) -> bool:
        """Whether an :meth:`add` burst left the tree stale (rebuild pending)."""
        return self._pending_rebuild

    def refresh(self) -> None:
        """Rebuild the tree now if an :meth:`add` burst left it stale.

        Double-checked under the internal rebuild mutex, so concurrent
        callers (or searches racing a refresh) trigger exactly one rebuild
        and never see a partially-written node table.  Callers serving
        parallel traffic should invoke this at a write-locked safe point so
        in-flight read-only searches never overlap the rebuild at all.
        """
        if not self._pending_rebuild:
            return
        with self._rebuild_mutex:
            if self._pending_rebuild:
                hub = get_hub()
                with hub.timer("index.rebuild_seconds"):
                    self._build(self._vectors)
                hub.count("index.rebuild_drains")

    # ------------------------------------------------------------------ build
    def _build(self, vectors: np.ndarray) -> None:
        self.rebuilds_ += 1
        # A rebuild absorbs every overflow point back into dense leaves.
        self._extra = {}
        self._num_extra = 0
        self._perm = np.arange(vectors.shape[0], dtype=np.int64)
        # Node arrays (grown as python lists, frozen to numpy at the end):
        # split_dim == -1 marks a leaf owning perm[start:end].
        split_dim: List[int] = []
        split_val: List[float] = []
        left: List[int] = []
        right: List[int] = []
        start_: List[int] = []
        end_: List[int] = []

        def make_node(start: int, end: int) -> int:
            node = len(split_dim)
            split_dim.append(-1)
            split_val.append(0.0)
            left.append(-1)
            right.append(-1)
            start_.append(start)
            end_.append(end)
            if end - start > self.leaf_size:
                points = vectors[self._perm[start:end]]
                dim = int(np.argmax(points.max(axis=0) - points.min(axis=0)))
                mid = (start + end) // 2
                order = np.argpartition(points[:, dim], mid - start)
                self._perm[start:end] = self._perm[start:end][order]
                split_dim[node] = dim
                split_val[node] = float(vectors[self._perm[mid], dim])
                left[node] = make_node(start, mid)
                right[node] = make_node(mid, end)
            return node

        make_node(0, vectors.shape[0])
        self._split_dim = np.asarray(split_dim, dtype=np.int64)
        self._split_val = np.asarray(split_val, dtype=np.float64)
        self._left = np.asarray(left, dtype=np.int64)
        self._right = np.asarray(right, dtype=np.int64)
        self._start = np.asarray(start_, dtype=np.int64)
        self._end = np.asarray(end_, dtype=np.int64)
        # Cleared last: a racing needs_rebuild probe must keep answering
        # True until the node table above is fully in place.
        self._pending_rebuild = False

    def _add(self, new_vectors: np.ndarray, start_index: int) -> None:
        if self._pending_rebuild:
            # Already stale — the pending rebuild re-indexes these too.
            return
        if (
            self._num_extra + new_vectors.shape[0]
            > self.rebuild_threshold * self.size
        ):
            # Too much overflow for the leaves to stay balanced: defer one
            # full rebuild (drained lazily by the next search) instead of
            # paying a rebuild per add() — a burst costs one rebuild total.
            self._pending_rebuild = True
            return
        # Exact incremental insertion: descend the existing planes — a point
        # belongs left iff its coordinate is strictly below the split value,
        # matching the half-space the search's branch-and-bound bound
        # assumes — and park the point in its leaf's overflow list.
        for offset in range(new_vectors.shape[0]):
            vector = new_vectors[offset]
            node = 0
            while self._split_dim[node] >= 0:
                dim = int(self._split_dim[node])
                node = int(
                    self._left[node]
                    if float(vector[dim]) < self._split_val[node]
                    else self._right[node]
                )
            self._extra.setdefault(node, []).append(start_index + offset)
            self._num_extra += 1
            self.incremental_inserts_ += 1
        get_hub().count(
            "index.kd.incremental_inserts", new_vectors.shape[0]
        )

    # ----------------------------------------------------------------- search
    def _search(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        self.refresh()
        num_queries = queries.shape[0]
        distances = np.empty((num_queries, k), dtype=np.float64)
        indices = np.empty((num_queries, k), dtype=np.int64)
        for row in range(num_queries):
            distances[row], indices[row] = self._query_one(queries[row], k)
        return distances, indices

    def _query_one(self, query: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        vectors = self._vectors
        perm = self._perm
        query_sq = float(np.einsum("j,j->", query, query))
        # Max-heap of the current k best under (distance, index) lexicographic
        # order, stored negated for python's min-heap.
        heap: List[Tuple[float, int]] = []

        def visit(node: int) -> None:
            dim = int(self._split_dim[node])
            if dim < 0:
                idxs = perm[self._start[node] : self._end[node]]
                extra = self._extra.get(node)
                if extra:
                    idxs = np.concatenate([idxs, np.asarray(extra, dtype=np.int64)])
                # Same formula AND comparison domain as the brute-force
                # oracle (sqrt of the expansion): comparing squared
                # distances instead would split near-ties the sqrt rounding
                # collapses, breaking the bit-for-bit ranking identity.
                # Computed per row via einsum rather than a GEMM over the
                # leaf block: GEMM roundoff depends on the candidate-matrix
                # shape, so duplicate vectors living in *different* leaves
                # could come back with last-ulp-different distances and
                # silently dodge the (distance, index) tie rule.  The
                # einsum path makes every candidate's distance a pure
                # function of (query, vector), leaf shape be damned.
                candidates = vectors[idxs]
                squared = query_sq + np.einsum("ij,ij->i", candidates, candidates)
                squared -= 2.0 * np.einsum("ij,j->i", candidates, query)
                np.maximum(squared, 0.0, out=squared)
                dists = np.sqrt(squared)
                for dist, index in zip(dists.tolist(), idxs.tolist()):
                    if len(heap) < k:
                        heapq.heappush(heap, (-dist, -index))
                    elif (dist, index) < (-heap[0][0], -heap[0][1]):
                        heapq.heapreplace(heap, (-dist, -index))
                return
            diff = float(query[dim]) - self._split_val[node]
            near, far = (
                (self._left[node], self._right[node])
                if diff < 0.0
                else (self._right[node], self._left[node])
            )
            visit(int(near))
            # The far half-space is no closer than the splitting plane; ties
            # (<=) must still be explored so a far point at exactly the k-th
            # distance but with a smaller index is not missed.
            if len(heap) < k or abs(diff) <= -heap[0][0]:
                visit(int(far))

        visit(0)
        ordered = sorted((-d, -i) for d, i in heap)
        return (
            np.array([d for d, _ in ordered], dtype=np.float64),
            np.array([i for _, i in ordered], dtype=np.int64),
        )

    # ------------------------------------------------------------ persistence
    def _params(self) -> Dict[str, object]:
        return {
            "leaf_size": self.leaf_size,
            "rebuild_threshold": self.rebuild_threshold,
        }

    def _state(self) -> Dict[str, np.ndarray]:
        # Persist the exact node table and overflow lists rather than
        # rebuilding at load: an incrementally-grown tree and a rebuilt one
        # agree on the *ranking* but may disagree on distances in the last
        # float bit (BLAS kernels round differently per candidate-matrix
        # shape), and save/load must be bit-identical.
        extra_nodes: List[int] = []
        extra_ids: List[int] = []
        for node in sorted(self._extra):
            for index in self._extra[node]:
                extra_nodes.append(node)
                extra_ids.append(index)
        return {
            "perm": self._perm,
            "split_dim": self._split_dim,
            "split_val": self._split_val,
            "left": self._left,
            "right": self._right,
            "start": self._start,
            "end": self._end,
            "extra_nodes": np.asarray(extra_nodes, dtype=np.int64),
            "extra_ids": np.asarray(extra_ids, dtype=np.int64),
            "pending": np.asarray(int(self._pending_rebuild), dtype=np.int64),
        }

    def _restore(self, bundle: Dict[str, np.ndarray]) -> None:
        self._vectors = np.asarray(bundle["vectors"], dtype=np.float64)
        if "split_dim" not in bundle:  # legacy bundle without a node table
            self._build(self._vectors)
            return
        self._perm = np.asarray(bundle["perm"], dtype=np.int64)
        self._split_dim = np.asarray(bundle["split_dim"], dtype=np.int64)
        self._split_val = np.asarray(bundle["split_val"], dtype=np.float64)
        self._left = np.asarray(bundle["left"], dtype=np.int64)
        self._right = np.asarray(bundle["right"], dtype=np.int64)
        self._start = np.asarray(bundle["start"], dtype=np.int64)
        self._end = np.asarray(bundle["end"], dtype=np.int64)
        self._extra = {}
        for node, index in zip(
            bundle["extra_nodes"].tolist(), bundle["extra_ids"].tolist()
        ):
            self._extra.setdefault(int(node), []).append(int(index))
        self._num_extra = int(bundle["extra_ids"].shape[0])
        self._pending_rebuild = bool(int(bundle["pending"]))
