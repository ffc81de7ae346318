"""IVF index: k-means coarse quantizer + inverted lists with n_probe pruning.

The database is partitioned by a k-means quantizer; each centroid owns the
inverted list of the vectors assigned to it.  A query ranks the centroids,
visits the ``n_probe`` nearest lists, and re-ranks their members exactly
under the index metric.  ``n_probe`` is the recall/speed dial: 1 is fastest,
``n_clusters`` scans every list and reproduces the brute-force ranking
bit-for-bit (the property tests assert this).  The quantizer always operates
in Euclidean space regardless of the re-rank metric, which is the standard
IVF construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.index.base import VectorIndex
from repro.obs import get_hub
from repro.utils.arrays import pairwise_squared_distances, squared_norms, stable_top_k

__all__ = ["IVFIndex"]

#: Database rows per block when assigning vectors to centroids.
_ASSIGN_BLOCK = 8192


class IVFIndex(VectorIndex):
    """Approximate k-NN via inverted lists under a k-means quantizer.

    Parameters
    ----------
    n_clusters:
        Number of k-means cells (clamped to the database size at build).
    n_probe:
        Inverted lists visited per query; mutable, so sweeps can re-tune a
        built index without re-clustering.
    kmeans_iters:
        Lloyd iterations of the quantizer fit.
    train_size:
        Subsample used to fit the quantizer (``None`` = all vectors).
    seed:
        Seed of the k-means initialisation (the index is deterministic).
    """

    kind = "ivf"

    def __init__(
        self,
        *,
        n_clusters: int = 64,
        n_probe: int = 4,
        metric: str = "euclidean",
        kmeans_iters: int = 10,
        train_size: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        if n_clusters < 1:
            raise ValidationError(f"n_clusters must be >= 1, got {n_clusters}")
        if n_probe < 1:
            raise ValidationError(f"n_probe must be >= 1, got {n_probe}")
        if kmeans_iters < 1:
            raise ValidationError(f"kmeans_iters must be >= 1, got {kmeans_iters}")
        if train_size is not None and train_size < 1:
            raise ValidationError(f"train_size must be >= 1, got {train_size}")
        super().__init__(metric=metric)
        self.n_clusters = int(n_clusters)
        self.n_probe = int(n_probe)
        self.kmeans_iters = int(kmeans_iters)
        self.train_size = None if train_size is None else int(train_size)
        self.seed = int(seed)

    @property
    def is_exact(self) -> bool:
        """Exact only when every cluster list is probed."""
        return self.n_probe >= self.n_clusters

    @property
    def num_lists(self) -> int:
        """Number of (non-empty) inverted lists actually built."""
        return int(self._centroids.shape[0])

    # ------------------------------------------------------------------ build
    def _build(self, vectors: np.ndarray) -> None:
        rng = np.random.default_rng(self.seed)
        train = vectors
        if self.train_size is not None and vectors.shape[0] > self.train_size:
            train = vectors[rng.choice(vectors.shape[0], self.train_size, replace=False)]
        centroids = self._kmeans(train, rng)
        assignments = self._assign(vectors, centroids)
        # Drop cells that ended up empty on the full database so every
        # centroid owns a non-empty inverted list.
        occupied = np.unique(assignments)
        self._centroids = centroids[occupied]
        remap = np.empty(centroids.shape[0], dtype=np.int64)
        remap[occupied] = np.arange(occupied.shape[0])
        assignments = remap[assignments]
        self._lists: List[np.ndarray] = [
            np.flatnonzero(assignments == cell).astype(np.int64)
            for cell in range(occupied.shape[0])
        ]
        self._repack()

    def _repack(self) -> None:
        """Lay the inverted lists out cell-major for the fused search.

        ``_packed`` holds every list's member vectors contiguously (one
        extra copy of the database, the price of cache-friendly per-cell
        scans), ``_packed_ids`` the matching database indices, and
        ``_offsets[cell] : _offsets[cell + 1]`` the cell's slice of both.
        ``_packed_sq`` gathers the index's squared norms alongside (Euclidean
        only), and the centroids' norms are cached too: a search recomputes
        neither.
        """
        sizes = np.array([cell.shape[0] for cell in self._lists], dtype=np.int64)
        members = (
            np.concatenate(self._lists) if self._lists else np.empty(0, np.int64)
        )
        self._list_sizes = sizes
        self._offsets = np.concatenate([np.zeros(1, np.int64), np.cumsum(sizes)])
        self._packed_ids = members
        self._packed = self._vectors[members]
        self._packed_sq = None if self._sq_norms is None else self._sq_norms[members]
        self._centroid_sq = squared_norms(self._centroids)

    def _kmeans(self, train: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        k = min(self.n_clusters, train.shape[0])
        centroids = train[rng.choice(train.shape[0], k, replace=False)].copy()
        for _ in range(self.kmeans_iters):
            assignments = self._assign(train, centroids)
            for cell in range(k):
                members = train[assignments == cell]
                if members.shape[0] > 0:
                    centroids[cell] = members.mean(axis=0)
                else:
                    # Reseed an empty cell onto a random training point.
                    centroids[cell] = train[int(rng.integers(train.shape[0]))]
        return centroids

    @staticmethod
    def _assign(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
        assignments = np.empty(vectors.shape[0], dtype=np.int64)
        for start in range(0, vectors.shape[0], _ASSIGN_BLOCK):
            block = vectors[start : start + _ASSIGN_BLOCK]
            assignments[start : start + block.shape[0]] = np.argmin(
                pairwise_squared_distances(block, centroids), axis=1
            )
        return assignments

    # ----------------------------------------------------------------- search
    def _search(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Cell-major fused probe: one dense distance block per visited cell.

        Queries are grouped by probed cell, and every group pays a single
        vectorised ``(group, |list|)`` distance computation over the cell's
        packed member matrix — no per-query gathers, no python-level
        re-rank loop.  Selection is :func:`~repro.utils.arrays.stable_top_k`
        keyed by database id, the (distance, ascending database index) rule
        of the full scan, so the exhaustive configuration stays bit-for-bit
        the brute-force scan.
        """
        n_probe = min(self.n_probe, self.num_lists)
        cell_distances = pairwise_squared_distances(
            queries, self._centroids, b_sq=self._centroid_sq
        )
        if n_probe < self.num_lists:
            probed = np.argpartition(cell_distances, n_probe - 1, axis=1)[:, :n_probe]
        else:
            probed = np.tile(np.arange(self.num_lists), (queries.shape[0], 1))
        hub = get_hub()
        hub.count("index.ivf.cells_probed", int(probed.size))
        num_queries = queries.shape[0]
        counts = self._list_sizes[probed].sum(axis=1)
        distances = np.empty((num_queries, k), dtype=np.float64)
        indices = np.empty((num_queries, k), dtype=np.int64)
        served = counts >= k
        fallback_rows = np.flatnonzero(~served)
        if fallback_rows.size:
            # Exact fallback: too few probed members to honour k.
            hub.count("index.candidate_fallbacks", int(fallback_rows.size))
            block_d, block_i = self._full_scan(queries[fallback_rows], k)
            distances[fallback_rows] = block_d
            indices[fallback_rows] = block_i
        hub.count("index.candidates_scanned", int(counts[served].sum()))
        if not np.any(served):
            return distances, indices
        # Group (query, cell) visits by cell so each cell's list is scanned
        # once for all the queries probing it.
        flat_rows = np.repeat(np.arange(num_queries), probed.shape[1])
        flat_cells = probed.ravel()
        keep = served[flat_rows]
        order = np.argsort(flat_cells[keep], kind="stable")
        flat_rows = flat_rows[keep][order]
        flat_cells = flat_cells[keep][order]
        boundaries = np.flatnonzero(np.diff(flat_cells)) + 1
        parts: List[List[np.ndarray]] = [[] for _ in range(num_queries)]
        cells_of: List[List[int]] = [[] for _ in range(num_queries)]
        for group_rows, group_cells in zip(
            np.split(flat_rows, boundaries), np.split(flat_cells, boundaries)
        ):
            cell = int(group_cells[0])
            begin, end = int(self._offsets[cell]), int(self._offsets[cell + 1])
            norms = () if self._packed_sq is None else (self._packed_sq[begin:end],)
            block = self._distance(queries[group_rows], self._packed[begin:end], *norms)
            for position, row in enumerate(group_rows):
                parts[int(row)].append(block[position])
                cells_of[int(row)].append(cell)
        for row in np.flatnonzero(served):
            dist = np.concatenate(parts[row])
            ids = np.concatenate(
                [
                    self._packed_ids[self._offsets[cell] : self._offsets[cell + 1]]
                    for cell in cells_of[row]
                ]
            )
            chosen = stable_top_k(dist, k, ties=ids)
            distances[row], indices[row] = dist[chosen], ids[chosen]
        return distances, indices

    # ------------------------------------------------------------ persistence
    def _params(self) -> Dict[str, object]:
        return {
            "n_clusters": self.n_clusters,
            "n_probe": self.n_probe,
            "kmeans_iters": self.kmeans_iters,
            "train_size": self.train_size,
            "seed": self.seed,
        }

    def _state(self) -> Dict[str, np.ndarray]:
        list_sizes = np.array([cell.shape[0] for cell in self._lists], dtype=np.int64)
        return {
            "centroids": self._centroids,
            "list_sizes": list_sizes,
            "list_members": np.concatenate(self._lists) if self._lists else np.empty(0, np.int64),
        }

    def _restore(self, bundle: Dict[str, np.ndarray]) -> None:
        self._fix_vectors(np.asarray(bundle["vectors"], dtype=np.float64))
        self._centroids = np.asarray(bundle["centroids"], dtype=np.float64)
        members = np.asarray(bundle["list_members"], dtype=np.int64)
        boundaries = np.cumsum(np.asarray(bundle["list_sizes"], dtype=np.int64))[:-1]
        self._lists = [cell for cell in np.split(members, boundaries)]
        self._repack()
