"""The sparse symmetric k-NN affinity graph over a visual feature pool.

:class:`KNNGraphBuilder` turns an ``(N, D)`` feature matrix into the one
graph the ``lrf-graph`` feedback family propagates over: each node's
``K`` nearest neighbours by Euclidean distance
(:func:`repro.utils.arrays.exact_top_k`, ties by ascending index), RBF edge
weights ``exp(-gamma d^2)`` with the ``"scale"`` bandwidth of
:class:`repro.svm.kernels.RBFKernel`, and max-symmetrisation.  Only the
neighbour *indices* come from the scan: edge distances are recomputed from
the feature matrix, so the weights are a pure function of the neighbour
lists.

The graph depends on the feature matrix alone, so it is built once per
process and cached (:mod:`repro.graph.cache`).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.exceptions import ValidationError
from repro.obs import get_hub
from repro.svm.kernels import RBFKernel
from repro.utils.arrays import exact_top_k

__all__ = ["AffinityGraph", "KNNGraphBuilder"]

#: Neighbours per node (the self-match excluded); clamped to ``N - 1`` on
#: pools of at most ``K`` images.
K = 10

#: Element budget of the ``(block, k, D)`` broadcast used when recomputing
#: edge distances — caps the intermediate at ~64 MiB of float64.
_EDGE_CHUNK_ELEMENTS = 2**23


class AffinityGraph:
    """An immutable sparse symmetric affinity graph over a feature pool.

    Attributes
    ----------
    weights:
        Canonical ``(N, N)`` CSR matrix of non-negative edge affinities
        (sorted indices, no explicit zeros, zero diagonal, symmetric).
        Treat it as read-only; consumers that mutate must copy first.
    """

    def __init__(self, weights: sparse.csr_matrix) -> None:
        matrix = sparse.csr_matrix(weights, dtype=np.float64)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValidationError(
                f"affinity graph must be square, got shape {matrix.shape}"
            )
        self.weights = matrix

    @property
    def num_nodes(self) -> int:
        """Number of pool images (graph nodes)."""
        return int(self.weights.shape[0])

    @property
    def num_edges(self) -> int:
        """Number of stored directed edges (symmetric pairs count twice)."""
        return int(self.weights.nnz)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"AffinityGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


class KNNGraphBuilder:
    """Builds the k-NN affinity graph of a feature matrix (no options)."""

    def build(self, features: np.ndarray) -> AffinityGraph:
        """Build the affinity graph over *features* (rows are pool images).

        Raises
        ------
        ValidationError
            If *features* is not a finite 2-D matrix with at least two rows
            (a graph over one node has no edges to propagate along).
        """
        matrix = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if matrix.ndim != 2 or matrix.shape[0] < 2:
            raise ValidationError(
                "KNNGraphBuilder needs a 2-D feature matrix with >= 2 rows"
            )
        if not np.all(np.isfinite(matrix)):
            raise ValidationError("features must be finite")
        k = min(K, matrix.shape[0] - 1)
        hub = get_hub()
        if not hub.enabled:
            return _build(matrix, k)
        with hub.span("graph.build", nodes=int(matrix.shape[0]), k=k) as span:
            graph = _build(matrix, k)
        hub.count("graph.build.count")
        hub.count("graph.build.edges", graph.num_edges)
        hub.observe("graph.build.seconds", span.duration)
        return graph


def _build(matrix: np.ndarray, k: int) -> AffinityGraph:
    num_nodes = matrix.shape[0]
    # k+1 neighbours so the self-match can be stripped.  Under the scan's
    # tie rule the self-row wins every distance-0 tie it is the lowest
    # index of; with exact duplicates at a lower index the self entry may
    # sit later in the list (or fall off it entirely).
    _, neighbours = exact_top_k(matrix, matrix, k + 1)
    rows = np.arange(num_nodes)
    keep = neighbours != rows[:, None]
    # Rows whose list has no self-match keep their k nearest only.
    keep[keep.all(axis=1), -1] = False
    neighbour_ids = neighbours[keep].reshape(num_nodes, k)

    gamma = float(RBFKernel("scale").fit(matrix).gamma_)
    data = np.exp(-gamma * _edge_distances(matrix, neighbour_ids).ravel() ** 2)
    indptr = np.arange(0, num_nodes * k + 1, k, dtype=np.int64)
    directed = sparse.csr_matrix(
        (data, neighbour_ids.ravel(), indptr), shape=(num_nodes, num_nodes)
    )
    directed.sort_indices()
    weights = directed.maximum(directed.T).tocsr()
    weights.eliminate_zeros()
    weights.sort_indices()
    return AffinityGraph(weights)


def _edge_distances(matrix: np.ndarray, neighbour_ids: np.ndarray) -> np.ndarray:
    """Per-edge Euclidean distances recomputed from *matrix*, chunked over
    nodes to bound the ``(block, k, D)`` intermediate."""
    num_nodes, k = neighbour_ids.shape
    dim = matrix.shape[1]
    out = np.empty((num_nodes, k), dtype=np.float64)
    step = max(1, _EDGE_CHUNK_ELEMENTS // max(1, k * dim))
    for start in range(0, num_nodes, step):
        stop = min(start + step, num_nodes)
        source = matrix[start:stop, None, :]
        target = matrix[neighbour_ids[start:stop]]
        out[start:stop] = np.sqrt(((source - target) ** 2).sum(axis=2))
    return out
