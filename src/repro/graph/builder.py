"""Sparse symmetric k-NN affinity graphs over a visual feature pool.

The :class:`KNNGraphBuilder` turns an ``(N, D)`` feature matrix into the
sparse affinity graph the label-propagation feedback family operates on.
Neighbour lists come from :meth:`repro.index.VectorIndex.batch_search`,
whose exact scan has one stable tie rule (distance, then ascending
database index).  Only the neighbour *indices* are consumed from the
index: edge distances are recomputed from the feature matrix itself,
making the weights a pure function of the neighbour lists.  Without an
index the builder builds one over the features.

The graph is session-independent — it only depends on the feature matrix
and the builder's parameters — so it is built once, cached
(:mod:`repro.graph.cache`) and optionally persisted
(:meth:`AffinityGraph.save` / :meth:`AffinityGraph.load`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np
from scipy import sparse

from repro.exceptions import ValidationError
from repro.index.base import VectorIndex
from repro.obs import get_hub
from repro.svm.kernels import RBFKernel
from repro.utils.io import load_array_bundle, save_array_bundle

__all__ = ["AffinityGraph", "KNNGraphBuilder"]

PathLike = Union[str, Path]

#: Edge-weighting schemes understood by the builder.
_WEIGHTINGS = ("rbf", "connectivity")

#: Symmetrisation rules understood by the builder.
_SYMMETRIZE = ("max", "mean")

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
    params:
        JSON-serialisable builder parameters the graph was built with
        (``k``, ``weighting``, resolved ``gamma``, ``metric``,
        ``symmetrize``) — round-tripped verbatim by :meth:`save` /
        :meth:`load`.
    """

    def __init__(self, weights: sparse.csr_matrix, *, params: Dict[str, object]) -> None:
        matrix = sparse.csr_matrix(weights, dtype=np.float64)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValidationError(
                f"affinity graph must be square, got shape {matrix.shape}"
            )
        self.weights = matrix
        self.params = dict(params)

    # ------------------------------------------------------------------ info
    @property
    def num_nodes(self) -> int:
        """Number of pool images (graph nodes)."""
        return int(self.weights.shape[0])

    @property
    def num_edges(self) -> int:
        """Number of stored directed edges (symmetric pairs count twice)."""
        return int(self.weights.nnz)

    def degrees(self) -> np.ndarray:
        """Weighted degree (row sum of affinities) of every node."""
        return np.asarray(self.weights.sum(axis=1)).ravel()

    # ----------------------------------------------------------- persistence
    def save(self, path: PathLike) -> Path:
        """Serialise the graph to a single ``.npz`` bundle at *path*.

        Mirrors :meth:`repro.index.VectorIndex.save`: the CSR arrays plus a
        JSON ``__meta__`` record, written atomically.  Returns the path
        actually written.
        """
        meta = {"type": "affinity-graph", "shape": list(self.weights.shape), "params": self.params}
        bundle = {
            "__meta__": np.array(json.dumps(meta)),
            "data": self.weights.data,
            "indices": self.weights.indices,
            "indptr": self.weights.indptr,
        }
        return save_array_bundle(bundle, path)

    @classmethod
    def load(cls, path: PathLike) -> "AffinityGraph":
        """Reconstruct a graph previously written by :meth:`save`.

        Raises
        ------
        ValidationError
            If *path* is not a serialised :class:`AffinityGraph` bundle.
        """
        bundle = load_array_bundle(path)
        try:
            meta = json.loads(bundle["__meta__"].item())
        except KeyError:
            raise ValidationError(f"{path} is not a serialised AffinityGraph") from None
        if meta.get("type") != "affinity-graph":
            raise ValidationError(f"{path} is not a serialised AffinityGraph")
        shape = tuple(int(x) for x in meta["shape"])
        weights = sparse.csr_matrix(
            (bundle["data"], bundle["indices"], bundle["indptr"]), shape=shape
        )
        return cls(weights, params=meta["params"])

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"AffinityGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


class KNNGraphBuilder:
    """Builds sparse symmetric k-NN affinity graphs from a feature matrix.

    Parameters
    ----------
    k:
        Neighbours per node (the self-match is always excluded).  Clamped
        to ``N - 1`` on pools smaller than ``k + 1``; the effective value
        is recorded in the graph's ``params``.
    weighting:
        ``"rbf"`` weights an edge at distance ``d`` by ``exp(-gamma d^2)``;
        ``"connectivity"`` uses binary 0/1 edges.
    gamma:
        RBF bandwidth: a positive float, ``"scale"`` for
        ``1 / (D * var(X))`` resolved against the pool (the convention of
        :class:`repro.svm.kernels.RBFKernel`), or ``"auto"`` for ``1 / D``.
        Ignored under ``"connectivity"`` weighting.
    metric:
        Distance used for neighbour search (``euclidean`` / ``manhattan``
        / ``cosine``); a supplied index must use the same metric.
    symmetrize:
        ``"max"`` keeps ``max(W, W^T)`` (mutual edges keep their weight,
        one-directional edges are mirrored); ``"mean"`` averages
        ``(W + W^T) / 2`` (one-directional edges are halved).
    """

    def __init__(
        self,
        *,
        k: int = 10,
        weighting: str = "rbf",
        gamma: Union[float, str] = "scale",
        metric: str = "euclidean",
        symmetrize: str = "max",
    ) -> None:
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        if weighting not in _WEIGHTINGS:
            raise ValidationError(
                f"weighting must be one of {_WEIGHTINGS}, got {weighting!r}"
            )
        if symmetrize not in _SYMMETRIZE:
            raise ValidationError(
                f"symmetrize must be one of {_SYMMETRIZE}, got {symmetrize!r}"
            )
        # RBFKernel owns gamma validation ("scale"/"auto"/positive float).
        RBFKernel(gamma)
        self.k = int(k)
        self.weighting = str(weighting)
        self.gamma = gamma
        self.metric = str(metric)
        self.symmetrize = str(symmetrize)

    def signature(self) -> Tuple[object, ...]:
        """Hashable parameter tuple identifying the graphs this builder makes.

        Two builders with equal signatures produce bit-identical graphs
        over the same feature matrix — the key the
        :class:`repro.graph.cache.GraphCache` stores graphs under.
        """
        return ("knn", self.k, self.weighting, self.gamma, self.metric, self.symmetrize)

    # ------------------------------------------------------------------ build
    def build(
        self, features: np.ndarray, *, index: Optional[VectorIndex] = None
    ) -> AffinityGraph:
        """Build the affinity graph over *features* (rows are pool images).

        Parameters
        ----------
        features:
            Non-empty ``(N, D)`` matrix with at least two rows (a graph
            over one node has no edges to propagate along).
        index:
            Optional **built** :class:`~repro.index.VectorIndex` covering
            exactly *features* under the builder's metric; neighbour lists
            then come from :meth:`~repro.index.VectorIndex.batch_search`.
            ``None`` (the default) builds one over *features*; either way
            the graph is the same.

        Raises
        ------
        ValidationError
            If *features* is malformed or the index does not cover it.
        """
        matrix = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if matrix.ndim != 2 or matrix.shape[0] < 2:
            raise ValidationError(
                "KNNGraphBuilder needs a 2-D feature matrix with >= 2 rows"
            )
        if not np.all(np.isfinite(matrix)):
            raise ValidationError("features must be finite")
        hub = get_hub()
        if not hub.enabled:
            return self._build(matrix, index)
        with hub.span("graph.build", nodes=int(matrix.shape[0]), k=self.k) as span:
            graph = self._build(matrix, index)
        hub.count("graph.build.count")
        hub.count("graph.build.edges", graph.num_edges)
        hub.observe("graph.build.seconds", span.duration)
        return graph

    # ------------------------------------------------------------- internals
    def _build(self, matrix: np.ndarray, index: Optional[VectorIndex]) -> AffinityGraph:
        num_nodes = matrix.shape[0]
        k = min(self.k, num_nodes - 1)
        index = self._resolve_index(matrix, index)

        # k+1 neighbours so the self-match can be stripped.  Under the
        # shared tie rule the self-row wins every distance-0 tie it is the
        # lowest index of; with exact duplicates at a lower index the self
        # entry may sit later in the list (or fall off it entirely).
        _, neighbours = index.batch_search(matrix, k + 1)
        rows = np.arange(num_nodes)
        keep = neighbours != rows[:, None]
        # Rows whose list has no self-match keep their k nearest only.
        keep[keep.all(axis=1), -1] = False
        neighbour_ids = neighbours[keep].reshape(num_nodes, k)

        if self.weighting == "rbf":
            gamma = float(RBFKernel(self.gamma).fit(matrix).gamma_)
            neighbour_dists = self._edge_distances(matrix, neighbour_ids)
            data = np.exp(-gamma * neighbour_dists.ravel() ** 2)
        else:
            gamma = None
            data = np.ones(num_nodes * k, dtype=np.float64)

        indptr = np.arange(0, num_nodes * k + 1, k, dtype=np.int64)
        directed = sparse.csr_matrix(
            (data, neighbour_ids.ravel(), indptr), shape=(num_nodes, num_nodes)
        )
        directed.sort_indices()
        if self.symmetrize == "max":
            weights = directed.maximum(directed.T).tocsr()
        else:
            weights = ((directed + directed.T) * 0.5).tocsr()
        weights.eliminate_zeros()
        weights.sort_indices()
        params = {
            "k": k,
            "weighting": self.weighting,
            "gamma": gamma,
            "metric": self.metric,
            "symmetrize": self.symmetrize,
        }
        return AffinityGraph(weights, params=params)

    def _edge_distances(
        self, matrix: np.ndarray, neighbour_ids: np.ndarray
    ) -> np.ndarray:
        """Per-edge distances recomputed from *matrix* under the metric.

        Recomputing from the features keeps the edge weights a pure
        function of the neighbour indices.  Chunked over nodes to bound the
        ``(block, k, D)`` intermediate.
        """
        num_nodes, k = neighbour_ids.shape
        dim = matrix.shape[1]
        out = np.empty((num_nodes, k), dtype=np.float64)
        step = max(1, _EDGE_CHUNK_ELEMENTS // max(1, k * dim))
        for start in range(0, num_nodes, step):
            stop = min(start + step, num_nodes)
            source = matrix[start:stop, None, :]
            target = matrix[neighbour_ids[start:stop]]
            if self.metric == "euclidean":
                out[start:stop] = np.sqrt(((source - target) ** 2).sum(axis=2))
            elif self.metric == "manhattan":
                out[start:stop] = np.abs(source - target).sum(axis=2)
            elif self.metric == "cosine":
                dots = (source * target).sum(axis=2)
                source_norm = np.linalg.norm(matrix[start:stop], axis=1)[:, None]
                target_norm = np.linalg.norm(target, axis=2)
                out[start:stop] = 1.0 - dots / np.maximum(
                    source_norm * target_norm, 1e-12
                )
            else:  # pragma: no cover - metrics are validated by the index
                raise ValidationError(f"unsupported metric {self.metric!r}")
        return out

    def _resolve_index(
        self, matrix: np.ndarray, index: Optional[VectorIndex]
    ) -> VectorIndex:
        """The search index: a validated caller index, or a fresh one."""
        if index is None:
            return VectorIndex(metric=self.metric).build(matrix)
        if index.metric != self.metric:
            raise ValidationError(
                f"index metric {index.metric!r} differs from the builder's "
                f"{self.metric!r}"
            )
        index.ensure_covers(matrix)
        return index
