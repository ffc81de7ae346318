"""The :class:`VectorIndex` interface shared by every ANN backend.

A vector index answers *k*-nearest-neighbour queries over a fixed feature
matrix.  Backends differ only in **how** they narrow the database down to a
candidate set — the final ordering is always produced by an *exact* re-rank
of the candidates under the index metric, with ties broken by ascending
database index.  That tie rule is identical to the stable ``argsort`` the
dense scan in :class:`repro.cbir.search.SearchEngine` has always used, so an
exhaustively-configured approximate backend reproduces the exact ranking
bit-for-bit (the property the test-suite asserts).

Whenever a backend cannot supply at least *k* candidates for a query it
falls back to the exact full scan for that query, so ``search`` always
returns exactly *k* valid neighbours.

Thread safety
-------------
A **built** index is safely shareable read-only: :meth:`VectorIndex.search`
/ :meth:`VectorIndex.batch_search` touch only immutable arrays, so any
number of threads may query one index concurrently.  The mutators —
:meth:`VectorIndex.build`, :meth:`VectorIndex.add`, :meth:`VectorIndex.load`
— are *not* internally synchronised and need external exclusion against
concurrent searches (the retrieval service brackets them with its
attachment write-lock).  The one read-path subtlety is a *deferred* rebuild
(the KD-tree defers re-indexing after ``add`` to the next search): backends
advertise it through :attr:`VectorIndex.needs_rebuild`, callers drain it at
a safe point with :meth:`VectorIndex.refresh`, and the KD-tree additionally
guards the lazy rebuild with an internal mutex so racing searches can never
observe a half-built tree.
"""

from __future__ import annotations

import abc
import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import ValidationError
from repro.obs import get_hub
from repro.utils.arrays import stable_top_k
from repro.utils.io import load_array_bundle, save_array_bundle

if TYPE_CHECKING:  # pragma: no cover - runtime import is lazy (cycle guard)
    from repro.cbir.similarity import DistanceFunction

__all__ = ["VectorIndex"]

PathLike = Union[str, Path]

#: Queries processed per block when a backend scans the full database, so the
#: intermediate (block, N) distance matrix stays memory-bounded.
_QUERY_BLOCK = 64


class VectorIndex(abc.ABC):
    """Common interface of the brute-force / KD-tree / LSH / IVF backends.

    Lifecycle: ``build(vectors)`` once, optionally ``add(vectors)`` to grow
    the corpus, then any number of ``search`` / ``batch_search`` calls.
    ``save``/``load`` round-trip the index through a single ``.npz`` bundle.

    Parameters
    ----------
    metric:
        Distance under which neighbours are ranked (``euclidean``,
        ``manhattan`` or ``cosine``; the KD-tree backend is
        Euclidean-only).
    """

    #: Registry name of the backend (e.g. ``"ivf"``), mirrors
    #: :attr:`repro.feedback.base.RelevanceFeedbackAlgorithm.name`.
    kind: str = "index"

    def __init__(self, *, metric: str = "euclidean") -> None:
        # Lazy import: repro.cbir.search imports VectorIndex, so the distance
        # registry must not be pulled in at module-import time.
        from repro.cbir.similarity import make_distance

        self._distance: "DistanceFunction" = make_distance(metric)
        self.metric = str(metric)
        self._vectors: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ info
    @property
    def is_exact(self) -> bool:
        """Whether this backend's ranking is guaranteed exact (no recall loss).

        Backends whose configuration makes them exhaustive override this
        (brute force and KD-tree always; LSH at ``num_bits=0``; IVF at
        ``n_probe >= n_clusters``).  Callers that *define* their result as
        the exact ranking (e.g. the Euclidean baseline's batch path) use
        this to fall back to a dense scan rather than silently serve
        approximate neighbours.
        """
        return False

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has been called."""
        return self._vectors is not None

    @property
    def needs_rebuild(self) -> bool:
        """Whether a deferred re-index is pending (drained by :meth:`refresh`).

        ``False`` for every backend that folds :meth:`add` in eagerly; the
        KD-tree overrides this (it defers its rebuild to the next search).
        Callers serving concurrent searches should check this before a
        serving wave and call :meth:`refresh` under their write lock, so the
        rebuild never races read-only queries.
        """
        return False

    def refresh(self) -> None:
        """Drain any deferred maintenance (no-op unless a backend defers).

        Safe to call at any time on a built index; after it returns,
        :attr:`needs_rebuild` is ``False`` and subsequent searches are pure
        reads.  Backends with deferred work (KD-tree) override this.
        """

    @property
    def size(self) -> int:
        """Number of indexed vectors."""
        return 0 if self._vectors is None else int(self._vectors.shape[0])

    @property
    def dim(self) -> int:
        """Dimensionality of the indexed vectors."""
        if self._vectors is None:
            raise ValidationError(f"{self.kind} index has not been built yet")
        return int(self._vectors.shape[1])

    @property
    def vectors(self) -> np.ndarray:
        """The indexed ``(N, D)`` matrix (read-only view for callers)."""
        if self._vectors is None:
            raise ValidationError(f"{self.kind} index has not been built yet")
        return self._vectors

    def ensure_covers(self, vectors: np.ndarray, *, error_cls: type = ValidationError) -> None:
        """Raise *error_cls* unless this built index indexes exactly *vectors*.

        The single definition of index/feature-store consistency: shape must
        match and the indexed vectors must be the same bytes — an index of
        the right shape built over *different* vectors (stale save file,
        re-rendered corpus, changed normalisation) would silently serve
        wrong neighbours.
        """
        if not self.is_built:
            raise error_cls(f"cannot use an unbuilt {self.kind} index")
        target = np.asarray(vectors)
        if self.size != target.shape[0] or self.dim != target.shape[1]:
            raise error_cls(
                f"index covers {self.size}x{self.dim} vectors but the target "
                f"holds {target.shape[0]}x{target.shape[1]}"
            )
        if not np.array_equal(self._vectors, target):
            raise error_cls(
                "index was built over different vectors than the target's "
                "features (stale or foreign index)"
            )

    # ------------------------------------------------------------- lifecycle
    def build(self, vectors: np.ndarray) -> "VectorIndex":
        """Index *vectors* (rows), replacing any previous contents.

        A mutator: exclude concurrent searches while it runs (see the
        module's thread-safety notes).

        Parameters
        ----------
        vectors:
            Non-empty ``(N, D)`` matrix of finite values; copied, so later
            mutation of the caller's array cannot corrupt the index.

        Returns
        -------
        VectorIndex
            ``self``, for chaining.

        Raises
        ------
        ValidationError
            If *vectors* is empty, not 2-D, or contains non-finite values.
        """
        matrix = self._validate_matrix(vectors)
        if matrix.shape[0] == 0:
            raise ValidationError("cannot build an index over zero vectors")
        self._vectors = matrix.copy()
        self._build(self._vectors)
        return self

    def add(self, vectors: np.ndarray) -> "VectorIndex":
        """Append *vectors* to the index (database indices continue upward).

        A mutator: exclude concurrent searches while it runs.  Backends may
        defer the actual re-index (see :attr:`needs_rebuild`).

        Parameters
        ----------
        vectors:
            ``(M, D)`` matrix with the index's dimensionality; builds the
            index outright when called before :meth:`build`.

        Returns
        -------
        VectorIndex
            ``self``, for chaining.

        Raises
        ------
        ValidationError
            If the dimensionality differs from the indexed vectors or the
            values are malformed.
        """
        if self._vectors is None:
            return self.build(vectors)
        matrix = self._validate_matrix(vectors)
        if matrix.shape[1] != self.dim:
            raise ValidationError(
                f"added vectors have dimension {matrix.shape[1]}, index uses {self.dim}"
            )
        start = self.size
        self._vectors = np.vstack([self._vectors, matrix])
        self._add(self._vectors[start:], start)
        return self

    # ---------------------------------------------------------------- search
    def search(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Nearest *k* indexed vectors for each query row.

        Parameters
        ----------
        queries:
            One query vector or a ``(Q, D)`` batch.
        k:
            Number of neighbours per query; must not exceed :attr:`size`.

        Returns
        -------
        (distances, indices):
            ``(Q, k)`` arrays; row *q* lists the neighbours of query *q* by
            increasing distance (ties by ascending database index).

        Raises
        ------
        ValidationError
            If the index is unbuilt, the queries are malformed, or *k* is
            out of ``[1, size]``.

        Notes
        -----
        Read-only and safe to call from any number of threads concurrently
        on a built index (drain :attr:`needs_rebuild` first via
        :meth:`refresh` when serving the KD-tree backend in parallel).
        """
        if self._vectors is None:
            raise ValidationError(f"{self.kind} index has not been built yet")
        matrix = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if matrix.ndim != 2:
            raise ValidationError(f"queries must be 1-D or 2-D, got ndim={matrix.ndim}")
        if matrix.shape[1] != self.dim:
            raise ValidationError(
                f"queries have dimension {matrix.shape[1]}, index uses {self.dim}"
            )
        k = int(k)
        if not 1 <= k <= self.size:
            raise ValidationError(f"k must be in [1, {self.size}], got {k}")
        hub = get_hub()
        if not hub.enabled:
            return self._search(matrix, k)
        with hub.span(
            "index.search", kind=self.kind, queries=int(matrix.shape[0]), k=k
        ) as span:
            result = self._search(matrix, k)
        hub.count("index.queries", matrix.shape[0])
        hub.observe("index.search_seconds", span.duration)
        return result

    def batch_search(
        self, queries: np.ndarray, k: int, *, chunk_size: int = 1024
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Memory-bounded :meth:`search` over an arbitrarily large query set.

        Parameters
        ----------
        queries:
            ``(Q, D)`` query matrix (any ``Q``, including huge).
        k:
            Neighbours per query, as in :meth:`search`.
        chunk_size:
            Queries served per internal :meth:`search` call, bounding the
            intermediate distance blocks.

        Returns
        -------
        (distances, indices):
            ``(Q, k)`` arrays, identical to one unchunked :meth:`search`.

        Raises
        ------
        ValidationError
            If ``chunk_size < 1`` or :meth:`search` rejects the queries.

        Notes
        -----
        **Determinism across backends.**  Chunking never changes results —
        each query's neighbours depend only on that query — and every
        backend resolves distance ties by ascending database index (the
        exact re-rank's ``lexsort``, bit-for-bit the stable ``argsort``
        rule).  Exhaustively-configured backends (brute force, KD-tree,
        IVF at ``n_probe >= n_clusters``, LSH at ``num_bits=0``; see
        :attr:`is_exact`) therefore return **identical** ``indices``
        arrays for the same queries; reported *distances* agree only up to
        floating-point roundoff (backends accumulate them differently).
        Consumers needing backend-invariant derived artifacts key off the
        indices alone — e.g.
        :class:`repro.graph.builder.KNNGraphBuilder` recomputes edge
        distances from the features so its affinity graphs are
        bit-identical regardless of the backend that built them
        (property-tested in ``tests/test_index.py``).
        """
        if chunk_size < 1:
            raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")
        matrix = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if matrix.shape[0] == 0:
            return self.search(matrix, k)
        distances: List[np.ndarray] = []
        indices: List[np.ndarray] = []
        for start in range(0, matrix.shape[0], chunk_size):
            block_d, block_i = self.search(matrix[start : start + chunk_size], k)
            distances.append(block_d)
            indices.append(block_i)
        return np.vstack(distances), np.vstack(indices)

    # ----------------------------------------------------------- persistence
    def save(self, path: PathLike) -> Path:
        """Serialise the index to a single ``.npz`` bundle at *path*.

        Parameters
        ----------
        path:
            Destination file (``.npz`` appended when missing); written
            atomically via :func:`repro.utils.io.save_array_bundle`.

        Returns
        -------
        Path
            The path actually written.

        Raises
        ------
        ValidationError
            If the index has not been built.
        """
        if self._vectors is None:
            raise ValidationError(f"cannot save an unbuilt {self.kind} index")
        meta = {"kind": self.kind, "metric": self.metric, "params": self._params()}
        bundle: Dict[str, np.ndarray] = {
            "__meta__": np.array(json.dumps(meta)),
            "vectors": self._vectors,
        }
        bundle.update(self._state())
        return save_array_bundle(bundle, path)

    @staticmethod
    def load(path: PathLike) -> "VectorIndex":
        """Reconstruct an index saved by :meth:`save` (any backend).

        Parameters
        ----------
        path:
            A bundle previously written by :meth:`save`.

        Returns
        -------
        VectorIndex
            A fresh, fully-built index of the serialised backend and
            parameters.

        Raises
        ------
        ValidationError
            If *path* is not a serialised :class:`VectorIndex` bundle.
        """
        from repro.index.registry import make_index

        bundle = load_array_bundle(path)
        try:
            meta = json.loads(bundle.pop("__meta__").item())
        except KeyError:
            raise ValidationError(f"{path} is not a serialised VectorIndex") from None
        index = make_index(meta["kind"], metric=meta["metric"], **meta["params"])
        index._restore(bundle)
        return index

    # ------------------------------------------------------- backend hooks
    @abc.abstractmethod
    def _build(self, vectors: np.ndarray) -> None:
        """Construct the backend's acceleration structure over *vectors*."""

    def _add(self, new_vectors: np.ndarray, start_index: int) -> None:
        """Fold freshly-appended vectors in; the default rebuilds from scratch."""
        self._build(self._vectors)

    def _candidates(self, queries: np.ndarray) -> Optional[List[np.ndarray]]:
        """Per-query candidate sets (ascending indices), ``None`` = scan all."""
        return None

    def _search(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Default search: candidate generation + exact re-rank."""
        candidate_lists = self._candidates(queries)
        if candidate_lists is None:
            return self._full_scan(queries, k)
        num_queries = queries.shape[0]
        distances = np.empty((num_queries, k), dtype=np.float64)
        indices = np.empty((num_queries, k), dtype=np.int64)
        scanned = 0
        fallbacks = 0
        for row, candidates in enumerate(candidate_lists):
            if candidates is None or candidates.shape[0] < k:
                # Exact fallback: too few candidates to honour k.
                fallbacks += 1
                block_d, block_i = self._full_scan(queries[row : row + 1], k)
                distances[row] = block_d[0]
                indices[row] = block_i[0]
                continue
            scanned += int(candidates.shape[0])
            distances[row], indices[row] = self._rerank(queries[row], candidates, k)
        hub = get_hub()
        hub.count("index.candidates_scanned", scanned)
        if fallbacks:
            hub.count("index.candidate_fallbacks", fallbacks)
        return distances, indices

    # ------------------------------------------------------------ shared bits
    def _rerank(
        self, query: np.ndarray, candidates: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact distances over *candidates*, k smallest by (distance, index)."""
        dist = self._distance(query[None, :], self._vectors[candidates])[0]
        order = np.lexsort((candidates, dist))[:k]
        return dist[order], candidates[order]

    def _full_scan(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Exact top-k by scanning every indexed vector (query-blocked).

        Each row's k nearest come from
        :func:`~repro.utils.arrays.stable_top_k`, so the output — including
        the (distance, ascending index) tie rule — is bit-for-bit what the
        stable full ``argsort`` produces.
        """
        num_queries = queries.shape[0]
        hub = get_hub()
        hub.count("index.full_scan_queries", num_queries)
        hub.count("index.candidates_scanned", num_queries * self.size)
        distances = np.empty((num_queries, k), dtype=np.float64)
        indices = np.empty((num_queries, k), dtype=np.int64)
        for start in range(0, num_queries, _QUERY_BLOCK):
            block = queries[start : start + _QUERY_BLOCK]
            dist = self._distance(block, self._vectors)
            for row in range(block.shape[0]):
                nearest = stable_top_k(dist[row], k)
                indices[start + row] = nearest
                distances[start + row] = dist[row, nearest]
        return distances, indices

    @staticmethod
    def _validate_matrix(vectors: np.ndarray) -> np.ndarray:
        matrix = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if matrix.ndim != 2:
            raise ValidationError(f"vectors must form a 2-D matrix, got ndim={matrix.ndim}")
        if not np.all(np.isfinite(matrix)):
            raise ValidationError("vectors must be finite")
        return matrix

    # ------------------------------------------------- persistence hooks
    def _params(self) -> Dict[str, object]:
        """JSON-serialisable constructor parameters (beyond ``metric``)."""
        return {}

    def _state(self) -> Dict[str, np.ndarray]:
        """Extra arrays to persist beyond the raw vectors."""
        return {}

    def _restore(self, bundle: Dict[str, np.ndarray]) -> None:
        """Rebuild from a loaded bundle; the default re-indexes the vectors."""
        self._vectors = np.asarray(bundle["vectors"], dtype=np.float64)
        self._build(self._vectors)
