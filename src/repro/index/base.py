"""The :class:`VectorIndex` interface shared by every ANN backend.

A vector index answers *k*-nearest-neighbour queries over a feature matrix
fixed at :meth:`VectorIndex.build` time.  Backends differ only in **how**
much of the database they scan — the final ordering always comes from
*exact* distances under the index metric, with ties broken by ascending
database index.  The exact scan is :func:`repro.utils.arrays.exact_top_k`,
the same routine the dense path of :class:`repro.cbir.search.SearchEngine`
ranks with, so an exhaustively-configured approximate backend reproduces
the exact ranking bit-for-bit (the property the test-suite asserts).  A
Euclidean index computes its vectors' squared norms once, when the vectors
are fixed (build or load), and every scan reuses them.

Whenever a backend cannot supply at least *k* candidates for a query it
falls back to the exact full scan for that query, so ``search`` always
returns exactly *k* valid neighbours.

Thread safety
-------------
A **built** index is safely shareable read-only: :meth:`VectorIndex.search`
/ :meth:`VectorIndex.batch_search` touch only immutable arrays, so any
number of threads may query one index concurrently.  The mutators —
:meth:`VectorIndex.build` and :meth:`VectorIndex.load` — are *not*
internally synchronised and need external exclusion against concurrent
searches (the retrieval service serves an index built and attached before
it starts).
"""

from __future__ import annotations

import abc
import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import ValidationError
from repro.obs import get_hub
from repro.utils.arrays import exact_top_k, squared_norms
from repro.utils.io import load_array_bundle, save_array_bundle

if TYPE_CHECKING:  # pragma: no cover - runtime import is lazy (cycle guard)
    from repro.cbir.similarity import DistanceFunction

__all__ = ["VectorIndex"]

PathLike = Union[str, Path]


class VectorIndex(abc.ABC):
    """Common interface of the brute-force and IVF backends.

    Lifecycle: ``build(vectors)`` once, then any number of ``search`` /
    ``batch_search`` calls.  ``save``/``load`` round-trip the index through
    a single ``.npz`` bundle.

    Parameters
    ----------
    metric:
        Distance under which neighbours are ranked (``euclidean``,
        ``manhattan`` or ``cosine``).
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
        self._sq_norms: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ info
    @property
    def is_exact(self) -> bool:
        """Whether this backend's ranking is guaranteed exact (no recall loss).

        Backends whose configuration makes them exhaustive override this
        (brute force always; IVF at ``n_probe >= n_clusters``).  Callers
        that *define* their result as the exact ranking (e.g. the Euclidean
        baseline's batch path) use this to fall back to a dense scan rather
        than silently serve approximate neighbours.
        """
        return False

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has been called."""
        return self._vectors is not None

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
        self._fix_vectors(matrix.copy())
        self._build(self._vectors)
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
            If the index is unbuilt, the queries are malformed or not
            finite, or *k* is out of ``[1, size]``.

        Notes
        -----
        Read-only and safe to call from any number of threads concurrently
        on a built index.
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
        if not np.all(np.isfinite(matrix)):
            raise ValidationError("queries must be finite")
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
        backend resolves distance ties by ascending database index
        (bit-for-bit the stable ``argsort`` rule).  Exhaustively-configured
        backends (brute force, IVF at ``n_probe >= n_clusters``; see
        :attr:`is_exact`) therefore return **identical** ``indices`` arrays
        for the same queries; reported
        *distances* agree only up to floating-point roundoff (backends
        accumulate them differently).
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
            If *path* is not a serialised :class:`VectorIndex` bundle, its
            metadata is not a JSON object with ``kind``, ``metric`` and
            ``params``, it names a backend (or parameters) this library does
            not provide, or it lacks an array the backend restores from.
        """
        from repro.index.registry import make_index

        bundle = load_array_bundle(path)
        try:
            meta = json.loads(bundle.pop("__meta__").item())
            kind, metric, params = meta["kind"], meta["metric"], meta["params"]
        except (KeyError, TypeError, ValueError):
            raise ValidationError(f"{path} is not a serialised VectorIndex") from None
        try:
            index = make_index(kind, metric=metric, **params)
        except TypeError as error:
            raise ValidationError(
                f"{path} records {kind} parameters this library does not "
                f"accept: {error}"
            ) from None
        try:
            index._restore(bundle)
        except KeyError as error:
            raise ValidationError(f"{path} lacks the {kind} array {error}") from None
        return index

    # ------------------------------------------------------- backend hooks
    @abc.abstractmethod
    def _build(self, vectors: np.ndarray) -> None:
        """Construct the backend's acceleration structure over *vectors*."""

    def _search(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Backend search hook; the default is the exact full scan."""
        return self._full_scan(queries, k)

    # ------------------------------------------------------------ shared bits
    def _full_scan(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Exact top-k over every indexed vector: :func:`exact_top_k`."""
        hub = get_hub()
        hub.count("index.full_scan_queries", queries.shape[0])
        hub.count("index.candidates_scanned", queries.shape[0] * self.size)
        return exact_top_k(
            queries, self._vectors, k, self._distance, vectors_sq=self._sq_norms
        )

    def _fix_vectors(self, vectors: np.ndarray) -> None:
        """Adopt *vectors* as the index contents, with their norms if Euclidean."""
        self._vectors = vectors
        self._sq_norms = squared_norms(vectors) if self.metric == "euclidean" else None

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
        self._fix_vectors(np.asarray(bundle["vectors"], dtype=np.float64))
        self._build(self._vectors)
