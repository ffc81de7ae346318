"""The exact nearest-neighbour index, :class:`VectorIndex`.

A vector index answers *k*-nearest-neighbour queries over a feature matrix
fixed at :meth:`VectorIndex.build` time by scanning every indexed vector:
:func:`repro.utils.arrays.exact_top_k` under the index metric, ties broken
by ascending database index — the same routine the dense path of
:class:`repro.cbir.search.SearchEngine` ranks with, so both paths return
the same neighbours.  A Euclidean index computes its vectors' squared
norms once, when the vectors are fixed (build or load), and every scan
reuses them.

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

import json
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import ValidationError
from repro.obs import get_hub
from repro.utils.arrays import exact_top_k, squared_norms
from repro.utils.io import load_array_bundle, save_array_bundle

if TYPE_CHECKING:  # pragma: no cover - runtime import is lazy (cycle guard)
    from repro.cbir.similarity import DistanceFunction

__all__ = ["VectorIndex"]

PathLike = Union[str, Path]


class VectorIndex:
    """Exact nearest-neighbour search by scanning the full database.

    Lifecycle: ``build(vectors)`` once, then any number of ``search`` /
    ``batch_search`` calls.  ``save``/``load`` round-trip the index through
    a single ``.npz`` bundle.

    Parameters
    ----------
    metric:
        Distance under which neighbours are ranked (``euclidean``,
        ``manhattan`` or ``cosine``).
    """

    #: The name :meth:`repro.cbir.database.ImageDatabase.build_index`
    #: accepts and a saved bundle records.
    kind: str = "brute-force"

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
            return self._scan(matrix, k)
        with hub.span("index.search", queries=int(matrix.shape[0]), k=k) as span:
            result = self._scan(matrix, k)
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
        Chunking never changes the neighbours — each query's depend only on
        that query, with distance ties broken by ascending database index
        (bit-for-bit the stable ``argsort`` rule).
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
        meta = {"kind": self.kind, "metric": self.metric, "params": {}}
        bundle = {"__meta__": np.array(json.dumps(meta)), "vectors": self._vectors}
        return save_array_bundle(bundle, path)

    @staticmethod
    def load(path: PathLike) -> "VectorIndex":
        """Reconstruct an index saved by :meth:`save`.

        Parameters
        ----------
        path:
            A bundle previously written by :meth:`save`.

        Returns
        -------
        VectorIndex
            A fresh, fully-built index of the serialised metric.

        Raises
        ------
        ValidationError
            If *path* is not a serialised :class:`VectorIndex` bundle, its
            metadata is not a JSON object with ``kind``, ``metric`` and
            ``params``, it names a backend other than ``brute-force`` or
            parameters this class does not take, or it lacks the
            ``vectors`` array.
        """
        bundle = load_array_bundle(path)
        try:
            meta = json.loads(bundle.pop("__meta__").item())
            kind, metric, params = meta["kind"], meta["metric"], meta["params"]
        except (KeyError, TypeError, ValueError):
            raise ValidationError(f"{path} is not a serialised VectorIndex") from None
        if kind != VectorIndex.kind:
            raise ValidationError(
                f"{path} names unknown index backend '{kind}'; only "
                f"'{VectorIndex.kind}' exists"
            )
        if params != {}:
            raise ValidationError(
                f"{path} records {kind} parameters this library does not "
                f"accept: {params!r}"
            )
        index = VectorIndex(metric=metric)
        try:
            vectors = bundle["vectors"]
        except KeyError as error:
            raise ValidationError(f"{path} lacks the {kind} array {error}") from None
        index._fix_vectors(np.asarray(vectors, dtype=np.float64))
        return index

    # ------------------------------------------------------------ internals
    def _scan(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Exact top-k over every indexed vector: :func:`exact_top_k`."""
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
