"""The exact nearest-neighbour index, :class:`VectorIndex`.

A vector index answers *k*-nearest-neighbour queries over a feature matrix
fixed at :meth:`VectorIndex.build` time by scanning every indexed vector:
:func:`repro.utils.arrays.exact_top_k` by Euclidean distance, ties broken
by ascending database index — the same routine the dense path of
:class:`repro.cbir.search.SearchEngine` ranks with, so both paths return
the same neighbours.  The index computes its vectors' squared norms once,
at build time, and every scan reuses them.

Thread safety
-------------
A **built** index is safely shareable read-only:
:meth:`VectorIndex.batch_search` touches only immutable arrays, so any
number of threads may query one index concurrently.  The one mutator,
:meth:`VectorIndex.build`, is *not* internally synchronised and needs
external exclusion against concurrent searches (the retrieval service
serves an index built before it starts).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.obs import get_hub
from repro.utils.arrays import exact_top_k, squared_norms

__all__ = ["VectorIndex"]


class VectorIndex:
    """Exact nearest-neighbour search by scanning the full database.

    Neighbours are ranked by Euclidean distance, the paper's geometry.
    Lifecycle: ``build(vectors)`` once, then any number of
    ``batch_search`` calls.
    """

    #: The name :meth:`repro.cbir.database.ImageDatabase.build_index`
    #: accepts.
    kind: str = "brute-force"

    def __init__(self) -> None:
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
        matrix = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if matrix.ndim != 2:
            raise ValidationError(f"vectors must form a 2-D matrix, got ndim={matrix.ndim}")
        if not np.all(np.isfinite(matrix)):
            raise ValidationError("vectors must be finite")
        if matrix.shape[0] == 0:
            raise ValidationError("cannot build an index over zero vectors")
        self._vectors = matrix.copy()
        self._sq_norms = squared_norms(self._vectors)
        return self

    # ---------------------------------------------------------------- search
    def batch_search(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Nearest *k* indexed vectors for each query row.

        Parameters
        ----------
        queries:
            One query vector or a ``(Q, D)`` batch of any size:
            :func:`~repro.utils.arrays.exact_top_k` scans it
            ``_QUERY_BLOCK`` queries at a time, which bounds the
            intermediate distance blocks.
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

    # ------------------------------------------------------------ internals
    def _scan(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Exact top-k over every indexed vector: :func:`exact_top_k`."""
        return exact_top_k(queries, self._vectors, k, vectors_sq=self._sq_norms)
