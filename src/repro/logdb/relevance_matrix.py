"""The sparse relevance matrix ``R`` (Section 2 of the paper).

``R`` has one row per log session and one column per image.  Entry
``R[j, i]`` is +1 when image ``i`` was marked relevant in session ``j``,
−1 when marked irrelevant, and 0 when it was not shown.  The column ``r_i``
is the *user log vector* of image ``i`` — the second modality fed to the
coupled SVM.  A :class:`LogSnapshot` is the immutable, versioned capture
of ``R`` that readers hold for a round.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Hashable, List, Sequence

import numpy as np
from scipy import sparse

from repro.exceptions import LogDatabaseError
from repro.logdb.session import LogSession

__all__ = ["RelevanceMatrix", "LogSnapshot"]


class RelevanceMatrix:
    """Sessions × images relevance matrix backed by scipy CSR storage."""

    def __init__(self, matrix: sparse.spmatrix, *, num_images: int) -> None:
        csr = sparse.csr_matrix(matrix, dtype=np.float64)
        if csr.shape[1] != num_images:
            raise LogDatabaseError(
                f"matrix has {csr.shape[1]} columns but num_images={num_images}"
            )
        self._matrix = csr
        self._num_images = int(num_images)

    # ------------------------------------------------------------ construction
    @classmethod
    def from_sessions(
        cls, sessions: Sequence[LogSession], *, num_images: int
    ) -> "RelevanceMatrix":
        """Build the matrix from an ordered sequence of log sessions."""
        if num_images < 1:
            raise LogDatabaseError(f"num_images must be >= 1, got {num_images}")
        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        for row_index, session in enumerate(sessions):
            indices, values = session.as_arrays()
            if indices.size and indices.max() >= num_images:
                raise LogDatabaseError(
                    f"session {row_index} references image {indices.max()} "
                    f"but the database only has {num_images} images"
                )
            rows.extend([row_index] * len(indices))
            cols.extend(indices.tolist())
            data.extend(values.astype(np.float64).tolist())
        matrix = sparse.csr_matrix(
            (data, (rows, cols)), shape=(len(sessions), num_images), dtype=np.float64
        )
        return cls(matrix, num_images=num_images)

    @classmethod
    def empty(cls, *, num_images: int) -> "RelevanceMatrix":
        """An empty matrix with zero sessions (cold-start log database)."""
        return cls(sparse.csr_matrix((0, num_images), dtype=np.float64), num_images=num_images)

    # ------------------------------------------------------------------ shape
    @property
    def num_sessions(self) -> int:
        """Number of log sessions (rows)."""
        return int(self._matrix.shape[0])

    @property
    def num_images(self) -> int:
        """Number of images (columns)."""
        return self._num_images

    @property
    def shape(self) -> tuple[int, int]:
        """``(num_sessions, num_images)``."""
        return (self.num_sessions, self.num_images)

    @property
    def nnz(self) -> int:
        """Number of stored (non-zero) judgements."""
        return int(self._matrix.nnz)

    @property
    def num_positive(self) -> int:
        """Number of +1 (relevant) judgements stored in the matrix."""
        return int((self._matrix.data > 0).sum())

    @property
    def num_negative(self) -> int:
        """Number of −1 (irrelevant) judgements stored in the matrix."""
        return int((self._matrix.data < 0).sum())

    # ---------------------------------------------------------------- queries
    def log_vectors(self, image_indices: Sequence[int]) -> np.ndarray:
        """Dense matrix of user-log vectors, one **row per image**.

        Returns an ``(len(image_indices), num_sessions)`` array, i.e. the
        transpose of ``R`` restricted to the requested columns — the layout
        the SVMs train on.  There is deliberately no all-images form: the
        whole of ``R`` stays sparse (:meth:`tocsr`); :meth:`toarray` is the
        one explicit way to densify a small matrix.
        """
        indices = np.asarray(image_indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_images):
            raise LogDatabaseError("image_indices out of range")
        submatrix = self._matrix[:, indices]
        return np.asarray(submatrix.todense()).T.copy()

    def toarray(self) -> np.ndarray:
        """Full dense ``(num_sessions, num_images)`` matrix."""
        return np.asarray(self._matrix.todense())

    def tocsr(self) -> sparse.csr_matrix:
        """The underlying CSR matrix (a copy)."""
        return self._matrix.copy()

    # ------------------------------------------------------- immutable growth
    def append_sessions(
        self, sessions: Sequence[LogSession]
    ) -> "RelevanceMatrix":
        """Return a new matrix with *sessions* appended as the last rows.

        This is the incremental-maintenance primitive of the log store:
        growing an ``n``-session matrix by a batch of ``k`` sessions costs
        one CSR block build plus one ``vstack`` — O(nnz) of raw memory
        copies — instead of re-walking all ``n + k`` sessions in Python.
        The result is **bit-identical** to
        :meth:`from_sessions` over the concatenated session sequence (both
        produce canonical CSR: rows in order, columns sorted, no
        duplicates), which ``tests/test_logdb.py`` checks.

        Parameters
        ----------
        sessions:
            The new rows, in append order.  An empty batch returns ``self``
            (matrices are immutable, so sharing is safe).
        """
        batch = list(sessions)
        if not batch:
            return self
        block = RelevanceMatrix.from_sessions(batch, num_images=self.num_images)
        stacked = sparse.vstack([self._matrix, block._matrix], format="csr")
        return RelevanceMatrix(stacked, num_images=self.num_images)


class LogSnapshot:
    """An immutable, versioned capture of the relevance matrix ``R``.

    A snapshot is what feedback strategies and the evaluation protocol
    consume: it guarantees every log read inside a round sees the same
    ``R`` — same number of sessions, same judgements — even while other
    sessions keep appending to the underlying store.
    :meth:`repro.logdb.store.LogStore.snapshot` hands out **one snapshot
    object per log version**, so everything derived from it (:meth:`log_rows`,
    :meth:`log_csr`, anything memoised through :meth:`derived`) is built
    once per version and shared by every round, session and client
    thread that reads that version.

    ``R`` stays sparse throughout: a session judges the ~20 images one
    round returned, so the matrix is a fraction of a percent dense and no
    accessor here ever allocates ``num_images x num_sessions`` floats.
    :meth:`log_vectors` returns the small dense block of the requested
    images only; full-pool consumers (the log SVM's decision function,
    the graph family's co-relevance kernel) read the sparse views.

    Attributes
    ----------
    version:
        Number of log sessions the snapshot contains.  Snapshots of the
        same store are totally ordered by ``version``; a later snapshot is
        always an extension of an earlier one (the log is append-only).
    matrix:
        The captured :class:`RelevanceMatrix` (immutable).

    Notes
    -----
    Thread-safe: derived views are built at most once under an internal
    lock and their buffers are marked read-only, so any number of rounds
    (on any number of client threads) may share one snapshot.
    """

    __slots__ = ("version", "matrix", "_derived", "_lock")

    def __init__(self, matrix: RelevanceMatrix) -> None:
        self.matrix = matrix
        self.version = int(matrix.num_sessions)
        self._derived: Dict[Hashable, Any] = {}
        # Re-entrant: a derived value may be built from another one.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ info
    @property
    def num_sessions(self) -> int:
        """Number of log sessions captured (== :attr:`version`)."""
        return self.version

    @property
    def num_images(self) -> int:
        """Number of images the log refers to."""
        return self.matrix.num_images

    @property
    def is_empty(self) -> bool:
        """Whether the snapshot contains no sessions (cold start)."""
        return self.version == 0

    # --------------------------------------------------------------- queries
    def log_vectors(self, image_indices: Sequence[int]) -> np.ndarray:
        """Dense user-log vectors (one **row per image**) of *image_indices*.

        The block a strategy trains on: the labelled images, the selected
        unlabeled ones.  It is sliced out of :meth:`log_rows`, so the cost
        is proportional to the judgements of the requested images, not to
        the pool.  Duplicate and unsorted indices are honoured as given.

        Returns
        -------
        numpy.ndarray
            A fresh, writable, C-contiguous
            ``(len(image_indices), num_sessions)`` array (zero columns on
            an empty log).

        Raises
        ------
        LogDatabaseError
            If an index is negative or not below :attr:`num_images`.
        """
        indices = np.asarray(image_indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_images):
            raise LogDatabaseError("image_indices out of range")
        return self.log_rows()[indices].toarray()

    def log_rows(self) -> sparse.csr_matrix:
        """The user-log vectors of **every** image as a shared sparse matrix.

        ``R`` transposed: row ``i`` is the log vector ``r_i``.  This is
        what full-pool log scoring consumes — the linear log SVM scores it
        by its primal weight in ``O(nnz)``, a non-linear kernel takes it as
        its left operand in ``O(nnz x n_SV)``.  Built at most once per
        snapshot.

        Returns
        -------
        scipy.sparse.csr_matrix
            Read-only ``(num_images, num_sessions)`` matrix.
        """
        return self.derived("log_rows", lambda: _frozen(self.matrix.tocsr().T.tocsr()))

    def log_csr(self) -> sparse.csr_matrix:
        """The captured ``R`` as a shared read-only CSR matrix.

        The sessions-major view — e.g. the graph family's log co-relevance
        kernel computes ``R^T R`` straight off it.  Built at most once per
        snapshot.

        Returns
        -------
        scipy.sparse.csr_matrix
            Read-only ``(num_sessions, num_images)`` matrix.
        """
        return self.derived("log_csr", lambda: _frozen(self.matrix.tocsr()))

    def derived(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """``build()``, computed at most once per snapshot under *key*.

        A snapshot never changes and is shared by every reader of its log
        version, so a value that is a pure function of it (and of whatever
        *key* names) can be computed by the first caller and reused until
        the log grows.  The graph family memoises its fused affinity
        matrix here.  Entries live exactly as long as the snapshot.

        Parameters
        ----------
        key:
            Hashable identity of the derived value; callers namespace their
            keys (``("graph.fused", ...)``) to stay out of each other's way.
        build:
            Zero-argument factory, called under the snapshot's lock (at
            most one build runs at a time) only when *key* is absent.  The
            result is shared between threads, so it must not be mutated.
        """
        try:
            return self._derived[key]
        except KeyError:
            pass
        with self._lock:
            if key not in self._derived:
                self._derived[key] = build()
            return self._derived[key]

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"LogSnapshot(version={self.version}, num_images={self.num_images})"
        )


def _frozen(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
    """*matrix* with its three CSR buffers marked read-only (it is shared)."""
    for buffer in (matrix.data, matrix.indices, matrix.indptr):
        buffer.setflags(write=False)
    return matrix
