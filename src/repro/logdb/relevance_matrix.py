"""The sparse relevance matrix ``R`` (Section 2 of the paper).

``R`` has one row per log session and one column per image.  Entry
``R[j, i]`` is +1 when image ``i`` was marked relevant in session ``j``,
−1 when marked irrelevant, and 0 when it was not shown.  The column ``r_i``
is the *user log vector* of image ``i`` — the second modality fed to the
coupled SVM.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
from scipy import sparse

from repro.exceptions import LogDatabaseError
from repro.logdb.session import LogSession

__all__ = ["RelevanceMatrix"]


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
    def density(self) -> float:
        """Fraction of matrix entries that carry a judgement."""
        total = self.num_sessions * self.num_images
        return self.nnz / total if total else 0.0

    @property
    def num_positive(self) -> int:
        """Number of +1 (relevant) judgements stored in the matrix."""
        return int((self._matrix.data > 0).sum())

    @property
    def num_negative(self) -> int:
        """Number of −1 (irrelevant) judgements stored in the matrix."""
        return int((self._matrix.data < 0).sum())

    # ---------------------------------------------------------------- queries
    def log_vector(self, image_index: int) -> np.ndarray:
        """Dense user-log vector ``r_i`` (length = number of sessions)."""
        if not 0 <= image_index < self.num_images:
            raise LogDatabaseError(
                f"image_index must be in [0, {self.num_images}), got {image_index}"
            )
        return np.asarray(self._matrix[:, image_index].todense()).ravel()

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

    def session_row(self, session_index: int) -> np.ndarray:
        """Dense row of judgements recorded by session *session_index*."""
        if not 0 <= session_index < self.num_sessions:
            raise LogDatabaseError(
                f"session_index must be in [0, {self.num_sessions}), got {session_index}"
            )
        return np.asarray(self._matrix[session_index].todense()).ravel()

    def toarray(self) -> np.ndarray:
        """Full dense ``(num_sessions, num_images)`` matrix."""
        return np.asarray(self._matrix.todense())

    def tocsr(self) -> sparse.csr_matrix:
        """The underlying CSR matrix (a copy)."""
        return self._matrix.copy()

    # ------------------------------------------------------- immutable growth
    def append_session(self, session: LogSession) -> "RelevanceMatrix":
        """Return a new matrix with *session* appended as the last row."""
        return self.append_sessions([session])

    def append_sessions(
        self, sessions: Sequence[LogSession]
    ) -> "RelevanceMatrix":
        """Return a new matrix with *sessions* appended as the last rows.

        This is the incremental-maintenance primitive of the log façade:
        growing an ``n``-session matrix by a batch of ``k`` sessions costs
        one CSR block build plus one ``vstack`` — O(nnz) of raw memory
        copies — instead of re-walking all ``n + k`` sessions in Python.
        The result is **bit-identical** to
        :meth:`from_sessions` over the concatenated session sequence (both
        produce canonical CSR: rows in order, columns sorted, no
        duplicates), which the log-append benchmark asserts.

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
