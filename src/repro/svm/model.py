"""The trained-SVM value object and the pool scoring it does."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.exceptions import ValidationError
from repro.svm.kernels import Kernel, LinearKernel
from repro.utils.arrays import as_row_matrix

__all__ = ["SVMModel", "PoolColumns"]

#: Kernel entries evaluated per block of :meth:`SVMModel.decision_function`
#: (1 MiB of float64): the ``(rows, n_SV)`` buffer the kernel builds, scales,
#: exponentiates and reduces stays cache-resident from its first write to
#: its last read, instead of streaming an ``(N, n_SV)`` matrix through
#: memory once per elementwise step.
_BLOCK_ENTRIES = 2**17

#: Multipliers above this are support vectors.
_SUPPORT_THRESHOLD = 1e-10


def _kernel_state(kernel: Kernel) -> tuple:
    """What a kernel's values depend on: its class and its attributes."""
    return type(kernel), dict(vars(kernel))


def _is_in_state(kernel: Kernel, state: tuple) -> bool:
    kind, attributes = state
    current = vars(kernel)
    return (
        type(kernel) is kind
        and current.keys() == attributes.keys()
        and all(np.array_equal(current[name], value) for name, value in attributes.items())
    )


class PoolColumns:
    """Kernel columns ``K(pool, rows)`` of one pool, held as row blocks.

    A coupled LRF-CSVM round scores its pool twice against the same
    labelled rows: the selection-stage visual SVM is trained on them, and
    the coupled visual SVM's training rows start with them.  Passed to both
    :meth:`SVMModel.decision_function` calls, this object computes the
    columns in the first and serves them to the second, which evaluates the
    kernel only on its other support vectors.  The blocks hold
    ``N x len(rows)`` float64 in at most ``_BLOCK_ENTRIES``-entry pieces
    until the object is dropped.

    The blocks are kept for the first pool and kernel that ask for them.  A
    call on another pool object, or with a kernel of another class or
    setting (an RBF ``gamma="scale"`` resolved on other rows), gets
    freshly computed blocks that are not kept.
    """

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        self.step = max(1, _BLOCK_ENTRIES // max(1, self.num_rows))
        self._held: Optional[tuple] = None  # (pool, kernel state, blocks)

    @property
    def num_rows(self) -> int:
        """Number of rows the columns are computed against."""
        return int(self.rows.shape[0])

    def blocks(
        self, kernel: Kernel, pool, pool_sq: Optional[np.ndarray] = None
    ) -> Iterator[Tuple[slice, np.ndarray]]:
        """``(row slice, K(pool[slice], rows))`` for every block of *pool*."""
        slices = [slice(start, start + self.step) for start in range(0, pool.shape[0], self.step)]
        if self._held is not None:
            held_pool, held_state, blocks = self._held
            if held_pool is pool and _is_in_state(kernel, held_state):
                yield from zip(slices, blocks)
                return
        keep, state, blocks = self._held is None, _kernel_state(kernel), []
        for rows in slices:
            block = kernel(pool[rows], self.rows, a_sq=None if pool_sq is None else pool_sq[rows])
            if keep:
                blocks.append(block)
            yield rows, block
        if keep:
            self._held = (pool, state, blocks)


@dataclass
class SVMModel:
    """A trained support-vector machine.

    The decision function is
    ``f(x) = sum_i alpha_i * y_i * k(sv_i, x) + bias``; with a linear
    kernel it is ``x . w + bias`` for the primal weight
    ``w = sum_i alpha_i * y_i * sv_i`` (:attr:`primal_weight`).

    Attributes
    ----------
    support_vectors:
        ``(S, D)`` matrix of support vectors (training rows with alpha > 0).
    dual_coef:
        ``(S,)`` vector of ``alpha_i * y_i`` for the support vectors.
    bias:
        The intercept ``b``.
    kernel:
        The (already fitted) kernel used during training.
    alphas:
        Full ``(N,)`` vector of Lagrange multipliers from training (optional,
        kept for diagnostics and tests).
    support:
        ``(S,)`` training-row index of each support vector (optional; needed
        only to score with :class:`PoolColumns`).
    """

    support_vectors: np.ndarray
    dual_coef: np.ndarray
    bias: float
    kernel: Kernel
    alphas: Optional[np.ndarray] = None
    support: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.support_vectors = np.atleast_2d(np.asarray(self.support_vectors, dtype=np.float64))
        self.dual_coef = np.asarray(self.dual_coef, dtype=np.float64).ravel()
        if self.support_vectors.shape[0] != self.dual_coef.shape[0]:
            raise ValidationError(
                "support_vectors and dual_coef must have the same number of rows "
                f"({self.support_vectors.shape[0]} vs {self.dual_coef.shape[0]})"
            )
        self.bias = float(self.bias)

    @classmethod
    def from_dual(
        cls,
        features: np.ndarray,
        labels: np.ndarray,
        alphas: np.ndarray,
        bias: float,
        kernel: Kernel,
    ) -> "SVMModel":
        """The model of a solved dual over the training rows *features*.

        With no multiplier above the threshold — degenerate but possible
        with extreme parameters, e.g. a nearly singular two-variable
        sub-problem yields vanishing updates — the model predicts from the
        bias alone.
        """
        support = np.flatnonzero(alphas > _SUPPORT_THRESHOLD)
        return cls(
            support_vectors=features[support],
            dual_coef=(alphas * labels)[support],
            bias=bias,
            kernel=kernel,
            alphas=alphas,
            support=support,
        )

    @property
    def num_support_vectors(self) -> int:
        """Number of support vectors retained by the model."""
        return int(self.support_vectors.shape[0])

    @cached_property
    def primal_weight(self) -> np.ndarray:
        """``w = sum_i alpha_i y_i sv_i``, for a model with a linear kernel."""
        return self.support_vectors.T @ self.dual_coef

    def decision_function(
        self,
        x,
        *,
        x_sq: Optional[np.ndarray] = None,
        columns: Optional[PoolColumns] = None,
    ) -> np.ndarray:
        """Signed distance-like score ``f(x)`` for each row of *x*.

        A model with a :class:`~repro.svm.kernels.LinearKernel` scores in
        its primal form, ``x @ primal_weight + bias``: one mat-vec, ``O(nnz)``
        on a scipy-sparse *x* (the pool's log vectors), and no kernel call.

        Any other kernel scores the rows in blocks of about
        ``_BLOCK_ENTRIES`` kernel entries: the kernel is called once per
        block and the block is reduced with ``@ dual_coef`` straight into
        the output, so no ``(len(x), n_SV)`` matrix is ever held and the
        kernel is evaluated on exactly ``len(x) * n_SV`` entries in total.
        *x* may be scipy-sparse; its row blocks reach the kernel sparse, see
        :mod:`repro.svm.kernels`.

        *columns* holds ``K(x, rows)`` for rows that are this model's
        leading training rows (see :class:`PoolColumns`; the model needs
        ``support``).  Each block is then reduced with one dot against the
        coefficients of all those rows, zero for the ones that are not
        support vectors, and the kernel is evaluated only on the support
        vectors after them.

        *x_sq* optionally carries the squared row norms of *x*
        (``np.sum(x * x, axis=1)``, e.g.
        :attr:`~repro.cbir.database.ImageDatabase.feature_sq_norms`) so the
        RBF kernel does not recompute them on every call; the scores are the
        same with and without it.
        """
        x = as_row_matrix(x)
        if sparse.issparse(x):
            x = x.tocsr()  # row blocks of any other layout are a full scan each
        count = x.shape[0]
        if x_sq is not None and x_sq.shape != (count,):
            raise ValidationError(
                f"x_sq must hold one squared norm per row ({count}), got shape {x_sq.shape}"
            )
        if self.num_support_vectors == 0:
            return np.full(count, self.bias)
        if type(self.kernel) is LinearKernel:
            scores = x @ self.primal_weight
            scores += self.bias
            return scores
        scores = np.empty(count)
        if columns is not None:
            self._score_with_columns(x, x_sq, columns, scores)
        else:
            step = max(1, _BLOCK_ENTRIES // self.num_support_vectors)
            for start in range(0, count, step):
                rows = slice(start, start + step)
                block = self.kernel(
                    x[rows], self.support_vectors, a_sq=None if x_sq is None else x_sq[rows]
                )
                np.dot(block, self.dual_coef, out=scores[rows])
        scores += self.bias
        return scores

    def _score_with_columns(
        self, x, x_sq: Optional[np.ndarray], columns: PoolColumns, scores: np.ndarray
    ) -> None:
        if self.support is None:
            raise ValidationError("scoring with held columns needs the model's support indices")
        held = self.support < columns.num_rows
        positions = self.support[held]
        if not np.array_equal(columns.rows[positions], self.support_vectors[held]):
            raise ValidationError("the held columns are not this model's leading training rows")
        held_coef = np.zeros(columns.num_rows)
        held_coef[positions] = self.dual_coef[held]
        other_vectors = self.support_vectors[~held]
        other_coef = self.dual_coef[~held]
        for rows, block in columns.blocks(self.kernel, x, x_sq):
            out = scores[rows]
            np.dot(block, held_coef, out=out)
            if other_coef.size:
                out += (
                    self.kernel(x[rows], other_vectors, a_sq=None if x_sq is None else x_sq[rows])
                    @ other_coef
                )

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted ±1 labels (ties broken towards +1)."""
        return np.where(self.decision_function(x) >= 0.0, 1.0, -1.0)
