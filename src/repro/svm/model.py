"""The trained-SVM value object."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from repro.exceptions import ValidationError
from repro.svm.kernels import Kernel
from repro.utils.arrays import as_row_matrix

__all__ = ["SVMModel"]

#: Kernel entries evaluated per block of :meth:`SVMModel.decision_function`
#: (1 MiB of float64): the ``(rows, n_SV)`` buffer the kernel builds, scales,
#: exponentiates and reduces stays cache-resident from its first write to
#: its last read, instead of streaming an ``(N, n_SV)`` matrix through
#: memory once per elementwise step.
_BLOCK_ENTRIES = 2**17


@dataclass
class SVMModel:
    """A trained support-vector machine.

    The decision function is
    ``f(x) = sum_i alpha_i * y_i * k(sv_i, x) + bias``.

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
    """

    support_vectors: np.ndarray
    dual_coef: np.ndarray
    bias: float
    kernel: Kernel
    alphas: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.support_vectors = np.atleast_2d(np.asarray(self.support_vectors, dtype=np.float64))
        self.dual_coef = np.asarray(self.dual_coef, dtype=np.float64).ravel()
        if self.support_vectors.shape[0] != self.dual_coef.shape[0]:
            raise ValidationError(
                "support_vectors and dual_coef must have the same number of rows "
                f"({self.support_vectors.shape[0]} vs {self.dual_coef.shape[0]})"
            )
        self.bias = float(self.bias)

    @property
    def num_support_vectors(self) -> int:
        """Number of support vectors retained by the model."""
        return int(self.support_vectors.shape[0])

    def decision_function(self, x, *, x_sq: Optional[np.ndarray] = None) -> np.ndarray:
        """Signed distance-like score ``f(x)`` for each row of *x*.

        The rows are scored in blocks of about ``_BLOCK_ENTRIES`` kernel
        entries: the kernel is called once per block and the block is
        reduced with ``@ dual_coef`` straight into the output, so no
        ``(len(x), n_SV)`` matrix is ever held and the kernel is evaluated
        on exactly ``len(x) * n_SV`` entries in total.

        *x* may be a scipy-sparse row matrix (the pool's log vectors); its
        row blocks reach the kernel sparse, see :mod:`repro.svm.kernels`.
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
        scores = np.empty(count)
        if self.num_support_vectors == 0:
            scores.fill(self.bias)
            return scores
        step = max(1, _BLOCK_ENTRIES // self.num_support_vectors)
        for start in range(0, count, step):
            rows = slice(start, start + step)
            block = self.kernel(
                x[rows], self.support_vectors, a_sq=None if x_sq is None else x_sq[rows]
            )
            np.dot(block, self.dual_coef, out=scores[rows])
        scores += self.bias
        return scores

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted ±1 labels (ties broken towards +1)."""
        return np.where(self.decision_function(x) >= 0.0, 1.0, -1.0)
