"""The trained-SVM value object."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import ValidationError
from repro.svm.kernels import Kernel
from repro.utils.arrays import as_row_matrix

__all__ = ["SVMModel"]


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

    def decision_function(self, x) -> np.ndarray:
        """Signed distance-like score ``f(x)`` for each row of *x*.

        *x* may be a scipy-sparse row matrix (the pool's log vectors); it
        reaches the kernel as is, see :mod:`repro.svm.kernels`.
        """
        x = as_row_matrix(x)
        if self.num_support_vectors == 0:
            return np.full(x.shape[0], self.bias)
        gram = self.kernel(x, self.support_vectors)
        return gram @ self.dual_coef + self.bias

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted ±1 labels (ties broken towards +1)."""
        return np.where(self.decision_function(x) >= 0.0, 1.0, -1.0)
