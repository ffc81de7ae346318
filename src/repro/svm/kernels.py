"""The two Mercer kernels of the paper's SVMs.

The visual SVM uses the Gaussian RBF kernel and the log SVM the linear one
(its primal scores ``u . r``, Section 4).  Both operate on ``(N, D)`` row
matrices and return an ``(N, M)`` Gram matrix; :func:`build_kernel` makes
one from its name.  The RBF kernel supports the ``"scale"`` gamma
convention (``1 / (D * var(X))``) so default settings behave sensibly for
the 36-d visual features and for the high-dimensional, sparse log vectors
alike.

**Sparse left operand.**  ``kernel(a, b)`` accepts a scipy-sparse *a* (the
rows being scored, e.g. the whole pool's log vectors,
:meth:`~repro.logdb.relevance_matrix.LogSnapshot.log_rows`) against dense *b*
(the support vectors).  Every kernel here is a function of ``a @ b.T`` and
the row norms, which a sparse matrix supplies in ``O(nnz x M)``; the result
is always a dense ``ndarray``.  Log entries are −1/0/+1, so those dot
products and squared norms are small integers — exact in any summation
order — and the sparse evaluation is bit-identical to the dense one.  The
default log SVM is linear and does not reach this path when it scores the
pool: :class:`~repro.svm.model.SVMModel` scores a linear model by its
primal weight, ``O(nnz)`` in all, with no kernel call.

**Row norms passed in.**  ``kernel(a, b, a_sq=...)`` takes the squared row
norms of *a* when the caller already holds them (the pool's, cached by
:class:`~repro.cbir.database.ImageDatabase`); only the RBF kernel reads
them, the linear kernel ignores the argument.  Full-pool scoring never calls a
kernel on the whole pool at once: :meth:`SVMModel.decision_function
<repro.svm.model.SVMModel.decision_function>` evaluates it block by block.
"""

from __future__ import annotations

import abc
import math
from numbers import Real
from typing import Optional, Union

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.arrays import as_row_matrix, pairwise_squared_distances

__all__ = ["Kernel", "LinearKernel", "RBFKernel", "build_kernel"]


def _row_products(a, b: np.ndarray) -> np.ndarray:
    """Dense ``a @ b.T`` for dense or scipy-sparse rows *a* and dense *b*."""
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    return as_row_matrix(a) @ b.T


class Kernel(abc.ABC):
    """Abstract Mercer kernel ``k(x, y)`` evaluated on row matrices."""

    #: Registry-friendly kernel name.
    name: str = "kernel"

    @abc.abstractmethod
    def __call__(
        self, a, b: np.ndarray, *, a_sq: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Gram matrix between the rows of *a* (dense or sparse) and of *b*.

        *a_sq* optionally carries the squared row norms of *a*
        (``np.sum(a * a, axis=1)``) for kernels that are functions of the
        distance; it never changes the result.  Subclasses must accept it —
        :meth:`SVMModel.decision_function
        <repro.svm.model.SVMModel.decision_function>` always passes it.
        """

    def gram(self, x: np.ndarray) -> np.ndarray:
        """Symmetric Gram matrix of *x* with itself."""
        return self(x, x)

    def fit(self, x: np.ndarray) -> "Kernel":
        """Resolve data-dependent hyper-parameters (e.g. ``gamma='scale'``)."""
        return self


class LinearKernel(Kernel):
    """The linear kernel ``k(x, y) = x . y``."""

    name = "linear"

    def __call__(
        self, a, b: np.ndarray, *, a_sq: Optional[np.ndarray] = None
    ) -> np.ndarray:
        return _row_products(a, b)


class RBFKernel(Kernel):
    """The Gaussian RBF kernel ``k(x, y) = exp(-gamma |x - y|^2)``.

    Evaluated as ``exp`` of the scaled
    :func:`~repro.utils.arrays.pairwise_squared_distances`, in place on that
    one ``(len(a), len(b))`` buffer; ``a_sq`` (the squared row norms of *a*)
    is forwarded to it.

    Parameters
    ----------
    gamma:
        A positive, finite real number, or ``"scale"`` to use
        ``1 / (D * var(X))`` resolved at :meth:`fit` time (the scikit-learn
        convention).  Anything else — NaN, ``inf``, a ``bool``, another
        string — raises :class:`~repro.exceptions.ValidationError`.
    """

    name = "rbf"

    def __init__(self, gamma: Union[float, str] = "scale") -> None:
        if isinstance(gamma, str):
            valid = gamma == "scale"
        else:
            valid = isinstance(gamma, Real) and not isinstance(gamma, bool) and 0 < gamma < math.inf
        if not valid:
            raise ValidationError(
                f"gamma must be 'scale' or a positive finite number, got {gamma!r}"
            )
        self.gamma = gamma
        self.gamma_: Optional[float] = None if isinstance(gamma, str) else float(gamma)

    def fit(self, x: np.ndarray) -> "RBFKernel":
        if isinstance(self.gamma, str):
            matrix = np.atleast_2d(np.asarray(x, dtype=np.float64))
            num_features = matrix.shape[1]
            variance = float(matrix.var())
            self.gamma_ = 1.0 / (num_features * variance) if variance > 1e-12 else 1.0 / num_features
        return self

    def _resolved_gamma(self) -> float:
        if self.gamma_ is None:
            raise ValidationError(
                "RBFKernel with gamma='scale' must be fitted before evaluation"
            )
        return self.gamma_

    def __call__(
        self, a, b: np.ndarray, *, a_sq: Optional[np.ndarray] = None
    ) -> np.ndarray:
        gamma = self._resolved_gamma()
        # The distance matrix is a fresh temporary: scale and exponentiate
        # it in place instead of allocating two more of its size.
        values = pairwise_squared_distances(a, b, a_sq=a_sq)
        values *= -gamma
        return np.exp(values, out=values)

def build_kernel(kernel: Union[str, Kernel], *, gamma: Union[float, str] = "scale") -> Kernel:
    """Build a kernel from its name, ``"rbf"`` or ``"linear"``, or pass a
    :class:`Kernel` instance through.

    *gamma* is the RBF bandwidth (see :class:`RBFKernel`); the linear
    kernel has none.  Any other name raises
    :class:`~repro.exceptions.ValidationError`.
    """
    if isinstance(kernel, Kernel):
        return kernel
    if kernel == "rbf":
        return RBFKernel(gamma)
    if kernel == "linear":
        return LinearKernel()
    raise ValidationError(f"unknown kernel {kernel!r}, expected 'rbf' or 'linear'")
