"""Mercer kernels for the SVM substrate.

All kernels operate on ``(N, D)`` row matrices and return an ``(N, M)`` Gram
matrix.  The RBF kernel supports the ``"scale"`` gamma convention
(``1 / (D * var(X))``) so default settings behave sensibly for the 36-d
visual features and for the high-dimensional, sparse log vectors alike.

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
them, the others ignore the argument.  Full-pool scoring never calls a
kernel on the whole pool at once: :meth:`SVMModel.decision_function
<repro.svm.model.SVMModel.decision_function>` evaluates it block by block.
"""

from __future__ import annotations

import abc
from typing import Optional, Union

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.arrays import as_row_matrix, pairwise_squared_distances

__all__ = [
    "Kernel",
    "LinearKernel",
    "RBFKernel",
    "PolynomialKernel",
    "make_kernel",
    "build_kernel",
]


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

    def diagonal(self, x: np.ndarray) -> np.ndarray:
        """Diagonal ``k(x_i, x_i)`` computed in batched kernel calls.

        Rows are evaluated in blocks so the temporary Gram stays bounded at
        ``block^2`` entries regardless of ``N`` (one call for typical sizes).
        Subclasses with a closed-form diagonal (linear, RBF, polynomial)
        override this to avoid the quadratic block evaluation entirely.
        """
        matrix = np.atleast_2d(np.asarray(x, dtype=np.float64))
        count = matrix.shape[0]
        block = 512
        if count <= block:
            return np.diag(self(matrix, matrix)).copy()
        out = np.empty(count)
        for start in range(0, count, block):
            stop = min(start + block, count)
            out[start:stop] = np.diag(self(matrix[start:stop], matrix[start:stop]))
        return out

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

    def diagonal(self, x: np.ndarray) -> np.ndarray:
        matrix = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return np.sum(matrix * matrix, axis=1)


class RBFKernel(Kernel):
    """The Gaussian RBF kernel ``k(x, y) = exp(-gamma |x - y|^2)``.

    Evaluated as ``exp`` of the scaled
    :func:`~repro.utils.arrays.pairwise_squared_distances`, in place on that
    one ``(len(a), len(b))`` buffer; ``a_sq`` (the squared row norms of *a*)
    is forwarded to it.

    Parameters
    ----------
    gamma:
        Positive float, or ``"scale"`` to use ``1 / (D * var(X))`` resolved at
        :meth:`fit` time (the scikit-learn convention), or ``"auto"`` for
        ``1 / D``.
    """

    name = "rbf"

    def __init__(self, gamma: Union[float, str] = "scale") -> None:
        if isinstance(gamma, str):
            if gamma not in ("scale", "auto"):
                raise ValidationError(f"gamma must be positive, 'scale' or 'auto', got {gamma!r}")
        elif gamma <= 0:
            raise ValidationError(f"gamma must be positive, got {gamma}")
        self.gamma = gamma
        self.gamma_: Optional[float] = gamma if isinstance(gamma, (int, float)) else None

    def fit(self, x: np.ndarray) -> "RBFKernel":
        matrix = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if isinstance(self.gamma, str):
            num_features = matrix.shape[1]
            if self.gamma == "scale":
                variance = float(matrix.var())
                self.gamma_ = 1.0 / (num_features * variance) if variance > 1e-12 else 1.0 / num_features
            else:  # "auto"
                self.gamma_ = 1.0 / num_features
        return self

    def _resolved_gamma(self) -> float:
        if self.gamma_ is None:
            raise ValidationError(
                "RBFKernel with gamma='scale'/'auto' must be fitted before evaluation"
            )
        return float(self.gamma_)

    def __call__(
        self, a, b: np.ndarray, *, a_sq: Optional[np.ndarray] = None
    ) -> np.ndarray:
        gamma = self._resolved_gamma()
        # The distance matrix is a fresh temporary: scale and exponentiate
        # it in place instead of allocating two more of its size.
        values = pairwise_squared_distances(a, b, a_sq=a_sq)
        values *= -gamma
        return np.exp(values, out=values)

    def diagonal(self, x: np.ndarray) -> np.ndarray:
        matrix = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return np.ones(matrix.shape[0])


class PolynomialKernel(Kernel):
    """The polynomial kernel ``k(x, y) = (gamma x . y + coef0) ** degree``."""

    name = "poly"

    def __init__(self, degree: int = 3, gamma: float = 1.0, coef0: float = 1.0) -> None:
        if degree < 1:
            raise ValidationError(f"degree must be >= 1, got {degree}")
        if gamma <= 0:
            raise ValidationError(f"gamma must be positive, got {gamma}")
        self.degree = int(degree)
        self.gamma = float(gamma)
        self.coef0 = float(coef0)

    def __call__(
        self, a, b: np.ndarray, *, a_sq: Optional[np.ndarray] = None
    ) -> np.ndarray:
        return (self.gamma * _row_products(a, b) + self.coef0) ** self.degree

    def diagonal(self, x: np.ndarray) -> np.ndarray:
        matrix = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return (self.gamma * np.sum(matrix * matrix, axis=1) + self.coef0) ** self.degree


def make_kernel(kernel: Union[str, Kernel], **kwargs) -> Kernel:
    """Build a kernel from a name (``"linear"``, ``"rbf"``, ``"poly"``) or pass through."""
    if isinstance(kernel, Kernel):
        return kernel
    if kernel == "linear":
        return LinearKernel()
    if kernel == "rbf":
        return RBFKernel(**kwargs)
    if kernel == "poly":
        return PolynomialKernel(**kwargs)
    raise ValidationError(f"unknown kernel '{kernel}', expected linear/rbf/poly")


def build_kernel(
    kernel: Union[str, Kernel],
    *,
    gamma: Union[float, str] = "scale",
    degree: int = 3,
    coef0: float = 1.0,
) -> Kernel:
    """Build a kernel, forwarding only the hyper-parameters it accepts.

    Unlike :func:`make_kernel`, this helper routes ``gamma`` to both the RBF
    and polynomial kernels (the polynomial kernel only accepts numeric
    ``gamma``; the ``"scale"``/``"auto"`` conventions are RBF-specific and
    fall back to the polynomial default of 1.0) and routes ``degree``/``coef0``
    to the polynomial kernel.  Estimators should use this instead of
    :func:`make_kernel` so hyper-parameters are never silently dropped.
    """
    if isinstance(kernel, Kernel):
        return kernel
    if kernel == "rbf":
        return make_kernel("rbf", gamma=gamma)
    if kernel == "poly":
        poly_gamma = 1.0 if isinstance(gamma, str) else float(gamma)
        return make_kernel("poly", degree=degree, gamma=poly_gamma, coef0=coef0)
    return make_kernel(kernel)
