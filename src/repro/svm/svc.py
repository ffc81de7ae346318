"""A scikit-learn-like SVC estimator on top of the SMO solver.

The estimator mirrors the familiar ``fit`` / ``decision_function`` /
``predict`` interface.  :meth:`SVC.fit` bounds every multiplier by ``C``,
builds the training Gram once, runs one SMO solve — warm-started from
``initial_alphas`` when the caller holds the multipliers of a previous,
similar solve — and adopts the result.  The coupled SVM does not fit
through it: :class:`~repro.core.coupled_svm.CoupledSVM` solves its duals
against its own per-sample bounds and cached Gram, and packages each
modality's last solve with :meth:`SVC.adopt`.

Fit-time work is counted in ``kernel_evaluations_`` (kernel-matrix entries
computed) and ``solver_iterations_`` (cumulative SMO pair updates).
"""

from __future__ import annotations

import math
import warnings
from typing import Optional, Union

import numpy as np

from repro.exceptions import SolverError, ValidationError
from repro.svm.kernels import Kernel, build_kernel
from repro.svm.model import PoolColumns, SVMModel
from repro.svm.smo import SMOResult, SMOSolver

__all__ = ["SVC"]


class SVC:
    """Soft-margin support-vector classifier.

    Parameters
    ----------
    C:
        Regularisation parameter (positive and finite): the upper bound of
        every multiplier.
    kernel:
        Kernel name (``"rbf"`` or ``"linear"``) or a
        :class:`~repro.svm.kernels.Kernel` instance.
    gamma:
        RBF bandwidth: ``"scale"`` or a positive finite number (see
        :class:`~repro.svm.kernels.RBFKernel`).
    tolerance, max_iter:
        Passed through to the :class:`~repro.svm.smo.SMOSolver`, which
        rejects a tolerance that is not positive and finite.
    """

    def __init__(
        self,
        *,
        C: float = 1.0,
        kernel: Union[str, Kernel] = "rbf",
        gamma: Union[float, str] = "scale",
        tolerance: float = 1e-3,
        max_iter: int = 20000,
    ) -> None:
        if not 0 < C < math.inf:
            raise ValidationError(f"C must be positive and finite, got {C}")
        self.C = float(C)
        self.kernel: Kernel = build_kernel(kernel, gamma=gamma)
        self.tolerance = float(tolerance)
        self.max_iter = int(max_iter)

        self.model_: Optional[SVMModel] = None
        self.result_: Optional[SMOResult] = None
        self.support_: Optional[np.ndarray] = None
        #: Kernel-matrix entries computed across all fits of this estimator.
        self.kernel_evaluations_ = 0
        #: SMO pair updates across all fits of this estimator.
        self.solver_iterations_ = 0

    # ------------------------------------------------------------------ API
    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has produced a model."""
        return self.model_ is not None

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        *,
        initial_alphas: Optional[np.ndarray] = None,
    ) -> "SVC":
        """Train the classifier.

        Parameters
        ----------
        features:
            ``(N, D)`` training matrix.
        labels:
            ``(N,)`` vector of ±1 labels.
        initial_alphas:
            Optional warm-start multipliers forwarded to
            :meth:`SMOSolver.solve`.
        """
        x = np.atleast_2d(np.asarray(features, dtype=np.float64))
        y = np.asarray(labels, dtype=np.float64).ravel()
        if x.shape[0] != y.shape[0]:
            raise ValidationError(
                f"features ({x.shape[0]}) and labels ({y.shape[0]}) must align"
            )
        bounds = np.full(y.shape[0], self.C)
        self.kernel = self.kernel.fit(x)
        gram = self.kernel.gram(x)
        self.kernel_evaluations_ += int(gram.size)

        solver = SMOSolver(tolerance=self.tolerance, max_iter=self.max_iter)
        result = solver.solve(gram, y, bounds, initial_alphas=initial_alphas)
        self.solver_iterations_ += result.iterations
        if not result.converged:
            warnings.warn(
                f"SMO solver hit max_iter={self.max_iter} before reaching the "
                f"KKT tolerance {self.tolerance}; the model may be inaccurate "
                "(raise max_iter or loosen tolerance)",
                RuntimeWarning,
                stacklevel=2,
            )

        return self.adopt(x, y, result)

    def adopt(self, features: np.ndarray, labels: np.ndarray, result: SMOResult) -> "SVC":
        """Take a dual already solved on ``(features, labels)`` as this fit.

        The model is built from *result* as it stands — its multipliers and
        bias — with ``self.kernel`` as the fitted kernel and no solve.
        :class:`~repro.core.coupled_svm.CoupledSVM` packages each modality's
        last solve this way.
        """
        self.model_ = SVMModel.from_dual(
            np.atleast_2d(np.asarray(features, dtype=np.float64)),
            np.asarray(labels, dtype=np.float64).ravel(),
            result.alphas,
            result.bias,
            self.kernel,
        )
        self.support_ = self.model_.support
        self.result_ = result
        return self

    def decision_function(
        self,
        features,
        *,
        squared_norms: Optional[np.ndarray] = None,
        columns: Optional[PoolColumns] = None,
    ) -> np.ndarray:
        """Signed decision values ``f(x)`` for each row of *features*.

        *features* may be scipy-sparse; *squared_norms* optionally carries
        its squared row norms and *columns* held kernel columns of the
        leading training rows — all as in :meth:`SVMModel.decision_function
        <repro.svm.model.SVMModel.decision_function>`.
        """
        self._check_fitted()
        return self.model_.decision_function(
            features, x_sq=squared_norms, columns=columns
        )

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted ±1 labels for each row of *features*."""
        self._check_fitted()
        return self.model_.predict(features)

    def score(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy on ``(features, labels)``."""
        predictions = self.predict(features)
        y = np.asarray(labels, dtype=np.float64).ravel()
        return float(np.mean(predictions == y))

    # ------------------------------------------------------------- internals
    def _check_fitted(self) -> None:
        if self.model_ is None:
            raise SolverError("SVC must be fitted before calling predict/decision_function")
