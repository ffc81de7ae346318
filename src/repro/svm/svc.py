"""A scikit-learn-like SVC estimator on top of the SMO solver.

The estimator deliberately mirrors the familiar ``fit`` /
``decision_function`` / ``predict`` interface, but adds the capabilities the
coupled SVM needs:

* :meth:`fit` accepts *per-sample* upper bounds via the ``sample_weight``
  argument, so that labelled samples are bounded by ``C`` and unlabeled
  (transductive) samples by ``rho * C``;
* a ``precomputed_gram=`` fast path that skips kernel evaluation entirely
  (the coupled SVM computes each modality's Gram once per fit through
  :class:`repro.svm.gram_cache.GramCache` and re-solves against it);
* warm starts: ``initial_alphas=`` seeds the SMO solver with the multipliers
  of a previous, similar solve, and ``warm_start=True`` does so
  automatically from the estimator's own last fit.

Fit-time work is counted in ``kernel_evaluations_`` (kernel-matrix entries
computed) and ``solver_iterations_`` (cumulative SMO pair updates) so the
warm-started pipeline's savings are observable.
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
    """Support-vector classifier with per-sample box constraints.

    Parameters
    ----------
    C:
        Base regularisation parameter (positive and finite); per-sample
        bounds are ``C * sample_weight``.
    kernel:
        Kernel name (``"linear"``, ``"rbf"``, ``"poly"``) or a
        :class:`~repro.svm.kernels.Kernel` instance.
    gamma:
        Kernel bandwidth: a float, ``"scale"`` or ``"auto"``.  Forwarded to
        the RBF kernel, and — when numeric — to the polynomial kernel.
    degree, coef0:
        Polynomial-kernel hyper-parameters (ignored by other kernels).
    tolerance, max_iter:
        Passed through to the :class:`~repro.svm.smo.SMOSolver`, which
        rejects a tolerance that is not positive and finite.
    warm_start:
        When ``True``, successive :meth:`fit` calls on same-sized problems
        seed the solver with the previous solution's multipliers.
    """

    def __init__(
        self,
        *,
        C: float = 1.0,
        kernel: Union[str, Kernel] = "rbf",
        gamma: Union[float, str] = "scale",
        degree: int = 3,
        coef0: float = 1.0,
        tolerance: float = 1e-3,
        max_iter: int = 20000,
        warm_start: bool = False,
    ) -> None:
        if not 0 < C < math.inf:
            raise ValidationError(f"C must be positive and finite, got {C}")
        self.C = float(C)
        self.kernel: Kernel = build_kernel(kernel, gamma=gamma, degree=degree, coef0=coef0)
        self.tolerance = float(tolerance)
        self.max_iter = int(max_iter)
        self.warm_start = bool(warm_start)

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
        sample_weight: Optional[np.ndarray] = None,
        precomputed_gram: Optional[np.ndarray] = None,
        initial_alphas: Optional[np.ndarray] = None,
    ) -> "SVC":
        """Train the classifier.

        Parameters
        ----------
        features:
            ``(N, D)`` training matrix.
        labels:
            ``(N,)`` vector of ±1 labels.
        sample_weight:
            Optional ``(N,)`` positive, finite multipliers of ``C``; the
            effective upper bound for sample ``i`` is ``C * sample_weight[i]``.
        precomputed_gram:
            Optional ``(N, N)`` kernel matrix of *features* with itself.
            When given, no kernel evaluation happens at fit time; the caller
            is responsible for the matrix matching ``self.kernel`` (the
            kernel is still fitted on *features* so ``decision_function``
            works).
        initial_alphas:
            Optional warm-start multipliers forwarded to
            :meth:`SMOSolver.solve`.  When omitted and ``warm_start=True``,
            the previous fit's multipliers are used if the problem size
            matches.
        """
        x = np.atleast_2d(np.asarray(features, dtype=np.float64))
        y = np.asarray(labels, dtype=np.float64).ravel()
        if x.shape[0] != y.shape[0]:
            raise ValidationError(
                f"features ({x.shape[0]}) and labels ({y.shape[0]}) must align"
            )
        if sample_weight is None:
            bounds = np.full(y.shape[0], self.C)
        else:
            weights = np.asarray(sample_weight, dtype=np.float64).ravel()
            if weights.shape[0] != y.shape[0]:
                raise ValidationError(
                    f"sample_weight ({weights.shape[0]}) must align with labels ({y.shape[0]})"
                )
            if not ((weights > 0) & (weights < np.inf)).all():
                raise ValidationError(
                    "sample_weight entries must be finite and strictly positive"
                )
            bounds = self.C * weights

        self.kernel = self.kernel.fit(x)
        if precomputed_gram is not None:
            gram = np.asarray(precomputed_gram, dtype=np.float64)
            if gram.shape != (x.shape[0], x.shape[0]):
                raise ValidationError(
                    f"precomputed_gram must have shape {(x.shape[0], x.shape[0])}, "
                    f"got {gram.shape}"
                )
        else:
            gram = self.kernel.gram(x)
            self.kernel_evaluations_ += int(gram.size)

        if (
            initial_alphas is None
            and self.warm_start
            and self.result_ is not None
            and self.result_.alphas.shape[0] == y.shape[0]
        ):
            initial_alphas = self.result_.alphas

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
