"""Per-modality Gram caching for the coupled SVM's Alternating Optimization.

The AO loop of :class:`repro.core.coupled_svm.CoupledSVM` retrains each
modality SVM at every ``rho*`` annealing stage and every label-switching
pass, but the training rows — the labelled samples stacked on top of the
selected unlabeled pool — never change within one ``fit``.  Rebuilding the
RBF Gram matrix for every solve therefore repeats the same ``O(N^2 D)``
kernel work at every one of a fit's solves (4–7 per fit with a schedule
that anneals only while labels move; about 19 with Figure 1's full
doubling schedule).

:class:`GramCache` computes each modality's full Gram exactly once per fit
and serves everything the loop needs from it:

* the training Gram for :class:`repro.svm.smo.SMOSolver` /
  :class:`repro.svm.svc.SVC` (zero kernel evaluations per solve);
* the Q-matrix ``K * y y^T``, updated by **sign flips** of the rows/columns
  of the flipped pseudo-labels (exact in IEEE arithmetic) instead of a full
  ``O(N^2)`` re-multiplication when labels change;
* batched decision values on the unlabeled pool via the cached cross-Gram
  rows, so label switching never calls the kernel either.

The cache also counts its work (``gram_computations``,
``kernel_evaluations``) so callers can assert the "Gram computed once per
fit" invariant and track kernel-evaluation budgets in benchmarks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ValidationError
from repro.obs import get_hub
from repro.svm.kernels import Kernel

__all__ = ["GramCache"]


class GramCache:
    """Cache of one modality's training Gram across repeated SMO solves.

    Parameters
    ----------
    kernel:
        Kernel to evaluate; fitted here on the stacked training matrix (so
        data-dependent hyper-parameters like ``gamma="scale"`` are resolved
        exactly once).
    labeled_features:
        ``(N_l, D)`` labelled rows of this modality.
    unlabeled_features:
        ``(N_u, D)`` unlabeled-pool rows of this modality.

    Attributes
    ----------
    features:
        The stacked ``(N_l + N_u, D)`` training matrix.
    gram:
        The full training Gram, computed once in ``__init__``.
    gram_computations:
        Number of full training-Gram computations performed (always 1; the
        counter exists so callers can assert it stays 1).
    kernel_evaluations:
        Number of kernel-matrix entries evaluated through this cache.
    """

    def __init__(
        self,
        kernel: Kernel,
        labeled_features: np.ndarray,
        unlabeled_features: np.ndarray,
    ) -> None:
        x_l = np.atleast_2d(np.asarray(labeled_features, dtype=np.float64))
        x_u = np.atleast_2d(np.asarray(unlabeled_features, dtype=np.float64))
        if x_l.shape[1] != x_u.shape[1]:
            raise ValidationError(
                "labeled and unlabeled features must share dimensionality, got "
                f"{x_l.shape[1]} and {x_u.shape[1]}"
            )
        self.num_labeled = int(x_l.shape[0])
        self.num_unlabeled = int(x_u.shape[0])
        self.features = np.vstack([x_l, x_u])
        self.kernel = kernel.fit(self.features)
        hub = get_hub()
        with hub.timer("solver.gram.build_seconds"):
            self.gram = self.kernel.gram(self.features)
        self.gram_computations = 1
        self.kernel_evaluations = int(self.gram.size)
        hub.count("solver.gram.builds")
        hub.count("solver.gram.kernel_evaluations", self.kernel_evaluations)
        self._q: Optional[np.ndarray] = None
        self._q_labels: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ API
    @property
    def num_samples(self) -> int:
        """Total number of training rows (labelled + unlabeled)."""
        return self.num_labeled + self.num_unlabeled

    def q_matrix(self, labels: np.ndarray) -> np.ndarray:
        """The dual Q-matrix ``K * y y^T`` for the given ±1 labels.

        The first call builds the matrix; later calls update it in place by
        flipping the sign of the rows and columns whose label changed (the
        diagonal blocks of doubly-flipped pairs cancel, which is exactly the
        identity ``K y'_i y'_j = K y_i y_j * s_i s_j`` for sign changes
        ``s``).  The returned array is owned by the cache: treat it as
        read-only, as :class:`~repro.svm.smo.SMOSolver` does.
        """
        y = np.asarray(labels, dtype=np.float64).ravel()
        if y.shape[0] != self.num_samples:
            raise ValidationError(
                f"labels ({y.shape[0]}) must match cached rows ({self.num_samples})"
            )
        if self._q is None or self._q_labels is None:
            get_hub().count("solver.gram.q_misses")
            self._q = self.gram * np.outer(y, y)
            self._q_labels = y.copy()
            return self._q
        get_hub().count("solver.gram.q_hits")
        flipped = self._q_labels != y
        if flipped.any():
            self._q[flipped, :] *= -1.0
            self._q[:, flipped] *= -1.0
            self._q_labels[flipped] = y[flipped]
        return self._q

    def unlabeled_decision_values(
        self, alphas: np.ndarray, labels: np.ndarray, bias: float
    ) -> np.ndarray:
        """Decision values ``f(x)`` on the unlabeled pool, from cached rows.

        Computes ``K[unlabeled, :] @ (alphas * labels) + bias`` — one matvec
        on the cached cross-Gram block, no kernel evaluations.
        """
        coef = np.asarray(alphas, dtype=np.float64) * np.asarray(
            labels, dtype=np.float64
        )
        if coef.shape[0] != self.num_samples:
            raise ValidationError(
                f"alphas/labels ({coef.shape[0]}) must match cached rows ({self.num_samples})"
            )
        return self.gram[self.num_labeled :, :] @ coef + float(bias)
