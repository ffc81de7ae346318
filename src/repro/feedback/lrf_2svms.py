"""Log-based relevance feedback by two independent SVMs (LRF-2SVMs).

The "straightforward approach" of Section 4.1: train one SVM on the visual
features and one on the user-log vectors of the labelled images, then sum the
two decision values.  The coupled SVM is compared against this scheme to show
the value of enforcing consistency between the modalities.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.feedback.base import (
    FeedbackContext,
    RelevanceFeedbackAlgorithm,
    log_vectors_informative,
)
from repro.svm.kernels import Kernel
from repro.svm.svc import SVC

__all__ = ["LRF2SVMs"]


class LRF2SVMs(RelevanceFeedbackAlgorithm):
    """Independent visual SVM + log SVM with summed decision values.

    The visual SVM uses the paper's Gaussian RBF kernel; the log SVM defaults
    to a linear kernel, matching the primal formulation of Section 4 where
    the log modality scores images by ``u^T r`` (a learned weight per log
    session), and to a smaller ``C`` — the log vectors are sparse ternary
    patterns, so a wider margin generalises across correlated sessions much
    better than a near-hard-margin fit.  Both kernels are configurable.
    """

    name = "lrf-2svms"

    def __init__(
        self,
        *,
        C_visual: float = 10.0,
        C_log: float = 0.5,
        kernel: Union[str, Kernel] = "rbf",
        gamma: Union[float, str] = "scale",
        log_kernel: Union[str, Kernel] = "linear",
    ) -> None:
        self.C_visual = float(C_visual)
        self.C_log = float(C_log)
        self.kernel = kernel
        self.gamma = gamma
        self.log_kernel = log_kernel

    def score(self, context: FeedbackContext) -> np.ndarray:
        if not context.has_both_classes:
            return self._fallback_scores(context)

        visual_svm = SVC(C=self.C_visual, kernel=self.kernel, gamma=self.gamma)
        visual_svm.fit(context.labeled_features(), context.labels)
        database = context.database
        visual_scores = visual_svm.decision_function(
            database.features, squared_norms=database.feature_sq_norms
        )

        # One snapshot for the whole round: the log-SVM's training rows and
        # the scored pool read the same R even under concurrent appends.
        snapshot = context.log_snapshot()
        if snapshot.is_empty:
            # Cold start: no log information exists yet, degrade gracefully to
            # the visual-only baseline.
            return visual_scores

        labeled_log = snapshot.log_vectors(context.labeled_indices)
        if not log_vectors_informative(labeled_log):
            return visual_scores

        # Train on the labelled images' small dense block; score the whole
        # pool through the snapshot's sparse rows (never a dense R).
        log_svm = SVC(C=self.C_log, kernel=self.log_kernel, gamma=self.gamma)
        log_svm.fit(labeled_log, context.labels)
        log_scores = log_svm.decision_function(snapshot.log_rows())
        return visual_scores + log_scores
