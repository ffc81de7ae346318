"""Regular SVM-based relevance feedback (RF-SVM), the paper's baseline.

One SVM is trained on the visual features of the images the user labelled in
the current round (Tong & Chang style); all database images are then ranked
by the SVM decision value.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.feedback.base import FeedbackContext, RelevanceFeedbackAlgorithm
from repro.svm.kernels import Kernel
from repro.svm.svc import SVC

__all__ = ["RFSVM"]


class RFSVM(RelevanceFeedbackAlgorithm):
    """Relevance feedback with a single SVM on low-level visual features."""

    name = "rf-svm"

    def __init__(
        self,
        *,
        C: float = 10.0,
        kernel: Union[str, Kernel] = "rbf",
        gamma: Union[float, str] = "scale",
    ) -> None:
        self.C = float(C)
        self.kernel = kernel
        self.gamma = gamma

    def _make_svc(self) -> SVC:
        return SVC(C=self.C, kernel=self.kernel, gamma=self.gamma)

    def score(self, context: FeedbackContext) -> np.ndarray:
        if not context.has_both_classes:
            return self._fallback_scores(context)
        classifier = self._make_svc()
        classifier.fit(context.labeled_features(), context.labels)
        database = context.database
        return classifier.decision_function(
            database.features, squared_norms=database.feature_sq_norms
        )
