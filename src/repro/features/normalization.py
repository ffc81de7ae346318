"""Feature normalisation (fit on the database, applied to queries)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["FeatureNormalizer"]

#: Standard deviations below this count as a constant column, which is
#: divided by 1 (so maps to 0) instead of by its near-zero spread.
_EPS = 1e-12


class FeatureNormalizer:
    """Column-wise standardisation with frozen statistics.

    The normaliser is fitted once on the database feature matrix; queries and
    any out-of-sample images are transformed with the same statistics so the
    geometry seen by the SVMs and by the Euclidean baseline is consistent.
    ``mean_`` and ``std_`` are numpy's ``mean(axis=0)`` / ``std(axis=0)`` of
    the fitted matrix; a constant column is mapped to 0.
    """

    def __init__(self) -> None:
        self.mean_: Optional[np.ndarray] = None
        self.std_: Optional[np.ndarray] = None

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self.mean_ is not None

    def fit(self, features: np.ndarray) -> "FeatureNormalizer":
        """Learn per-column mean and standard deviation from *features*."""
        matrix = np.asarray(features, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] < 1:
            raise ValidationError(
                f"fit expects a non-empty (N, D) matrix, got shape {matrix.shape}"
            )
        self.mean_ = matrix.mean(axis=0)
        self.std_ = matrix.std(axis=0)
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        """Standardise *features* using the fitted statistics.

        One centred matrix, divided in place: bit for bit
        ``(features - mean_) / std_``, without its second temporary.
        """
        if not self.is_fitted:
            raise ValidationError("FeatureNormalizer must be fitted before transform")
        scaled = np.atleast_2d(np.asarray(features, dtype=np.float64)) - self.mean_
        scaled /= np.where(self.std_ < _EPS, 1.0, self.std_)
        return scaled

    def fit_transform(self, features: np.ndarray) -> np.ndarray:
        """Fit on *features* and return the standardised matrix."""
        return self.fit(features).transform(features)
