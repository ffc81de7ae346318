"""Query and retrieval-result value types."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["Query", "RetrievalResult"]


@dataclass(frozen=True)
class Query:
    """A retrieval query.

    The common case is query-by-example against a database image
    (*query_index*); an external example can instead be supplied as a raw
    feature vector (*feature_vector*), which must be finite.
    """

    query_index: Optional[int] = None
    feature_vector: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.query_index is None and self.feature_vector is None:
            raise ValidationError("a Query needs either query_index or feature_vector")
        if self.feature_vector is not None:
            vector = np.asarray(self.feature_vector, dtype=np.float64).ravel()
            if vector.size == 0:
                raise ValidationError("feature_vector must not be empty")
            if not np.all(np.isfinite(vector)):
                raise ValidationError("feature_vector must be finite")
            object.__setattr__(self, "feature_vector", vector)

    @property
    def is_internal(self) -> bool:
        """Whether the query refers to an image already in the database."""
        return self.query_index is not None


@dataclass(frozen=True)
class RetrievalResult:
    """A ranked list of retrieved images.

    Attributes
    ----------
    image_indices:
        Database indices ranked from most to least relevant.
    scores:
        Relevance score of each returned image (higher = more relevant),
        aligned with *image_indices*.
    query:
        The query that produced this result.
    algorithm:
        Name of the retrieval / feedback scheme that produced the ranking.
    """

    image_indices: np.ndarray
    scores: np.ndarray
    query: Query
    algorithm: str = "euclidean"

    def __post_init__(self) -> None:
        indices = np.asarray(self.image_indices, dtype=np.int64).ravel()
        scores = np.asarray(self.scores, dtype=np.float64).ravel()
        if indices.shape[0] != scores.shape[0]:
            raise ValidationError(
                f"image_indices ({indices.shape[0]}) and scores ({scores.shape[0]}) "
                "must have equal length"
            )
        object.__setattr__(self, "image_indices", indices)
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return int(self.image_indices.shape[0])

    def top(self, count: int) -> np.ndarray:
        """Indices of the top *count* returned images."""
        if count < 1:
            raise ValidationError(f"count must be >= 1, got {count}")
        return self.image_indices[:count]
