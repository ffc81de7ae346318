"""Base class shared by all feature extractors."""

from __future__ import annotations

import abc
from typing import List, Sequence

import numpy as np

from repro.exceptions import FeatureExtractionError
from repro.imaging.image import Image
from repro.utils.progress import ProgressReporter

__all__ = ["FeatureExtractor"]


class FeatureExtractor(abc.ABC):
    """Abstract base class for image feature extractors.

    Concrete extractors implement :meth:`extract` for a single image;
    :meth:`extract_batch` stacks per-image vectors into a feature matrix and
    converts unexpected per-image failures into
    :class:`~repro.exceptions.FeatureExtractionError` carrying the image id.
    """

    #: Human readable name of the extractor (used in reports and errors).
    name: str = "feature"

    @property
    @abc.abstractmethod
    def dimension(self) -> int:
        """Length of the feature vector produced per image."""

    @abc.abstractmethod
    def extract(self, image: Image) -> np.ndarray:
        """Extract the feature vector of a single :class:`Image`."""

    def extract_batch(
        self,
        images: Sequence[Image],
        *,
        show_progress: bool = False,
    ) -> np.ndarray:
        """Extract features for a sequence of images into an ``(N, D)`` matrix."""
        if len(images) == 0:
            raise FeatureExtractionError(f"{self.name}: no images to extract")
        reporter = ProgressReporter(
            len(images), label=f"extract[{self.name}]", enabled=show_progress
        )
        rows: List[np.ndarray] = []
        for index, image in enumerate(images):
            try:
                vector = np.asarray(self.extract(image), dtype=np.float64).ravel()
            except Exception as error:  # pragma: no cover - defensive re-raise
                raise FeatureExtractionError(
                    f"{self.name}: extraction failed for image "
                    f"{image.image_id if image.image_id is not None else index}: {error}"
                ) from error
            if vector.shape[0] != self.dimension:
                raise FeatureExtractionError(
                    f"{self.name}: expected a {self.dimension}-d vector, "
                    f"got {vector.shape[0]}-d for image {index}"
                )
            rows.append(vector)
            reporter.update()
        return np.vstack(rows)
