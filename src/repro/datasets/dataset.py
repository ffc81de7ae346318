"""The :class:`ImageDataset` container.

An :class:`ImageDataset` bundles the rendered images, their category labels,
the category names and (optionally) a pre-computed feature matrix.  It is the
object every other subsystem (feature extraction, CBIR engine, evaluation)
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.imaging.image import Image

__all__ = ["ImageDataset"]


@dataclass
class ImageDataset:
    """A labelled image corpus.

    Attributes
    ----------
    images:
        The rendered images, in index order.
    labels:
        Integer category label of every image, aligned with *images*.
    category_names:
        Names of the categories; ``category_names[labels[i]]`` is the name of
        image ``i``'s category.
    features:
        Optional ``(N, D)`` feature matrix aligned with *images*.
    name:
        Human-readable dataset name, e.g. ``"corel-20"``.
    """

    images: List[Image]
    labels: np.ndarray
    category_names: Tuple[str, ...]
    features: Optional[np.ndarray] = None
    name: str = "dataset"

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=np.int64).ravel()
        if len(self.images) != self.labels.shape[0]:
            raise ValidationError(
                f"images ({len(self.images)}) and labels ({self.labels.shape[0]}) "
                "must have the same length"
            )
        if len(self.images) == 0:
            raise ValidationError("an ImageDataset needs at least one image")
        if self.labels.min() < 0 or self.labels.max() >= len(self.category_names):
            raise ValidationError(
                "labels must index into category_names "
                f"(got range [{self.labels.min()}, {self.labels.max()}] for "
                f"{len(self.category_names)} categories)"
            )
        if self.features is not None:
            self.features = np.asarray(self.features, dtype=np.float64)
            if self.features.shape[0] != len(self.images):
                raise ValidationError(
                    f"features ({self.features.shape[0]} rows) must align with "
                    f"images ({len(self.images)})"
                )

    # ------------------------------------------------------------------ info
    def __len__(self) -> int:
        return len(self.images)

    @property
    def num_images(self) -> int:
        """Total number of images."""
        return len(self.images)

    @property
    def num_categories(self) -> int:
        """Number of semantic categories."""
        return len(self.category_names)

    @property
    def has_features(self) -> bool:
        """Whether a feature matrix is attached."""
        return self.features is not None

    def category_of(self, index: int) -> int:
        """Category label of image *index*."""
        return int(self.labels[index])

    def category_name_of(self, index: int) -> str:
        """Category name of image *index*."""
        return self.category_names[self.category_of(index)]

    def indices_of_category(self, category: int) -> np.ndarray:
        """Indices of every image belonging to *category*."""
        if not 0 <= category < self.num_categories:
            raise ValidationError(
                f"category must be in [0, {self.num_categories}), got {category}"
            )
        return np.flatnonzero(self.labels == category)

    # ------------------------------------------------------------- mutation
    def with_features(self, features: np.ndarray) -> "ImageDataset":
        """Return a copy of this dataset with *features* attached."""
        return ImageDataset(
            images=self.images,
            labels=self.labels,
            category_names=self.category_names,
            features=np.asarray(features, dtype=np.float64),
            name=self.name,
        )

    def subset(self, indices: Sequence[int], *, name: Optional[str] = None) -> "ImageDataset":
        """Return a new dataset restricted to *indices* (order preserved).

        The category-name table is kept intact so labels remain comparable
        with the parent dataset.
        """
        index_array = np.asarray(indices, dtype=np.int64)
        if index_array.size == 0:
            raise ValidationError("subset requires at least one index")
        if index_array.min() < 0 or index_array.max() >= self.num_images:
            raise ValidationError("subset indices out of range")
        return ImageDataset(
            images=[self.images[i] for i in index_array],
            labels=self.labels[index_array],
            category_names=self.category_names,
            features=None if self.features is None else self.features[index_array],
            name=name if name is not None else f"{self.name}-subset",
        )
