"""The :class:`ImageDatabase`: feature store + log store for one corpus.

An :class:`ImageDatabase` couples the (normalised) visual feature matrix
``X`` with the feedback-log database providing the relevance matrix ``R``,
which are exactly the two modalities of Section 2 of the paper.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

import numpy as np

from repro.datasets.dataset import ImageDataset
from repro.exceptions import DatabaseError, ValidationError
from repro.features.normalization import FeatureNormalizer
from repro.cbir.query import Query
from repro.index.base import VectorIndex
from repro.logdb.store import InMemoryLogStore, LogStore
from repro.utils.arrays import squared_norms

__all__ = ["ImageDatabase"]

#: Serialises the first computation of any database's ``feature_sq_norms``.
#: Module-level so an :class:`ImageDatabase` holds no lock of its own and
#: stays picklable; it is held for one pass over one feature matrix.
_NORMS_LOCK = threading.Lock()


class ImageDatabase:
    """Normalised visual features plus the user-feedback log for a corpus.

    Parameters
    ----------
    dataset:
        The image corpus; must carry an extracted feature matrix.
    log_database:
        Optional pre-populated feedback log, any
        :class:`~repro.logdb.store.LogStore` — e.g. a
        :class:`~repro.logdb.file_store.FileLogStore` shared with other
        serving processes.  An empty :class:`InMemoryLogStore` is created
        when omitted (cold start).
    normalize:
        Whether to standardise feature columns (recommended; keeps the RBF
        and Euclidean geometry balanced across the three descriptor types).

    The feature matrix is fixed at construction; :attr:`feature_sq_norms`
    caches its squared row norms (computed on first use) for the SVM scoring
    passes and the Euclidean dense scan.
    """

    def __init__(
        self,
        dataset: ImageDataset,
        *,
        log_database: Optional[LogStore] = None,
        normalize: bool = True,
    ) -> None:
        if not dataset.has_features:
            raise DatabaseError("ImageDatabase requires a dataset with extracted features")
        self.dataset = dataset
        self.normalizer: Optional[FeatureNormalizer] = None
        if normalize:
            self.normalizer = FeatureNormalizer()
            self._features = self.normalizer.fit_transform(dataset.features)
        else:
            self._features = np.asarray(dataset.features, dtype=np.float64)
        self._feature_sq_norms: Optional[np.ndarray] = None  # lazy, see property

        if log_database is None:
            log_database = InMemoryLogStore(dataset.num_images)
        elif log_database.num_images != dataset.num_images:
            raise DatabaseError(
                f"log database covers {log_database.num_images} images but the "
                f"dataset has {dataset.num_images}"
            )
        self.log_database = log_database
        self._index: Optional["VectorIndex"] = None

    # ------------------------------------------------------------------ info
    @property
    def num_images(self) -> int:
        """Number of images in the database."""
        return self.dataset.num_images

    @property
    def feature_dimension(self) -> int:
        """Dimensionality of the visual feature vectors."""
        return int(self._features.shape[1])

    @property
    def features(self) -> np.ndarray:
        """The ``(N, D)`` normalised visual feature matrix ``X``."""
        return self._features

    @property
    def feature_sq_norms(self) -> np.ndarray:
        """Squared row norms of :attr:`features`, ``(N,)`` and read-only.

        Exactly :func:`~repro.utils.arrays.squared_norms` of the features,
        computed on first use and once per database (the features never
        change after construction; concurrent first readers wait for one
        computation).  The SVM strategies pass it to ``decision_function``,
        and the search engine's Euclidean dense scan passes it to the
        distance, so neither a feedback round nor a search recomputes the
        pool's norms.
        """
        norms = self._feature_sq_norms
        if norms is None:
            with _NORMS_LOCK:
                norms = self._feature_sq_norms
                if norms is None:
                    norms = squared_norms(self._features)
                    norms.setflags(write=False)
                    self._feature_sq_norms = norms
        return norms

    # --------------------------------------------------------------- vectors
    def feature_of(self, image_index: int) -> np.ndarray:
        """Visual feature vector of image *image_index*."""
        self._check_index(image_index)
        return self._features[image_index]

    def features_of(self, image_indices: Sequence[int]) -> np.ndarray:
        """Visual feature matrix restricted to *image_indices* (row order kept)."""
        indices = np.asarray(image_indices, dtype=np.int64)
        if indices.size == 0:
            raise DatabaseError("features_of requires at least one index")
        self._check_index(int(indices.min()))
        self._check_index(int(indices.max()))
        return self._features[indices]

    def resolve_query_features(self, query: Query) -> np.ndarray:
        """Feature vector of a :class:`~repro.cbir.query.Query` in database space.

        Internal queries resolve to their stored feature row; external
        feature vectors are normalised with the database statistics.  This
        is the single definition of query resolution.
        """
        if query.is_internal:
            return self.feature_of(int(query.query_index))
        return self.transform_external_features(query.feature_vector)[0]

    def transform_external_features(self, features: np.ndarray) -> np.ndarray:
        """Normalise externally-extracted features with the database statistics."""
        matrix = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if matrix.shape[1] != self.feature_dimension:
            raise DatabaseError(
                f"external features have dimension {matrix.shape[1]}, "
                f"database uses {self.feature_dimension}"
            )
        if self.normalizer is None:
            return matrix
        return self.normalizer.transform(matrix)

    # ----------------------------------------------------------------- index
    @property
    def index(self) -> Optional["VectorIndex"]:
        """The attached exact index over :attr:`features`, if any."""
        return self._index

    def build_index(self, kind: str = VectorIndex.kind) -> "VectorIndex":
        """Build and attach the exact index over the feature matrix.

        The index is built once: the features are fixed at construction,
        so it stays valid for the database's lifetime.

        Parameters
        ----------
        kind:
            ``"brute-force"``, the one backend (:class:`VectorIndex`); any
            other name raises :class:`~repro.exceptions.ValidationError`.
        """
        if kind != VectorIndex.kind:
            raise ValidationError(
                f"unknown index backend '{kind}'; only '{VectorIndex.kind}' exists"
            )
        index = VectorIndex().build(self._features)
        self._index = index
        return index

    # ------------------------------------------------------------- internals
    def _check_index(self, image_index: int) -> None:
        if not 0 <= image_index < self.num_images:
            raise DatabaseError(
                f"image index must be in [0, {self.num_images}), got {image_index}"
            )
