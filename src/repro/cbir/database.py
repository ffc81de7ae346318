"""The :class:`ImageDatabase`: feature store + log store for one corpus.

An :class:`ImageDatabase` couples the (normalised) visual feature matrix
``X`` with the feedback-log database providing the relevance matrix ``R``,
which are exactly the two modalities of Section 2 of the paper.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.datasets.dataset import ImageDataset
from repro.exceptions import DatabaseError
from repro.features.normalization import FeatureNormalizer
from repro.cbir.query import Query
from repro.index.base import VectorIndex
from repro.logdb.log_database import LogDatabase
from repro.logdb.store import LogStore

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
        Optional pre-populated feedback log: a :class:`LogDatabase`, or a
        bare :class:`~repro.logdb.store.LogStore` backend (wrapped in a
        fresh façade) — e.g. a
        :class:`~repro.logdb.file_store.FileLogStore` shared with other
        serving processes.  An empty in-memory log is created when omitted
        (cold start).
    normalize:
        Whether to standardise feature columns (recommended; keeps the RBF
        and Euclidean geometry balanced across the three descriptor types).

    The feature matrix is fixed at construction; :attr:`feature_sq_norms`
    caches its squared row norms (computed on first use) for the SVM scoring
    passes.
    """

    def __init__(
        self,
        dataset: ImageDataset,
        *,
        log_database: Union[LogDatabase, LogStore, None] = None,
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

        if isinstance(log_database, LogStore):
            log_database = LogDatabase(store=log_database)
        if log_database is None:
            log_database = LogDatabase(dataset.num_images)
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

        Exactly ``np.sum(features * features, axis=1)``, computed on first
        use and once per database (the features never change after
        construction; concurrent first readers wait for one computation).
        The SVM strategies pass it (or its ``[candidates]`` slice) to
        ``decision_function`` so a feedback round does not recompute the
        pool's norms for every model it scores; a database that only serves
        distance searches never pays for it.
        """
        norms = self._feature_sq_norms
        if norms is None:
            with _NORMS_LOCK:
                norms = self._feature_sq_norms
                if norms is None:
                    norms = np.sum(self._features * self._features, axis=1)
                    norms.setflags(write=False)
                    self._feature_sq_norms = norms
        return norms

    @property
    def has_log(self) -> bool:
        """Whether any feedback sessions have been recorded."""
        return not self.log_database.is_empty

    @property
    def num_log_sessions(self) -> int:
        """Number of feedback sessions in the log."""
        return self.log_database.num_sessions

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

    def log_vectors_of(self, image_indices: Sequence[int]) -> np.ndarray:
        """Dense user-log vectors ``r_i`` (rows) of *image_indices*."""
        return self.log_database.log_vectors(image_indices)

    def resolve_query_features(self, query: Query) -> np.ndarray:
        """Feature vector of a :class:`~repro.cbir.query.Query` in database space.

        Internal queries resolve to their stored feature row; external
        feature vectors are normalised with the database statistics.  This
        is the single definition of query resolution shared by the search
        engine and the candidate-pruned feedback path.
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
        """The attached ANN index over :attr:`features`, if any."""
        return self._index

    def build_index(self, kind: str = "brute-force", **kwargs) -> "VectorIndex":
        """Build and attach an ANN index over the feature matrix.

        Parameters
        ----------
        kind:
            Registry name of the backend (``brute-force``, ``kd-tree``,
            ``lsh``, ``ivf``).
        kwargs:
            Backend parameters, forwarded to
            :func:`repro.index.registry.make_index`.
        """
        from repro.index.registry import make_index

        index = make_index(kind, **kwargs)
        index.build(self._features)
        self._index = index
        return index

    def attach_index(self, index: "VectorIndex") -> None:
        """Attach an already-built index (must cover exactly this database).

        Both the shape and the contents are checked: an index of the right
        size that was built over *different* vectors (stale save file,
        re-rendered corpus, changed normalisation) would silently serve
        wrong neighbours otherwise.
        """
        index.ensure_covers(self._features, error_cls=DatabaseError)
        self._index = index

    def detach_index(self) -> Optional["VectorIndex"]:
        """Detach and return the current index (searches go back to scans)."""
        index = self._index
        self._index = None
        return index

    def save_index(self, path: Union[str, Path]) -> Path:
        """Persist the attached index next to the corpus (one ``.npz``)."""
        if self._index is None:
            raise DatabaseError("no index is attached to this database")
        return self._index.save(path)

    def load_index(self, path: Union[str, Path]) -> "VectorIndex":
        """Load a serialised index and attach it (validated against features)."""
        index = VectorIndex.load(path)
        self.attach_index(index)
        return index

    # ------------------------------------------------------------- internals
    def _check_index(self, image_index: int) -> None:
        if not 0 <= image_index < self.num_images:
            raise DatabaseError(
                f"image index must be in [0, {self.num_images}), got {image_index}"
            )
