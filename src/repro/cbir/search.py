"""Initial similarity search (the pre-feedback retrieval step)."""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.cbir.database import ImageDatabase
from repro.cbir.query import Query, RetrievalResult
from repro.cbir.similarity import DistanceFunction, euclidean_distances, make_distance
from repro.exceptions import ValidationError
from repro.index.base import VectorIndex
from repro.utils.arrays import exact_top_k

__all__ = ["SearchEngine"]


class SearchEngine:
    """Ranks database images by visual similarity to a query.

    This is the retrieval stage every scheme in the paper starts from: the
    "Euclidean" curve in Figures 3–4 is exactly this engine's output, and the
    top-20 of this ranking is what gets labelled to seed relevance feedback.

    Ranking is served by the :class:`repro.index.VectorIndex` attached to
    the database (see :meth:`ImageDatabase.build_index` and
    :meth:`ImageDatabase.attach_index`) whenever its metric matches this
    engine's distance.  Without such an index (or for a full ranking) the
    engine runs the index's exact scan,
    :func:`repro.utils.arrays.exact_top_k`, over the database itself.

    Parameters
    ----------
    database:
        The image database to search.
    distance:
        Distance name (``euclidean``/``manhattan``/``cosine``) or a custom
        ``(queries, database) -> (Q, N)`` callable.
    """

    def __init__(
        self,
        database: ImageDatabase,
        *,
        distance: Union[str, DistanceFunction] = "euclidean",
    ) -> None:
        self.database = database
        if isinstance(distance, str):
            self.distance_name = distance
            self.distance: DistanceFunction = make_distance(distance)
        else:
            self.distance = distance
            self.distance_name = getattr(distance, "__name__", "custom")

    @property
    def index(self) -> Optional[VectorIndex]:
        """The database's index when it ranks by this engine's metric."""
        attached = self.database.index
        if attached is not None and attached.metric == self.distance_name:
            return attached
        return None

    def query_features(self, query: Query) -> np.ndarray:
        """Resolve the feature vector of *query* in database feature space."""
        return self.database.resolve_query_features(query)

    def pool_distances(self, features: np.ndarray) -> np.ndarray:
        """``(Q, N)`` distances from *features* rows to every database image.

        The Euclidean distance reuses the database's cached squared norms;
        every other distance is called in its two-argument form.
        """
        norms = self._pool_sq_norms()
        if norms is None:
            return self.distance(features, self.database.features)
        return self.distance(features, self.database.features, norms)

    def search(self, query: Query, *, top_k: Optional[int] = None) -> RetrievalResult:
        """Rank images by increasing distance to the query.

        A one-query :meth:`batch_search`.

        Parameters
        ----------
        query:
            The query (by database index or external feature vector).
        top_k:
            Number of results to return; ``None`` returns the full ranking.
        """
        return self.batch_search([query], top_k=top_k)[0]

    def _pool_sq_norms(self) -> Optional[np.ndarray]:
        """The database's cached squared norms, if the distance takes them."""
        if self.distance is euclidean_distances:
            return self.database.feature_sq_norms
        return None

    def batch_search(
        self,
        queries: Sequence[Query],
        *,
        top_k: Optional[int] = None,
        chunk_size: int = 1024,
    ) -> List[RetrievalResult]:
        """Rank every query in one vectorised pass (one result per query).

        Top-k batches are funnelled through
        :meth:`~repro.index.VectorIndex.batch_search` whenever the engine has
        a compatible index, and through a query-blocked dense scan otherwise
        — either way the per-query work is amortised across the batch, which
        is what makes many concurrent first-round searches cheap.  Rankings
        are identical to per-query :meth:`search` calls (scores can differ in
        the last float bits because batched BLAS accumulates in a different
        order).  A full ranking (``top_k=None``) always takes the dense
        scan.
        """
        if not queries:
            return []
        if top_k is not None and top_k < 1:
            raise ValidationError(f"top_k must be >= 1, got {top_k}")
        features = np.vstack([self.query_features(query) for query in queries])
        index = self.index if top_k is not None else None
        num_images = self.database.num_images
        k = num_images if top_k is None else min(int(top_k), num_images)
        if index is not None:
            distances, rankings = index.batch_search(features, k, chunk_size=chunk_size)
        else:
            distances, rankings = exact_top_k(
                features, self.database.features, k, self.distance,
                vectors_sq=self._pool_sq_norms(),
            )
        return [
            RetrievalResult(
                image_indices=rankings[row],
                scores=-distances[row],
                query=query,
                algorithm=self.distance_name,
            )
            for row, query in enumerate(queries)
        ]
