"""Initial similarity search (the pre-feedback retrieval step)."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.cbir.database import ImageDatabase
from repro.cbir.query import Query, RetrievalResult
from repro.index.base import VectorIndex
from repro.utils.arrays import euclidean_distances, exact_top_k
from repro.utils.validation import check_top_k

__all__ = ["SearchEngine"]


class SearchEngine:
    """Ranks database images by Euclidean distance to a query.

    This is the retrieval stage every scheme in the paper starts from: the
    "Euclidean" curve in Figures 3–4 is exactly this engine's output, and the
    top-20 of this ranking is what gets labelled to seed relevance feedback.

    A top-k ranking is served by the :class:`repro.index.VectorIndex`
    attached to the database (see :meth:`ImageDatabase.build_index`).
    Without one (or for a full ranking) the engine runs the index's exact
    scan, :func:`repro.utils.arrays.exact_top_k`, over the database itself.

    Parameters
    ----------
    database:
        The image database to search.
    """

    def __init__(self, database: ImageDatabase) -> None:
        self.database = database

    @property
    def index(self) -> Optional[VectorIndex]:
        """The index attached to the database, if any."""
        return self.database.index

    def query_features(self, query: Query) -> np.ndarray:
        """Resolve the feature vector of *query* in database feature space."""
        return self.database.resolve_query_features(query)

    def pool_distances(self, features: np.ndarray) -> np.ndarray:
        """``(Q, N)`` Euclidean distances from *features* rows to the database.

        The database's cached squared norms are reused.
        """
        return euclidean_distances(
            features, self.database.features, self.database.feature_sq_norms
        )

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

    def batch_search(
        self, queries: Sequence[Query], *, top_k: Optional[int] = None
    ) -> List[RetrievalResult]:
        """Rank every query in one vectorised pass (one result per query).

        Top-k batches are funnelled through
        :meth:`~repro.index.VectorIndex.batch_search` whenever the database
        has an index, and through a query-blocked dense scan otherwise
        — either way the per-query work is amortised across the batch, which
        is what makes many concurrent first-round searches cheap.  Rankings
        are identical to per-query :meth:`search` calls (scores can differ in
        the last float bits because batched BLAS accumulates in a different
        order).  A full ranking (``top_k=None``) always takes the dense
        scan.

        Raises
        ------
        ValidationError
            If *top_k* is not ``None`` or an integer >= 1.
        """
        top_k = check_top_k(top_k)
        if not queries:
            return []
        features = np.vstack([self.query_features(query) for query in queries])
        index = self.index if top_k is not None else None
        num_images = self.database.num_images
        k = num_images if top_k is None else min(top_k, num_images)
        if index is not None:
            distances, rankings = index.batch_search(features, k)
        else:
            distances, rankings = exact_top_k(
                features, self.database.features, k,
                vectors_sq=self.database.feature_sq_norms,
            )
        return [
            RetrievalResult(
                image_indices=rankings[row],
                scores=-distances[row],
                query=query,
                algorithm="euclidean",
            )
            for row, query in enumerate(queries)
        ]
