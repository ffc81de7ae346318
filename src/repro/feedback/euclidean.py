"""The no-learning Euclidean reference scheme."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.cbir.query import RetrievalResult
from repro.cbir.search import SearchEngine
from repro.feedback.base import FeedbackContext, RelevanceFeedbackAlgorithm

__all__ = ["EuclideanFeedback"]


class EuclideanFeedback(RelevanceFeedbackAlgorithm):
    """Rank by Euclidean distance to the query, ignoring all feedback.

    This reproduces the "Euclidean" reference curve of Figures 3 and 4: it is
    what the CBIR system returns before any learning happens.
    """

    name = "euclidean"

    def __init__(self, *, distance: str = "euclidean") -> None:
        self.distance = distance

    def score(self, context: FeedbackContext) -> np.ndarray:
        engine = SearchEngine(context.database, distance=self.distance)
        query_features = engine.query_features(context.query)[None, :]
        return -engine.pool_distances(query_features)[0]

    def rank_batch(
        self, contexts: Sequence[FeedbackContext], *, top_k: Optional[int] = None
    ) -> List[RetrievalResult]:
        """Fold the whole batch into one :meth:`SearchEngine.batch_search`.

        Distance-only scoring is embarrassingly batchable: all queries over
        the same database are served by a single index
        :meth:`~repro.index.VectorIndex.batch_search` (or one blocked dense
        scan), instead of one pass per context.  Both are exact, so batching
        never changes this curve.  Mixed-database batches fall back to the
        per-context default.
        """
        if not contexts:
            return []
        database = contexts[0].database
        if any(context.database is not database for context in contexts):
            return super().rank_batch(contexts, top_k=top_k)
        engine = SearchEngine(database, distance=self.distance)
        batched = engine.batch_search([context.query for context in contexts], top_k=top_k)
        return [
            RetrievalResult(
                image_indices=result.image_indices,
                scores=result.scores,
                query=context.query,
                algorithm=self.name,
            )
            for context, result in zip(contexts, batched)
        ]
