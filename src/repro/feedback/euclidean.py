"""The no-learning Euclidean reference scheme."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.cbir.query import Query, RetrievalResult
from repro.cbir.search import SearchEngine
from repro.feedback.base import FeedbackContext, RelevanceFeedbackAlgorithm
from repro.utils.validation import check_top_k

__all__ = ["EuclideanFeedback"]


class EuclideanFeedback(RelevanceFeedbackAlgorithm):
    """Rank by Euclidean distance to the query, ignoring all feedback.

    This reproduces the "Euclidean" reference curve of Figures 3 and 4: it is
    what the CBIR system returns before any learning happens.  Since the
    judgements never move it, a session's ranking is the one its round-0
    search returned: a context whose
    :attr:`~repro.feedback.base.FeedbackContext.previous_ranking` is a
    Euclidean ranking of the same query, at least as long as the one asked
    for, is answered from that ranking's prefix without a scan.
    """

    name = "euclidean"

    def score(self, context: FeedbackContext) -> np.ndarray:
        engine = SearchEngine(context.database)
        query_features = engine.query_features(context.query)[None, :]
        return -engine.pool_distances(query_features)[0]

    def rank(self, context: FeedbackContext, *, top_k: Optional[int] = None) -> RetrievalResult:
        """The previous ranking's prefix when it covers *top_k* (see the
        class docstring), otherwise a ranking of :meth:`score`."""
        top_k = check_top_k(top_k)
        reused = self._reuse(context, top_k)
        return reused if reused is not None else super().rank(context, top_k=top_k)

    def rank_batch(
        self, contexts: Sequence[FeedbackContext], *, top_k: Optional[int] = None
    ) -> List[RetrievalResult]:
        """Answer each context from its previous ranking, the rest in one
        :meth:`SearchEngine.batch_search`.

        Distance-only scoring is embarrassingly batchable: all queries over
        the same database that need a scan are served by a single index
        :meth:`~repro.index.VectorIndex.batch_search` (or one blocked dense
        scan), instead of one pass per context.  A reused prefix carries
        the scores of the scan that produced it, so its indices and score
        bits are those of a fresh ``batch_search`` of the batch the ranking
        came from (BLAS may round a row of a differently sized batch in its
        last bits).  Mixed-database batches fall back to the per-context
        :meth:`rank`.
        """
        top_k = check_top_k(top_k)
        results: List[Optional[RetrievalResult]] = [
            self._reuse(context, top_k) for context in contexts
        ]
        pending = [context for context, result in zip(contexts, results) if result is None]
        if not pending:
            return results
        database = pending[0].database
        if any(context.database is not database for context in pending):
            fresh = super().rank_batch(pending, top_k=top_k)
        else:
            batched = SearchEngine(database).batch_search(
                [context.query for context in pending], top_k=top_k
            )
            fresh = [
                RetrievalResult(
                    image_indices=result.image_indices,
                    scores=result.scores,
                    query=context.query,
                    algorithm=self.name,
                )
                for context, result in zip(pending, batched)
            ]
        scanned = iter(fresh)
        return [result if result is not None else next(scanned) for result in results]

    def _reuse(
        self, context: FeedbackContext, top_k: Optional[int]
    ) -> Optional[RetrievalResult]:
        """The prefix of the context's previous ranking that answers it, if any.

        The previous ranking must be a Euclidean ranking of the same query
        holding at least ``min(top_k, N)`` entries (``top_k=None`` needs all
        ``N``); the stable-sort prefix of a ranking is the ranking of any
        smaller size.
        """
        previous = context.previous_ranking
        if previous is None or previous.algorithm != self.name:
            return None
        if not _same_query(previous.query, context.query):
            return None
        num_images = context.database.num_images
        size = num_images if top_k is None else min(top_k, num_images)
        if len(previous) < size:
            return None
        return RetrievalResult(
            image_indices=previous.image_indices[:size],
            scores=previous.scores[:size],
            query=context.query,
            algorithm=self.name,
        )


def _same_query(a: Query, b: Query) -> bool:
    """Whether *a* and *b* ask for the same image (index or feature vector)."""
    if a.is_internal or b.is_internal:
        return a.query_index == b.query_index
    return np.array_equal(a.feature_vector, b.feature_vector)
