"""Query sampling and ground-truth relevance for the evaluation protocol.

The paper evaluates over 200 randomly generated queries; relevance of a
returned image is judged automatically from category membership ("the
procedure of relevance evaluation is automatic").  This module provides the
query sampler and the ground-truth relevance helper used by the evaluation
harness and by the log simulator.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.datasets.dataset import ImageDataset
from repro.exceptions import ValidationError
from repro.utils.rng import RandomState, ensure_rng

__all__ = ["QuerySampler", "relevance_ground_truth", "relevance_labels"]


def relevance_ground_truth(dataset: ImageDataset, query_index: int) -> np.ndarray:
    """Boolean relevance of every image with respect to *query_index*.

    An image is relevant iff it shares the query image's category — exactly
    the automatic judgement the paper uses for its 200-query evaluation.
    """
    if not 0 <= query_index < dataset.num_images:
        raise ValidationError(
            f"query_index must be in [0, {dataset.num_images}), got {query_index}"
        )
    query_category = dataset.labels[query_index]
    return dataset.labels == query_category


def relevance_labels(
    dataset: ImageDataset, query_index: int, image_indices: Sequence[int]
) -> np.ndarray:
    """±1 relevance labels of *image_indices* with respect to the query."""
    relevant = relevance_ground_truth(dataset, query_index)
    indices = np.asarray(image_indices, dtype=np.int64)
    return np.where(relevant[indices], 1.0, -1.0)


class QuerySampler:
    """Sample evaluation queries from a dataset.

    Queries are drawn without replacement when possible, stratified across
    categories so every category contributes queries (matching the paper's
    "200 queries are generated randomly" protocol while keeping the variance
    of the estimate low).
    """

    def __init__(self, dataset: ImageDataset, *, random_state: RandomState = None) -> None:
        self.dataset = dataset
        self._rng = ensure_rng(random_state)

    def sample(self, num_queries: int, *, stratified: bool = True) -> np.ndarray:
        """Return *num_queries* image indices to use as queries."""
        if num_queries < 1:
            raise ValidationError(f"num_queries must be >= 1, got {num_queries}")
        if not stratified:
            replace = num_queries > self.dataset.num_images
            return self._rng.choice(
                self.dataset.num_images, size=num_queries, replace=replace
            ).astype(np.int64)
        return self._stratified_sample(num_queries)

    def _stratified_sample(self, num_queries: int) -> np.ndarray:
        dataset = self.dataset
        categories = np.arange(dataset.num_categories)
        self._rng.shuffle(categories)
        queries: List[int] = []
        per_category = [dataset.indices_of_category(int(c)) for c in categories]
        cursor = 0
        # Round-robin over categories, drawing a fresh random image each pass.
        while len(queries) < num_queries:
            category_pool = per_category[cursor % len(per_category)]
            choice = int(self._rng.choice(category_pool))
            queries.append(choice)
            cursor += 1
        return np.asarray(queries[:num_queries], dtype=np.int64)
