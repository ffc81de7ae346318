"""The single-round feedback evaluation protocol of Section 6.4."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.cbir.database import ImageDatabase
from repro.cbir.query import Query
from repro.cbir.search import SearchEngine
from repro.datasets.dataset import ImageDataset
from repro.datasets.splits import QuerySampler, relevance_ground_truth, relevance_labels
from repro.evaluation.metrics import PAPER_CUTOFFS
from repro.exceptions import ConfigurationError, EvaluationError
from repro.feedback.base import FeedbackContext
from repro.utils.rng import RandomState, ensure_rng

__all__ = ["ProtocolConfig", "EvaluationProtocol"]


@dataclass(frozen=True)
class ProtocolConfig:
    """Configuration of the evaluation protocol.

    Attributes
    ----------
    num_queries:
        Number of random queries (200 in the paper).
    num_labeled:
        Number of initially-returned images the simulated user labels
        (20 in the paper).
    cutoffs:
        Precision cutoffs to report (20..100 in the paper).
    feedback_noise:
        Label-flip probability of the *evaluation* feedback (the paper's
        evaluation judgements are noise-free; the knob exists for
        robustness ablations).
    seed:
        Seed for query sampling and feedback noise.
    """

    num_queries: int = 200
    num_labeled: int = 20
    cutoffs: Tuple[int, ...] = PAPER_CUTOFFS
    feedback_noise: float = 0.0
    seed: int = 29

    def __post_init__(self) -> None:
        if self.num_queries < 1:
            raise ConfigurationError(f"num_queries must be >= 1, got {self.num_queries}")
        if self.num_labeled < 2:
            raise ConfigurationError(f"num_labeled must be >= 2, got {self.num_labeled}")
        if not self.cutoffs:
            raise ConfigurationError("cutoffs must not be empty")
        if any(k < 1 for k in self.cutoffs):
            raise ConfigurationError("all cutoffs must be >= 1")
        if not 0.0 <= self.feedback_noise <= 1.0:
            raise ConfigurationError(
                f"feedback_noise must be in [0, 1], got {self.feedback_noise}"
            )


class EvaluationProtocol:
    """Prepares per-query feedback contexts and ground truth for evaluation.

    For every sampled query the protocol performs the initial Euclidean
    retrieval, labels the top ``num_labeled`` returns automatically from
    category ground truth (optionally perturbed by ``feedback_noise``) and
    packages everything into the :class:`FeedbackContext` each scheme
    consumes.  Every scheme therefore sees exactly the same queries and the
    same feedback — the paper's "same experimental settings are adopted in
    the schemes compared".
    """

    def __init__(
        self,
        dataset: ImageDataset,
        database: ImageDatabase,
        config: Optional[ProtocolConfig] = None,
        *,
        random_state: RandomState = None,
    ) -> None:
        if dataset.num_images != database.num_images:
            raise EvaluationError(
                "dataset and database cover a different number of images "
                f"({dataset.num_images} vs {database.num_images})"
            )
        self.dataset = dataset
        self.database = database
        self.config = config if config is not None else ProtocolConfig()
        self._rng = ensure_rng(self.config.seed if random_state is None else random_state)
        self._search = SearchEngine(database)
        self._log_snapshot = None  # captured lazily; see log_snapshot()

    # ------------------------------------------------------------------ API
    def sample_queries(self) -> np.ndarray:
        """Sample the evaluation query indices (stratified over categories).

        Also marks the start of a fresh evaluation sweep: the cached log
        snapshot is dropped, so the sweep scores against the log *as of
        now* (a later sweep through the same protocol sees any sessions a
        shared service closed in between).
        """
        self._log_snapshot = None
        sampler = QuerySampler(self.dataset, random_state=self._rng)
        return sampler.sample(self.config.num_queries)

    def build_context(self, query_index: int) -> FeedbackContext:
        """Initial retrieval + automatic labelling for one query."""
        query = Query(query_index=int(query_index))
        labeled_indices = self._search.search(
            query, top_k=self.config.num_labeled
        ).image_indices
        labels = relevance_labels(self.dataset, query.query_index, labeled_indices)
        labels = self._maybe_add_noise(labels)
        labels = self._ensure_two_classes(labels)
        return FeedbackContext(
            database=self.database,
            query=query,
            labeled_indices=labeled_indices,
            labels=labels,
            log=self.log_snapshot(),
        )

    def log_snapshot(self):
        """One immutable log snapshot shared by a whole evaluation sweep.

        Captured lazily on the first context built after
        :meth:`sample_queries` (which starts a sweep and drops the previous
        capture) and reused for every later context, so all schemes and all
        queries of a run score against the **same** relevance matrix — even
        when the run shares its database with a live, log-growing service —
        while a *new* sweep picks up whatever the log grew to meanwhile.
        """
        if self._log_snapshot is None:
            self._log_snapshot = self.database.log_database.snapshot()
        return self._log_snapshot

    def ground_truth(self, query_index: int) -> np.ndarray:
        """Boolean relevance of every database image for *query_index*."""
        return relevance_ground_truth(self.dataset, int(query_index))

    # ------------------------------------------------------------- internals
    def _maybe_add_noise(self, labels: np.ndarray) -> np.ndarray:
        noise = self.config.feedback_noise
        if noise <= 0:
            return labels
        flips = self._rng.random(labels.shape[0]) < noise
        noisy = labels.copy()
        noisy[flips] = -noisy[flips]
        return noisy

    @staticmethod
    def _ensure_two_classes(labels: np.ndarray) -> np.ndarray:
        """Guarantee the feedback contains both classes whenever possible.

        If every one of the top-``num_labeled`` images happens to share the
        query's category (or none does), flip the single least-confident
        label so discriminative schemes remain trainable; this mirrors what
        practitioners do and affects all schemes identically.
        """
        if np.unique(labels).size >= 2:
            return labels
        adjusted = labels.copy()
        adjusted[-1] = -adjusted[-1]
        return adjusted
