"""Strategies for selecting the unlabeled samples used by the coupled SVM.

The paper discusses this choice at length (Sections 5 and 6.5): engaging all
unlabeled images is too slow for interactive feedback, and — counter to
active-learning intuition — choosing samples *near the decision boundary*
hurt performance in their experiments.  The strategy that worked, and the one
Figure 1 uses, is to take the samples with the largest combined SVM score
(most confidently relevant, seeded with pseudo-label +1) for half of the
budget and the smallest combined score (most confidently irrelevant, seeded
with −1) for the other half.

All three variants are implemented so the selection ablation can compare
them.
"""

from __future__ import annotations

import abc
from typing import Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.arrays import stable_top_k
from repro.utils.rng import RandomState, ensure_rng

__all__ = [
    "UnlabeledSelectionStrategy",
    "NearLabeledSelection",
    "BoundaryProximitySelection",
    "RandomSelection",
    "make_selection_strategy",
]


class UnlabeledSelectionStrategy(abc.ABC):
    """Select unlabeled samples and their initial pseudo-labels."""

    #: Registry name of the strategy.
    name: str = "selection"

    @abc.abstractmethod
    def select(
        self,
        combined_scores: np.ndarray,
        labeled_indices: np.ndarray,
        num_unlabeled: int,
        *,
        random_state: RandomState = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Pick unlabeled samples.

        Parameters
        ----------
        combined_scores:
            Combined SVM decision value ``f_w(x_i) + f_u(r_i)`` for every
            database image.
        labeled_indices:
            Indices already labelled by the user this round (excluded).
        num_unlabeled:
            Number of unlabeled samples to select (``N'`` in the paper).

        Returns
        -------
        (indices, initial_labels):
            Selected database indices and their initial ±1 pseudo-labels.
        """

    # ------------------------------------------------------------ shared bits
    @staticmethod
    def _candidate_indices(
        num_images: int, labeled_indices: np.ndarray
    ) -> np.ndarray:
        mask = np.ones(num_images, dtype=bool)
        mask[np.asarray(labeled_indices, dtype=np.int64)] = False
        return np.flatnonzero(mask)

    @staticmethod
    def _validate(num_unlabeled: int) -> int:
        if num_unlabeled < 2:
            raise ValidationError(f"num_unlabeled must be >= 2, got {num_unlabeled}")
        return int(num_unlabeled)


class NearLabeledSelection(UnlabeledSelectionStrategy):
    """The paper's strategy: half highest-scoring, half lowest-scoring samples.

    Samples with the largest combined decision value are the ones most
    similar to the positive feedback (seeded with ``+1``); those with the
    smallest value are most similar to the negative feedback (seeded with
    ``-1``).
    """

    name = "near-labeled"

    def select(
        self,
        combined_scores: np.ndarray,
        labeled_indices: np.ndarray,
        num_unlabeled: int,
        *,
        random_state: RandomState = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        num_unlabeled = self._validate(num_unlabeled)
        scores = np.asarray(combined_scores, dtype=np.float64).ravel()
        candidates = self._candidate_indices(scores.shape[0], labeled_indices)
        if candidates.size == 0:
            raise ValidationError("no unlabeled candidates are available")
        budget = min(num_unlabeled, candidates.size)
        half_positive = budget // 2 + budget % 2
        half_negative = budget // 2

        # Two selections instead of a sort of the whole pool.  Positives come
        # best first (ties by ascending index); negatives are that same
        # order read from its far end — worst first, ties by *descending*
        # index — hence the reversed views.
        pool_scores = scores[candidates]
        positives = candidates[stable_top_k(-pool_scores, half_positive)]
        negatives = candidates[::-1][stable_top_k(pool_scores[::-1], half_negative)]
        # Guard against overlap when the candidate pool is tiny.
        negatives = negatives[~np.isin(negatives, positives)]

        indices = np.concatenate([positives, negatives])
        labels = np.concatenate(
            [np.ones(len(positives)), -np.ones(len(negatives))]
        )
        return indices, labels


class BoundaryProximitySelection(UnlabeledSelectionStrategy):
    """Active-learning-style strategy: samples closest to the decision boundary.

    Included because the paper reports trying it and finding it *unhelpful*;
    the selection ablation reproduces that comparison.
    """

    name = "boundary"

    def select(
        self,
        combined_scores: np.ndarray,
        labeled_indices: np.ndarray,
        num_unlabeled: int,
        *,
        random_state: RandomState = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        num_unlabeled = self._validate(num_unlabeled)
        scores = np.asarray(combined_scores, dtype=np.float64).ravel()
        candidates = self._candidate_indices(scores.shape[0], labeled_indices)
        if candidates.size == 0:
            raise ValidationError("no unlabeled candidates are available")
        budget = min(num_unlabeled, candidates.size)
        order = candidates[np.argsort(np.abs(scores[candidates]), kind="stable")]
        indices = order[:budget].astype(np.int64)
        labels = np.where(scores[indices] >= 0.0, 1.0, -1.0)
        # Ensure both pseudo-classes are represented so the SVMs stay trainable.
        if np.all(labels > 0):
            labels[-1] = -1.0
        elif np.all(labels < 0):
            labels[-1] = 1.0
        return indices, labels


class RandomSelection(UnlabeledSelectionStrategy):
    """Uniformly random unlabeled samples (the weakest sensible control)."""

    name = "random"

    def select(
        self,
        combined_scores: np.ndarray,
        labeled_indices: np.ndarray,
        num_unlabeled: int,
        *,
        random_state: RandomState = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        num_unlabeled = self._validate(num_unlabeled)
        rng = ensure_rng(random_state)
        scores = np.asarray(combined_scores, dtype=np.float64).ravel()
        candidates = self._candidate_indices(scores.shape[0], labeled_indices)
        if candidates.size == 0:
            raise ValidationError("no unlabeled candidates are available")
        budget = min(num_unlabeled, candidates.size)
        indices = rng.choice(candidates, size=budget, replace=False).astype(np.int64)
        labels = np.where(scores[indices] >= 0.0, 1.0, -1.0)
        if np.all(labels > 0):
            labels[-1] = -1.0
        elif np.all(labels < 0):
            labels[-1] = 1.0
        return indices, labels


_STRATEGIES = {
    NearLabeledSelection.name: NearLabeledSelection,
    BoundaryProximitySelection.name: BoundaryProximitySelection,
    RandomSelection.name: RandomSelection,
}


def make_selection_strategy(name: str) -> UnlabeledSelectionStrategy:
    """Build a selection strategy from its registry name."""
    try:
        return _STRATEGIES[name]()
    except KeyError:
        raise ValidationError(
            f"unknown selection strategy '{name}', expected one of {sorted(_STRATEGIES)}"
        ) from None
