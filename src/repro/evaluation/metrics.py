"""Retrieval-quality metrics.

The paper's metric is *Average Precision*, defined (Section 6.4) as "the
number of relevant samples in the returned images divided by the total
number of returned images" — i.e. precision at a cutoff, averaged over
queries.  The "MAP" row of Tables 1–2 is the mean of that average precision
over the reported cutoffs (20, 30, ..., 100).
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

import numpy as np

from repro.exceptions import EvaluationError

__all__ = [
    "precision_at_k",
    "precision_curve",
    "average_precision_at_cutoffs",
    "mean_average_precision",
]

#: The cutoffs reported in Tables 1 and 2 of the paper.
PAPER_CUTOFFS: tuple[int, ...] = (20, 30, 40, 50, 60, 70, 80, 90, 100)


def precision_at_k(ranked_indices: Sequence[int], relevant: np.ndarray, k: int) -> float:
    """Precision of the top-*k* of a ranking.

    Parameters
    ----------
    ranked_indices:
        Database indices ordered from most to least relevant.
    relevant:
        Boolean relevance of every database image.
    k:
        Cutoff; must not exceed the ranking length.
    """
    if k < 1:
        raise EvaluationError(f"k must be >= 1, got {k}")
    ranking = np.asarray(ranked_indices, dtype=np.int64).ravel()
    if k > ranking.shape[0]:
        raise EvaluationError(
            f"k={k} exceeds the ranking length {ranking.shape[0]}"
        )
    flags = np.asarray(relevant, dtype=bool)
    return float(np.mean(flags[ranking[:k]]))


def precision_curve(
    ranked_indices: Sequence[int],
    relevant: np.ndarray,
    cutoffs: Iterable[int] = PAPER_CUTOFFS,
) -> Dict[int, float]:
    """Precision at each cutoff in *cutoffs* for one query."""
    return {int(k): precision_at_k(ranked_indices, relevant, int(k)) for k in cutoffs}


def average_precision_at_cutoffs(
    curves: Sequence[Dict[int, float]],
    cutoffs: Iterable[int] = PAPER_CUTOFFS,
) -> Dict[int, float]:
    """Average the per-query precision curves over queries, per cutoff."""
    if not curves:
        raise EvaluationError("average_precision_at_cutoffs needs at least one curve")
    result: Dict[int, float] = {}
    for k in cutoffs:
        k = int(k)
        values = [curve[k] for curve in curves if k in curve]
        if not values:
            raise EvaluationError(f"no per-query values available for cutoff {k}")
        result[k] = float(np.mean(values))
    return result


def mean_average_precision(average_precisions: Dict[int, float]) -> float:
    """The paper's MAP row: the mean of the per-cutoff average precisions."""
    if not average_precisions:
        raise EvaluationError("mean_average_precision needs at least one cutoff value")
    return float(np.mean(list(average_precisions.values())))
