"""Registry / factory for the retrieval schemes compared in the paper."""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.exceptions import ValidationError
from repro.feedback.base import RelevanceFeedbackAlgorithm
from repro.feedback.euclidean import EuclideanFeedback
from repro.feedback.lrf_2svms import LRF2SVMs
from repro.feedback.rf_svm import RFSVM

__all__ = ["make_algorithm", "available_algorithms"]


def _make_lrf_csvm(**kwargs) -> RelevanceFeedbackAlgorithm:
    # Imported lazily: repro.core depends on repro.feedback.base, so importing
    # it at module load time would create a cycle.
    from repro.core.lrf_csvm import LRFCSVM

    return LRFCSVM(**kwargs)


def _make_lrf_graph(**kwargs) -> RelevanceFeedbackAlgorithm:
    # Imported lazily: repro.graph depends on repro.feedback.base, so importing
    # it at module load time would create a cycle.
    from repro.graph.feedback import LabelPropagationFeedback

    return LabelPropagationFeedback(**kwargs)


_FACTORIES: Dict[str, Callable[..., RelevanceFeedbackAlgorithm]] = {
    "euclidean": EuclideanFeedback,
    "rf-svm": RFSVM,
    "lrf-2svms": LRF2SVMs,
    "lrf-csvm": _make_lrf_csvm,
    "lrf-graph": _make_lrf_graph,
}


def available_algorithms() -> List[str]:
    """Names of every registered retrieval / feedback scheme."""
    return sorted(_FACTORIES)


def make_algorithm(name: str, **kwargs) -> RelevanceFeedbackAlgorithm:
    """Instantiate a scheme by name, forwarding *kwargs* to its constructor.

    Raises
    ------
    ValidationError
        For an unknown name, or keywords the constructor does not take.
        An out-of-range value raises the constructor's own error.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValidationError(
            f"unknown algorithm '{name}', expected one of {available_algorithms()}"
        ) from None
    try:
        return factory(**kwargs)
    except TypeError as error:
        raise ValidationError(f"cannot build algorithm '{name}': {error}") from None
