"""Typed request/response DTOs of the retrieval service.

The service speaks value objects, not engine internals: a client opens a
session with a :class:`SearchRequest`, drives rounds with
:class:`FeedbackRequest`\\ s, reads rankings from
:class:`RankingResponse`\\ s and inspects lifecycle state through
:class:`SessionView`\\ s.  All four are frozen dataclasses that validate on
construction, so malformed traffic is rejected at the API boundary instead
of deep inside a solver — and being immutable, they are safe to share
across serving threads without any locking.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Union

import numpy as np

from repro.cbir.query import Query, RetrievalResult
from repro.exceptions import ValidationError
from repro.feedback.base import RelevanceFeedbackAlgorithm

__all__ = [
    "SearchRequest",
    "FeedbackRequest",
    "RankingResponse",
    "SessionView",
]


def _clean_judgements(judgements: Mapping[int, int]) -> Dict[int, int]:
    """Validate a ±1 judgement mapping, preserving its insertion order.

    Order is semantic: judgements arrive in ranking order and the SVM stages
    consume the labelled set in exactly that order, so two sessions fed the
    same judgements in the same order reproduce each other bit-for-bit.

    Indices and labels must be integers (anything ``operator.index``
    accepts, numpy integers included): a float or a string is rejected,
    never truncated or parsed.
    """
    items = dict(judgements).items()
    try:
        cleaned = {operator.index(k): operator.index(v) for k, v in items}
    except TypeError:
        raise ValidationError(
            "judged image indices and judgements must be integers"
        ) from None
    if not cleaned:
        raise ValidationError("a feedback round needs at least one judgement")
    if any(v not in (-1, 1) for v in cleaned.values()):
        raise ValidationError("judgements must be +1 or -1")
    if any(k < 0 for k in cleaned):
        raise ValidationError("judged image indices must be non-negative")
    return cleaned


def _clean_top_k(top_k: Optional[int]) -> Optional[int]:
    """``None`` or an integer >= 1; ``2.5`` or ``"3"`` is rejected, never
    truncated or parsed (the rule :func:`_clean_judgements` applies)."""
    try:
        cleaned = None if top_k is None else operator.index(top_k)
    except TypeError:
        cleaned = 0
    if cleaned is not None and cleaned < 1:
        raise ValidationError(f"top_k must be an integer >= 1, got {top_k!r}")
    return cleaned


@dataclass(frozen=True)
class SearchRequest:
    """Open a retrieval session and run the first-round search.

    Attributes
    ----------
    query:
        Database image index, :class:`~repro.cbir.query.Query`, or an
        external feature vector.
    top_k:
        Size of the initial ranking (``None`` returns the full ranking).
    algorithm:
        Feedback scheme for this session's rounds: a registry name
        (serializable sessions) or an already-built strategy instance
        (shared-instance sessions; these cannot be persisted to disk).
        ``None`` uses the service default.
    algorithm_params:
        Constructor parameters for a *named* algorithm.
    session_id:
        Optional client-chosen id (letters, digits, ``. _ -``); the service
        assigns one when omitted.
    """

    query: Union[int, np.integer, np.ndarray, Query]
    top_k: Optional[int] = 20
    algorithm: Union[None, str, RelevanceFeedbackAlgorithm] = None
    algorithm_params: Mapping[str, Any] = field(default_factory=dict)
    session_id: Optional[str] = None

    def __post_init__(self) -> None:
        query = self.query
        if isinstance(query, (int, np.integer)):
            query = Query(query_index=int(query))
        elif isinstance(query, np.ndarray):
            query = Query(feature_vector=query)
        elif not isinstance(query, Query):
            raise ValidationError(
                "query must be a database index, a feature vector, or a Query, "
                f"got {type(self.query).__name__}"
            )
        object.__setattr__(self, "query", query)
        object.__setattr__(self, "top_k", _clean_top_k(self.top_k))
        if self.algorithm_params and not isinstance(self.algorithm, str):
            raise ValidationError(
                "algorithm_params only apply to a registry-named algorithm"
            )
        if self.session_id is not None and not _is_safe_id(self.session_id):
            raise ValidationError(
                "session_id must match [A-Za-z0-9._-]+ , got "
                f"{self.session_id!r}"
            )
        object.__setattr__(self, "algorithm_params", dict(self.algorithm_params))


@dataclass(frozen=True)
class FeedbackRequest:
    """Submit one round of relevance judgements to an open session.

    Attributes
    ----------
    session_id:
        The session the round belongs to.
    judgements:
        Image index → ±1 mapping; insertion order is preserved and matters
        (see :func:`_clean_judgements`).  Judgements accumulate across the
        session's rounds.
    top_k:
        Size of the refined ranking; ``None`` returns the full ranking
        (matching :meth:`RelevanceFeedbackAlgorithm.rank`).
    """

    session_id: str
    judgements: Mapping[int, int]
    top_k: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.session_id:
            raise ValidationError("session_id must not be empty")
        object.__setattr__(self, "judgements", _clean_judgements(self.judgements))
        object.__setattr__(self, "top_k", _clean_top_k(self.top_k))


@dataclass(frozen=True)
class RankingResponse:
    """One ranking produced by the service for one session.

    Attributes
    ----------
    session_id:
        The session the ranking belongs to.
    round_index:
        0 for the initial (pre-feedback) retrieval, then 1, 2, ... for the
        refined rankings of each feedback round.
    result:
        The ranked images, scores, query and algorithm label.
    solver_stats:
        Per-round solve cost published by the strategy (scoring ``path``,
        ``solver_iterations``, ``label_flips``, ``gram_builds``,
        ``kernel_evaluations``); ``None`` for round 0 and for strategies
        that publish nothing.
    """

    session_id: str
    round_index: int
    result: RetrievalResult
    solver_stats: Optional[Mapping[str, Any]] = None

    @property
    def image_indices(self) -> np.ndarray:
        """Ranked database indices (most relevant first)."""
        return self.result.image_indices

    @property
    def scores(self) -> np.ndarray:
        """Scores aligned with :attr:`image_indices`."""
        return self.result.scores


@dataclass(frozen=True)
class SessionView:
    """Read-only snapshot of one session's lifecycle state.

    Attributes
    ----------
    session_id, query, algorithm:
        Identity of the session and the scheme serving it.
    rounds_completed:
        Number of feedback rounds scored so far (0 right after opening).
    judgements:
        Accumulated judgements, in arrival order.
    created_at, last_active:
        Service-clock timestamps (TTL eviction measures idleness from
        ``last_active``).
    closed:
        Whether the session has been closed (its rounds flushed to the log).
    solver_stats:
        Last round's solve cost, as in
        :attr:`RankingResponse.solver_stats` (``None`` before the first
        scored round or when the strategy publishes nothing).
    """

    session_id: str
    query: Query
    algorithm: str
    rounds_completed: int
    judgements: Mapping[int, int]
    created_at: float
    last_active: float
    closed: bool = False
    solver_stats: Optional[Mapping[str, Any]] = None


def _is_safe_id(session_id: str) -> bool:
    return bool(session_id) and all(
        ch.isalnum() or ch in "._-" for ch in session_id
    )
