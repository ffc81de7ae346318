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
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.cbir.query import Query, RetrievalResult
from repro.exceptions import ValidationError
from repro.utils.validation import check_top_k

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
    never truncated or parsed.  So is anything that is not a mapping or a
    sequence of pairs.
    """
    try:
        items = dict(judgements).items()
    except (TypeError, ValueError):
        raise ValidationError(
            "judgements must be a mapping of image index to +1/-1, got "
            f"{type(judgements).__name__}"
        ) from None
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
        Registry name of the feedback scheme for this session's rounds;
        ``None`` uses :data:`~repro.service.service.DEFAULT_ALGORITHM`.
    algorithm_params:
        JSON-serialisable constructor parameters of the named scheme.
    session_id:
        Optional client-chosen id (letters, digits, ``. _ -``); the service
        assigns one when omitted.
    """

    query: Union[int, np.integer, np.ndarray, Query]
    top_k: Optional[int] = 20
    algorithm: Optional[str] = None
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
        object.__setattr__(self, "top_k", check_top_k(self.top_k))
        if not (self.algorithm is None or isinstance(self.algorithm, str)):
            raise ValidationError(
                "algorithm must be a registry-named scheme (a str) or None, "
                f"got {type(self.algorithm).__name__}"
            )
        if self.algorithm_params and self.algorithm is None:
            raise ValidationError(
                "algorithm_params only apply to a registry-named algorithm"
            )
        if self.session_id is not None:
            check_session_id(self.session_id)
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
        check_session_id(self.session_id)
        object.__setattr__(self, "judgements", _clean_judgements(self.judgements))
        object.__setattr__(self, "top_k", check_top_k(self.top_k))


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
        Wall-clock timestamps of the session's opening and of its latest
        round.
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


def coerce_search(
    request: Union[SearchRequest, int, np.integer, np.ndarray, Query],
    fields: Mapping[str, Any],
) -> SearchRequest:
    """An ``open_session`` argument as a :class:`SearchRequest`.

    A :class:`SearchRequest` passes through, and *fields* must then be
    empty; anything else is the query of a new request with *fields*
    (``top_k``, ``algorithm``, ...).  Both front ends, the retrieval
    service and the cluster router, read their open calls through this.
    """
    if isinstance(request, SearchRequest):
        if fields:
            raise ValidationError(
                "keyword arguments only apply when passing a raw query"
            )
        return request
    return SearchRequest(query=request, **fields)


def coerce_feedback(
    request: Union[FeedbackRequest, str],
    judgements: Optional[Mapping[int, int]] = None,
    top_k: Optional[int] = None,
) -> FeedbackRequest:
    """A ``submit_feedback`` argument as a :class:`FeedbackRequest`.

    A :class:`FeedbackRequest` passes through, and *judgements* and
    *top_k* must then be ``None``; anything else is the session id of a
    new request.
    """
    if isinstance(request, FeedbackRequest):
        if judgements is not None or top_k is not None:
            raise ValidationError(
                "judgements/top_k only apply when passing a session id"
            )
        return request
    return FeedbackRequest(session_id=request, judgements=judgements, top_k=top_k)


def check_feedback_batch(requests: Sequence[FeedbackRequest]) -> List[FeedbackRequest]:
    """*requests* as a list; an item that is not a :class:`FeedbackRequest`
    raises :class:`ValidationError` naming its type."""
    for request in requests:
        if not isinstance(request, FeedbackRequest):
            raise ValidationError(
                "a feedback batch takes FeedbackRequest items, got "
                f"{type(request).__name__}"
            )
    return list(requests)


#: A session id: ASCII letters, digits and ``. _ -``, safe as a file name.
#: ``str.isalnum`` would also take ``é``, ``²`` or ``٣``, and NFC / NFD forms
#: of one rendered id would name two session files.
_SESSION_ID = re.compile(r"[A-Za-z0-9._-]+")


def check_session_id(session_id: str) -> str:
    """Return *session_id* if it is a non-empty ``str`` of ASCII letters,
    digits and ``. _ -`` (safe as a file name); raise :class:`ValidationError`."""
    if not (isinstance(session_id, str) and _SESSION_ID.fullmatch(session_id)):
        raise ValidationError(
            f"session_id must match [A-Za-z0-9._-]+ , got {session_id!r}"
        )
    return session_id


def check_session_ids(session_ids: Sequence[str]) -> List[str]:
    """:func:`check_session_id` of each id; a bare ``str``, whose characters
    would pass as one-letter ids, raises :class:`ValidationError`."""
    if isinstance(session_ids, str):
        raise ValidationError(
            f"expected a sequence of session ids, got the string {session_ids!r}"
        )
    return [check_session_id(session_id) for session_id in session_ids]
