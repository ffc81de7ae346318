"""repro.service — the session-oriented retrieval-service API.

The multi-user interaction surface of the system:

* :class:`RetrievalService` — the facade: ``open_session`` →
  ``submit_feedback``\\ * → ``close_session`` over one shared database.
* :class:`SearchRequest` / :class:`FeedbackRequest` /
  :class:`RankingResponse` / :class:`SessionView` — the typed DTOs.
* :class:`SessionState` — the explicit, serializable per-session state the
  stateless feedback strategies operate on.
* :class:`SessionStore` (+ :class:`InMemorySessionStore`,
  :class:`FileSessionStore`) — thread-safe session persistence with
  atomic on-disk writes.

Every public entry point of the service is thread-safe; see
:mod:`repro.service.service` for the lock discipline.
"""

from __future__ import annotations

from repro.service.dtos import (
    FeedbackRequest,
    RankingResponse,
    SearchRequest,
    SessionView,
)
from repro.service.service import LOG_POLICIES, RetrievalService
from repro.service.state import SessionState
from repro.service.store import FileSessionStore, InMemorySessionStore, SessionStore

__all__ = [
    "RetrievalService",
    "LOG_POLICIES",
    "SearchRequest",
    "FeedbackRequest",
    "RankingResponse",
    "SessionView",
    "SessionState",
    "SessionStore",
    "InMemorySessionStore",
    "FileSessionStore",
]
