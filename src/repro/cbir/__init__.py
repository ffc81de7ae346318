"""Content-based image retrieval: the shared corpus and first-round search.

:class:`ImageDatabase` ties the feature store, the attached vector index and
the feedback-log database together; :class:`SearchEngine` ranks it by
Euclidean distance.  The interactive loop on top (sessions, feedback
rounds, log growth) is :class:`repro.service.RetrievalService`.
"""

from __future__ import annotations

from repro.cbir.database import ImageDatabase
from repro.cbir.query import Query, RetrievalResult
from repro.cbir.search import SearchEngine

__all__ = [
    "ImageDatabase",
    "SearchEngine",
    "Query",
    "RetrievalResult",
]
