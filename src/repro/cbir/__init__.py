"""Content-based image retrieval: the shared corpus and first-round search.

:class:`ImageDatabase` ties the feature store, the attached vector index and
the feedback-log database together; :class:`SearchEngine` ranks it by visual
similarity.  The interactive loop on top (sessions, feedback rounds, log
growth) is :class:`repro.service.RetrievalService`.
"""

from __future__ import annotations

from repro.cbir.database import ImageDatabase
from repro.cbir.query import Query, RetrievalResult
from repro.cbir.search import SearchEngine
from repro.cbir.similarity import (
    cosine_distances,
    euclidean_distances,
    manhattan_distances,
    make_distance,
)

__all__ = [
    "ImageDatabase",
    "SearchEngine",
    "Query",
    "RetrievalResult",
    "euclidean_distances",
    "manhattan_distances",
    "cosine_distances",
    "make_distance",
]
