"""User-feedback log subsystem (Sections 2 and 6.3 of the paper).

The log of historical relevance-feedback sessions is the second information
modality the coupled SVM learns from.  A *log session* is one feedback round:
a set of images judged relevant (+1) or irrelevant (−1) by a user.

The subsystem has one log object and one read view:

* :class:`LogStore` — the log: append-only storage
  (``append``/``extend``/``extend_once``/``scan``/``compact``)
  that also maintains the sparse relevance matrix ``R`` (sessions ×
  images) *incrementally*; the column ``r_i`` of ``R`` is the "user log
  vector" describing image ``i``.  Two backends: :class:`InMemoryLogStore`
  and the crash-safe, multi-process :class:`FileLogStore` segment store;
* :class:`LogSnapshot` — an immutable, versioned capture of ``R``
  (:meth:`LogStore.snapshot`, one object per log version) that feedback
  strategies and the evaluation protocol read while appends continue.

Because no real users are available, :class:`SimulatedUser` and
:func:`collect_feedback_log` replay the paper's collection protocol: a random
query, an initial top-20 retrieval by low-level features, then a relevance
judgement of those 20 images from ground-truth category membership perturbed
by a configurable noise rate (human subjectivity).
"""

from __future__ import annotations

from repro.logdb.file_store import FileLogStore
from repro.logdb.relevance_matrix import LogSnapshot, RelevanceMatrix
from repro.logdb.session import LogSession
from repro.logdb.simulation import (
    LogSimulationConfig,
    SimulatedUser,
    collect_feedback_log,
)
from repro.logdb.store import InMemoryLogStore, LogStore

__all__ = [
    "LogSession",
    "RelevanceMatrix",
    "LogSnapshot",
    "LogStore",
    "InMemoryLogStore",
    "FileLogStore",
    "SimulatedUser",
    "LogSimulationConfig",
    "collect_feedback_log",
]
