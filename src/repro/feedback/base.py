"""Base class and shared context for relevance-feedback algorithms.

Algorithms are **stateless strategies**: everything a feedback round needs
travels in the :class:`FeedbackContext`, and anything worth carrying from one
round to the next (warm-start multipliers, diagnostics) lives in the
context's optional :class:`FeedbackMemory` — an explicit, serializable bag of
arrays owned by the caller (typically a
:class:`repro.service.SessionState`).  A context without a memory behaves
exactly like the pre-service single-shot path.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.cbir.database import ImageDatabase
from repro.cbir.query import Query, RetrievalResult
from repro.exceptions import ValidationError
from repro.logdb.relevance_matrix import LogSnapshot
from repro.logdb.store import LogStore
from repro.utils.arrays import stable_top_k
from repro.utils.validation import check_top_k

__all__ = [
    "FeedbackMemory",
    "FeedbackContext",
    "FirstReadSnapshot",
    "RelevanceFeedbackAlgorithm",
    "log_vectors_informative",
]


def log_vectors_informative(log_vectors: np.ndarray) -> bool:
    """Whether the labelled images' log vectors carry any signal to learn from.

    The one rule the log-aware strategies share: a log SVM is only worth
    training when at least one labelled image was ever judged in the log
    (some entry of the block is non-zero).  Otherwise — an empty log, or
    feedback on images no session has touched — they degrade to the
    visual modality.
    """
    return bool(np.any(log_vectors))


@dataclass
class FeedbackMemory:
    """Serializable per-session scratch carried across feedback rounds.

    Attributes
    ----------
    arrays:
        Named numpy arrays (e.g. warm-start α vectors keyed by the database
        indices they belong to).  Arrays round-trip losslessly through the
        session stores, so a reloaded session resumes bit-identically.
    meta:
        JSON-serialisable diagnostics (solver counters, path taken, round
        count).  Strategies may read and write both freely; an empty memory
        must always be a valid starting point.
    """

    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    def get_array(self, key: str) -> Optional[np.ndarray]:
        """The stored array under *key*, or ``None``."""
        return self.arrays.get(key)

    def set_arrays(self, **named: np.ndarray) -> None:
        """Store every keyword argument as a named array."""
        for key, value in named.items():
            self.arrays[key] = np.asarray(value)

    def drop(self, *keys: str) -> None:
        """Remove the named arrays if present."""
        for key in keys:
            self.arrays.pop(key, None)


class FirstReadSnapshot:
    """A batch's log snapshot, taken when a round first reads it, then shared.

    Give every context of one batch the same instance as its
    :attr:`FeedbackContext.log`: the first :meth:`snapshot` call asks
    *log_store* for its current :class:`LogSnapshot` and every later call,
    from any context, returns that object, whatever was appended
    meanwhile.  A batch whose rounds never read ``R`` (euclidean, rf-svm)
    takes no snapshot at all.
    """

    def __init__(self, log_store: LogStore) -> None:
        self._log_store = log_store
        self._snapshot: Optional[LogSnapshot] = None
        self._lock = threading.Lock()

    def snapshot(self) -> LogSnapshot:
        """The shared snapshot, taken on the first call."""
        with self._lock:
            if self._snapshot is None:
                self._snapshot = self._log_store.snapshot()
            return self._snapshot


@dataclass(frozen=True)
class FeedbackContext:
    """Everything an algorithm needs for one feedback round.

    Attributes
    ----------
    database:
        The image database (visual features + feedback log).
    query:
        The query being refined.
    labeled_indices:
        Database indices of the images the user has judged this round.
    labels:
        ±1 relevance judgements aligned with *labeled_indices*.
    memory:
        Optional per-session :class:`FeedbackMemory` the strategy may read
        and update; ``None`` (the default) runs the round statelessly.
    log:
        Optional :class:`~repro.logdb.relevance_matrix.LogSnapshot`, or a
        :class:`FirstReadSnapshot`, the round should read the feedback log
        through.  The evaluation protocol injects one snapshot per sweep
        and the service one :class:`FirstReadSnapshot` per round batch, so
        every strategy in the batch sees one consistent relevance matrix
        even while concurrent sessions keep appending; ``None`` (the
        default) makes :meth:`log_snapshot` ask the log database for its
        current one on demand (the same object for as long as the log
        version is unchanged).
    previous_ranking:
        The session's previous ranking (its round-0 search, or its last
        feedback round), or ``None``.  Only a scheme whose ranking does not
        depend on the judgements may answer from it
        (:class:`~repro.feedback.euclidean.EuclideanFeedback`).
    """

    database: ImageDatabase
    query: Query
    labeled_indices: np.ndarray
    labels: np.ndarray
    memory: Optional[FeedbackMemory] = None
    log: Union[LogSnapshot, FirstReadSnapshot, None] = None
    previous_ranking: Optional[RetrievalResult] = None

    def __post_init__(self) -> None:
        indices = np.asarray(self.labeled_indices, dtype=np.int64).ravel()
        labels = np.asarray(self.labels, dtype=np.float64).ravel()
        if indices.shape[0] != labels.shape[0]:
            raise ValidationError(
                f"labeled_indices ({indices.shape[0]}) and labels ({labels.shape[0]}) "
                "must have equal length"
            )
        if indices.shape[0] == 0:
            raise ValidationError("a feedback round needs at least one labelled image")
        if not ((labels == 1.0) | (labels == -1.0)).all():
            raise ValidationError("labels must be +1 or -1")
        object.__setattr__(self, "labeled_indices", indices)
        object.__setattr__(self, "labels", labels)

    @property
    def num_labeled(self) -> int:
        """Number of labelled images in this round."""
        return int(self.labeled_indices.shape[0])

    @property
    def positive_indices(self) -> np.ndarray:
        """Labelled images judged relevant."""
        return self.labeled_indices[self.labels > 0]

    @property
    def negative_indices(self) -> np.ndarray:
        """Labelled images judged irrelevant."""
        return self.labeled_indices[self.labels < 0]

    @property
    def has_both_classes(self) -> bool:
        """Whether the feedback contains both relevant and irrelevant images."""
        return self.positive_indices.size > 0 and self.negative_indices.size > 0

    def labeled_features(self) -> np.ndarray:
        """Visual feature matrix of the labelled images."""
        return self.database.features_of(self.labeled_indices)

    def log_snapshot(self) -> LogSnapshot:
        """The log snapshot this round reads ``R`` through.

        Returns the injected :attr:`log` (a :class:`FirstReadSnapshot`'s
        shared snapshot) when the round's orchestrator supplied one,
        otherwise the database log's current snapshot — either way, every
        subsequent log read of the round should go through the returned
        object so the round is internally consistent under concurrent
        appends.
        """
        if self.log is None:
            return self.database.log_database.snapshot()
        if isinstance(self.log, FirstReadSnapshot):
            return self.log.snapshot()
        return self.log


class RelevanceFeedbackAlgorithm(abc.ABC):
    """Interface shared by every retrieval / relevance-feedback scheme."""

    #: Registry name of the algorithm, e.g. ``"rf-svm"``.
    name: str = "feedback"

    @abc.abstractmethod
    def score(self, context: FeedbackContext) -> np.ndarray:
        """Relevance score of **every** database image (higher = more relevant)."""

    def rank(self, context: FeedbackContext, *, top_k: Optional[int] = None) -> RetrievalResult:
        """Rank all database images by decreasing relevance score.

        Ties rank by ascending database index.  With *top_k* only the
        *top_k* best are selected and sorted
        (:func:`~repro.utils.arrays.stable_top_k`) — the same prefix the
        full stable sort would give.

        Raises
        ------
        ValidationError
            If *top_k* is not ``None`` or an integer >= 1.
        """
        top_k = check_top_k(top_k)
        scores = np.asarray(self.score(context), dtype=np.float64).ravel()
        if scores.shape[0] != context.database.num_images:
            raise ValidationError(
                f"{self.name}: score() must return one score per database image "
                f"({context.database.num_images}), got {scores.shape[0]}"
            )
        if top_k is None:
            ranking = np.argsort(-scores, kind="stable")
        else:
            ranking = stable_top_k(-scores, top_k)
        return RetrievalResult(
            image_indices=ranking,
            scores=scores[ranking],
            query=context.query,
            algorithm=self.name,
        )

    def rank_batch(
        self, contexts: Sequence[FeedbackContext], *, top_k: Optional[int] = None
    ) -> List[RetrievalResult]:
        """Rank one result per context.

        The default runs :meth:`rank` per context in order, so any strategy
        is batch-callable; schemes whose scoring vectorises across queries
        (e.g. :class:`~repro.feedback.euclidean.EuclideanFeedback`) override
        this to fold the whole batch into one index/dense-scan pass.
        *top_k* is checked once, before any context is scored.
        """
        top_k = check_top_k(top_k)
        return [self.rank(context, top_k=top_k) for context in contexts]

    # ------------------------------------------------------------ shared bits
    @staticmethod
    def _fallback_scores(context: FeedbackContext) -> np.ndarray:
        """Prototype-based fallback when an SVM cannot be trained.

        With only one feedback class (e.g. the user marked everything
        relevant) a discriminative model is undefined; we fall back to the
        negative distance to the mean of the positive examples (or, lacking
        positives, the positive distance to the mean of the negatives).
        """
        features = context.database.features
        positives = context.positive_indices
        negatives = context.negative_indices
        if positives.size > 0:
            prototype = context.database.features_of(positives).mean(axis=0)
            return -np.linalg.norm(features - prototype, axis=1)
        prototype = context.database.features_of(negatives).mean(axis=0)
        return np.linalg.norm(features - prototype, axis=1)
