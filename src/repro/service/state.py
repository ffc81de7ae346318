"""The explicit, serializable per-session state of the retrieval service.

This is the other half of the strategy/state split: feedback algorithms are
stateless, and everything a session accumulates — judgements across rounds,
the per-round record that becomes :class:`~repro.logdb.session.LogSession`
appends at close, the last ranking, and the
:class:`~repro.feedback.base.FeedbackMemory` of warm-start α vectors — lives
here, in a value object any :class:`~repro.service.store.SessionStore` can
round-trip.  Serialization is one JSON-safe document with the numpy arrays
embedded losslessly (dtype, shape and the raw bytes in base64), so a
reloaded session continues bit-identically to an uninterrupted one.

A :class:`SessionState` is a plain mutable value object and is **not**
internally synchronised: exactly one thread may mutate a given state at a
time.  The :class:`~repro.service.service.RetrievalService` guarantees this
by holding the session's striped lock for the whole of every round.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.cbir.query import Query, RetrievalResult
from repro.exceptions import SessionError, ValidationError
from repro.feedback.base import FeedbackMemory, RelevanceFeedbackAlgorithm
from repro.service.dtos import SessionView

__all__ = ["SessionState"]

#: Version tag written into every serialised session document.
_STATE_VERSION = 2


@dataclass
class SessionState:
    """Everything one retrieval session owns.

    Attributes
    ----------
    session_id:
        Store key of the session.
    query:
        The query being refined (internal index or external vector).
    algorithm:
        Registry name of the session's feedback scheme (empty string for
        instance-backed sessions, which carry the strategy in ``instance``
        and cannot be serialised).
    algorithm_params:
        Constructor parameters of a named algorithm.
    top_k:
        Default ranking size of the initial retrieval.
    judgements:
        Accumulated image → ±1 judgements in arrival order.
    round_judgements:
        The per-round judgement dicts, in round order — exactly what gets
        appended to the log database when the session closes.
    memory:
        The session's :class:`FeedbackMemory` (warm starts + diagnostics).
    created_at, last_active:
        Wall-clock (:func:`time.time`) timestamps of the opening and of the
        latest round.
    """

    session_id: str
    query: Query
    algorithm: str = ""
    algorithm_params: Dict[str, Any] = field(default_factory=dict)
    top_k: Optional[int] = 20
    created_at: float = 0.0
    last_active: float = 0.0
    judgements: Dict[int, int] = field(default_factory=dict)
    round_judgements: List[Dict[int, int]] = field(default_factory=list)
    memory: FeedbackMemory = field(default_factory=FeedbackMemory)
    closed: bool = False
    last_indices: Optional[np.ndarray] = None
    last_scores: Optional[np.ndarray] = None
    last_algorithm_label: str = ""
    #: Strategy instance for instance-backed sessions (never serialised).
    instance: Optional[RelevanceFeedbackAlgorithm] = None

    # ------------------------------------------------------------------ info
    @property
    def rounds_completed(self) -> int:
        """Number of feedback rounds scored so far."""
        return len(self.round_judgements)

    @property
    def algorithm_label(self) -> str:
        """Display name of the session's scheme."""
        if self.instance is not None:
            return self.instance.name
        return self.algorithm

    def view(self) -> SessionView:
        """A read-only :class:`SessionView` snapshot."""
        return SessionView(
            session_id=self.session_id,
            query=self.query,
            algorithm=self.algorithm_label,
            rounds_completed=self.rounds_completed,
            judgements=dict(self.judgements),
            created_at=self.created_at,
            last_active=self.last_active,
            closed=self.closed,
            solver_stats=self.solver_stats(),
        )

    def solver_stats(self) -> Optional[Dict[str, Any]]:
        """The last round's solve cost, as published into the memory meta.

        Strategies that report their work (LRF-CSVM writes ``last_path``,
        ``last_solver_iterations``, ``last_label_flips``,
        ``last_gram_builds``, ``last_kernel_evaluations``, ...) surface it
        here with the ``last_`` prefix stripped; ``None`` when the memory
        carries none of these keys (round 0, or a silent strategy).
        """
        keys = (
            "last_path",
            "last_solver_iterations",
            "last_label_flips",
            "last_gram_builds",
            "last_kernel_evaluations",
        )
        stats = {
            key[len("last_") :]: self.memory.meta[key]
            for key in keys
            if key in self.memory.meta
        }
        return stats or None

    # --------------------------------------------------------------- rounds
    def apply_round(self, judgements: Mapping[int, int]) -> None:
        """Fold one round of judgements into the session.

        *judgements* are taken as validated (a
        :class:`~repro.service.dtos.FeedbackRequest` checks them, and the
        service refuses a closed session before a round starts); the
        round keeps a copy, so the caller's mapping is never aliased.
        """
        judged = dict(judgements)
        self.judgements.update(judged)
        self.round_judgements.append(judged)

    def labeled_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(labeled_indices, labels)`` in judgement arrival order."""
        if not self.judgements:
            raise SessionError(
                f"session '{self.session_id}' has no judgements yet"
            )
        indices = np.fromiter(self.judgements.keys(), dtype=np.int64)
        labels = np.fromiter(
            (float(v) for v in self.judgements.values()), dtype=np.float64
        )
        return indices, labels

    def record_ranking(self, result: RetrievalResult) -> None:
        """Remember the most recent ranking (for resume/inspection)."""
        self.last_indices = np.asarray(result.image_indices, dtype=np.int64).copy()
        self.last_scores = np.asarray(result.scores, dtype=np.float64).copy()
        self.last_algorithm_label = str(result.algorithm)

    def last_result(self) -> Optional[RetrievalResult]:
        """The most recent ranking as a :class:`RetrievalResult`, if any."""
        if self.last_indices is None or self.last_scores is None:
            return None
        return RetrievalResult(
            image_indices=self.last_indices,
            scores=self.last_scores,
            query=self.query,
            algorithm=self.last_algorithm_label or "unknown",
        )

    # ----------------------------------------------------------- persistence
    def to_payload(self) -> Dict[str, Any]:
        """The state as one JSON-safe document, arrays embedded losslessly.

        Judgement dicts are stored as ``[index, value]`` pair lists because
        their *order* is part of the state (JSON objects would stringify the
        integer keys, and the SVM stages consume the labelled set in arrival
        order).
        """
        if self.instance is not None:
            raise ValidationError(
                "instance-backed sessions cannot be serialised; open the "
                "session with a registry-named algorithm instead"
            )
        return {
            "version": _STATE_VERSION,
            "session_id": self.session_id,
            "algorithm": self.algorithm,
            "algorithm_params": dict(self.algorithm_params),
            "top_k": self.top_k,
            "created_at": float(self.created_at),
            "last_active": float(self.last_active),
            "closed": bool(self.closed),
            "judgements": [[int(k), int(v)] for k, v in self.judgements.items()],
            "round_judgements": [
                [[int(k), int(v)] for k, v in judged.items()]
                for judged in self.round_judgements
            ],
            "query_index": (
                int(self.query.query_index) if self.query.is_internal else None
            ),
            "query_vector": _encode_array(
                None if self.query.is_internal else self.query.feature_vector
            ),
            "last_indices": _encode_array(self.last_indices),
            "last_scores": _encode_array(self.last_scores),
            "last_algorithm_label": self.last_algorithm_label,
            "memory_meta": dict(self.memory.meta),
            "memory_arrays": {
                key: _encode_array(np.asarray(value))
                for key, value in self.memory.arrays.items()
            },
        }

    @classmethod
    def from_payload(cls, document: Mapping[str, Any]) -> "SessionState":
        """Rebuild a state saved by :meth:`to_payload`."""
        version = int(document.get("version", -1))
        if version != _STATE_VERSION:
            raise ValidationError(
                f"unsupported session-state version {version} "
                f"(expected {_STATE_VERSION})"
            )
        query_index = document.get("query_index")
        if query_index is not None:
            query = Query(query_index=int(query_index))
        else:
            query = Query(feature_vector=_decode_array(document["query_vector"]))
        memory = FeedbackMemory(
            arrays={
                str(key): _decode_array(value)
                for key, value in document.get("memory_arrays", {}).items()
            },
            meta=dict(document.get("memory_meta", {})),
        )
        return cls(
            session_id=str(document["session_id"]),
            query=query,
            algorithm=str(document.get("algorithm", "")),
            algorithm_params=dict(document.get("algorithm_params", {})),
            top_k=document.get("top_k"),
            created_at=float(document.get("created_at", 0.0)),
            last_active=float(document.get("last_active", 0.0)),
            judgements={int(k): int(v) for k, v in document.get("judgements", [])},
            round_judgements=[
                {int(k): int(v) for k, v in judged}
                for judged in document.get("round_judgements", [])
            ],
            memory=memory,
            closed=bool(document.get("closed", False)),
            last_indices=_decode_array(document.get("last_indices")),
            last_scores=_decode_array(document.get("last_scores")),
            last_algorithm_label=str(document.get("last_algorithm_label", "")),
        )


def _encode_array(array: Optional[np.ndarray]) -> Optional[Dict[str, Any]]:
    """*array* as its ``dtype.str``, shape and base64 C-order bytes."""
    if array is None:
        return None
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def _decode_array(encoded: Optional[Mapping[str, Any]]) -> Optional[np.ndarray]:
    """The writable array :func:`_encode_array` encoded, bit for bit."""
    if encoded is None:
        return None
    raw = bytearray(base64.b64decode(encoded["data"], validate=True))
    return np.frombuffer(raw, dtype=np.dtype(encoded["dtype"])).reshape(encoded["shape"])
