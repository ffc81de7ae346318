"""``lrf-graph``: label-propagation relevance feedback over the fused graph.

The second algorithmic lens on the paper's feedback log: instead of
training a margin classifier per round (the LRF-CSVM family), the user's
±1 judgements are **propagated** over a sparse affinity graph whose edges
mix visual k-NN similarity with log co-relevance mined from the round's
:class:`~repro.logdb.relevance_matrix.LogSnapshot`.  The visual graph is
cached process-wide, the fused matrix is memoised per log version on the
shared snapshot; the per-round work is an iterative solve — no SMO, no
Gram matrices.

There is one configuration: the constants below and
:data:`repro.graph.builder.K`.

* :func:`fuse_with_log` mixes the modalities, ``(1 - ETA) V + ETA S``,
  where ``S`` is :func:`log_corelevance`: the one-mode projection
  ``R^T R`` of the relevance matrix (how often two images were judged the
  same way in one session, minus how often differently), clipped at zero
  and rescaled to ``[0, 1]``.  ``R`` is never densified.
* :func:`propagate_labels` iterates ``F <- D^-1 W F`` with the labelled
  seeds clamped back to their judgements after every step (Zhu,
  Ghahramani & Lafferty, ICML 2003), until the max-norm update drops to
  ``TOL`` or ``MAX_ITER`` steps have run.  Isolated nodes keep their seed
  (or zero) score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from repro.exceptions import ValidationError
from repro.feedback.base import FeedbackContext, FeedbackMemory, RelevanceFeedbackAlgorithm
from repro.graph.builder import AffinityGraph
from repro.graph.cache import default_graph_cache
from repro.logdb.relevance_matrix import LogSnapshot
from repro.obs import get_hub

__all__ = [
    "LabelPropagationFeedback",
    "PropagationResult",
    "fuse_with_log",
    "log_corelevance",
    "propagate_labels",
]

#: Weight of the log modality in the fused graph.
ETA = 0.5

#: Iteration cap of one propagation.
MAX_ITER = 200

#: Convergence threshold on the max-norm update.
TOL = 1e-3


@dataclass(frozen=True)
class PropagationResult:
    """Outcome of one propagation run.

    Attributes
    ----------
    scores:
        Propagated relevance score per node (higher = more relevant);
        labelled nodes score exactly their judgement.
    iterations:
        Number of iterations performed.
    converged:
        Whether the update dropped to ``TOL`` before ``MAX_ITER``.
    delta:
        The final max-norm update (diagnostic for unconverged runs).
    """

    scores: np.ndarray
    iterations: int
    converged: bool
    delta: float


def log_corelevance(snapshot: LogSnapshot) -> sparse.csr_matrix:
    """Sparse image × image co-relevance affinity mined from *snapshot*.

    ``S = R^T R`` over the snapshot's CSR view
    (:meth:`~repro.logdb.relevance_matrix.LogSnapshot.log_csr`) with a zero
    diagonal and no negative entries (net disagreement is no affinity),
    rescaled to ``[0, 1]`` so the log modality is commensurate with the
    RBF visual weights.  An empty snapshot yields an all-zero matrix.
    """
    matrix = snapshot.log_csr()
    affinity = (matrix.T @ matrix).tocsr()
    affinity.setdiag(0.0)
    affinity.data[affinity.data < 0.0] = 0.0
    affinity.eliminate_zeros()
    if affinity.nnz:
        affinity = affinity * (1.0 / float(affinity.data.max()))
    affinity.sort_indices()
    get_hub().count("graph.log_kernel.edges", int(affinity.nnz))
    return affinity


def fuse_with_log(visual: sparse.spmatrix, snapshot: LogSnapshot) -> sparse.csr_matrix:
    """Mix visual affinities with log co-relevance: ``(1-ETA) V + ETA S``.

    An empty snapshot, or a log with no co-judged image pairs, returns
    *visual* unchanged (the cold-start degradation) — callers detect the
    fused path by identity (``result is not visual``).

    Raises
    ------
    ValidationError
        If the snapshot and the graph cover different numbers of images.
    """
    matrix = sparse.csr_matrix(visual)
    if snapshot.is_empty:
        return matrix
    if snapshot.num_images != matrix.shape[0]:
        raise ValidationError(
            f"snapshot covers {snapshot.num_images} images but the graph has "
            f"{matrix.shape[0]} nodes"
        )
    log_affinity = log_corelevance(snapshot)
    if log_affinity.nnz == 0:
        return matrix
    fused = ((1.0 - ETA) * matrix + ETA * log_affinity).tocsr()
    fused.eliminate_zeros()
    fused.sort_indices()
    return fused


def propagate_labels(weights: sparse.spmatrix, seeds: np.ndarray) -> PropagationResult:
    """Propagate ±1 *seeds* (``0`` = unlabelled) over the square affinity
    matrix *weights*.  Deterministic: the same inputs give bit-identical
    scores.

    Raises
    ------
    ValidationError
        On a non-square matrix or a seed-length mismatch.
    """
    matrix = sparse.csr_matrix(weights, dtype=np.float64)
    if matrix.shape[0] != matrix.shape[1]:
        raise ValidationError(f"weights must be square, got shape {matrix.shape}")
    labels = np.asarray(seeds, dtype=np.float64).ravel()
    if labels.shape[0] != matrix.shape[0]:
        raise ValidationError(
            f"seeds ({labels.shape[0]}) must match the graph size ({matrix.shape[0]})"
        )

    degrees = np.asarray(matrix.sum(axis=1)).ravel()
    inverse = np.where(degrees > 0, 1.0 / np.where(degrees > 0, degrees, 1.0), 0.0)
    operator = (sparse.diags(inverse) @ matrix).tocsr()

    clamped = labels != 0.0
    scores = labels.copy()
    iterations = 0
    delta = np.inf
    for iterations in range(1, MAX_ITER + 1):
        updated = operator @ scores
        updated[clamped] = labels[clamped]
        delta = float(np.max(np.abs(updated - scores))) if scores.size else 0.0
        scores = updated
        if delta <= TOL:
            break
    return PropagationResult(
        scores=scores, iterations=iterations, converged=delta <= TOL, delta=delta
    )


class LabelPropagationFeedback(RelevanceFeedbackAlgorithm):
    """Log-based relevance feedback by label propagation (``"lrf-graph"``).

    Takes no parameters.  With an empty log it propagates over the visual
    graph alone (cold start).
    """

    name = "lrf-graph"

    def __init__(self) -> None:
        #: Diagnostics of the last propagation (None before the first round).
        self.last_result_: Optional[PropagationResult] = None

    def score(self, context: FeedbackContext) -> np.ndarray:
        """Propagated relevance score of every database image.

        Unlike the SVM family a single feedback class is perfectly usable —
        propagation from only-positive (or only-negative) seeds is still a
        meaningful ranking — so there is no prototype fallback path.
        """
        database = context.database
        graph = default_graph_cache().get_or_build(database.features)
        weights = graph.weights

        path = "graph-visual"
        snapshot = context.log_snapshot()
        if not snapshot.is_empty:
            fused = _fused_weights(graph, snapshot)
            if fused is not weights:
                path = "graph-fused"
                weights = fused

        seeds = np.zeros(database.num_images, dtype=np.float64)
        seeds[context.labeled_indices] = context.labels

        hub = get_hub()
        if not hub.enabled:
            result = propagate_labels(weights, seeds)
        else:
            with hub.span(
                "graph.propagate", path=path, seeds=int(context.num_labeled)
            ) as span:
                result = propagate_labels(weights, seeds)
            hub.count("graph.propagate.iterations", result.iterations)
            hub.count(
                "graph.propagate.converged"
                if result.converged
                else "graph.propagate.unconverged"
            )
            hub.observe("graph.propagate.seconds", span.duration)
        self.last_result_ = result
        _remember(context.memory, path=path, result=result)
        return result.scores


def _fused_weights(graph: AffinityGraph, snapshot: LogSnapshot) -> sparse.csr_matrix:
    """``fuse_with_log`` of *graph* and *snapshot*, once per log version.

    The fusion is a pure function of the visual graph and the snapshot,
    and the log database hands every round of one log version the same
    snapshot — so the result is memoised on the snapshot and ``R^T R`` is
    mined once per (version, graph) instead of every round.  The entry
    holds *graph* itself: a live object's ``id()`` cannot be recycled, so
    the key can never hand back another graph's fusion.
    """
    _, fused = snapshot.derived(
        ("graph.fused", id(graph)),
        lambda: (graph, fuse_with_log(graph.weights, snapshot)),
    )
    return fused


def _remember(
    memory: Optional[FeedbackMemory], *, path: str, result: PropagationResult
) -> None:
    """Record round diagnostics into the session memory (JSON-safe)."""
    if memory is None:
        return
    memory.meta["rounds_scored"] = int(memory.meta.get("rounds_scored", 0)) + 1
    memory.meta["last_path"] = path
    memory.meta["last_graph_iterations"] = int(result.iterations)
    memory.meta["last_graph_converged"] = bool(result.converged)
    memory.meta["last_graph_delta"] = float(result.delta)
