"""``lrf-graph``: label-propagation relevance feedback over the fused graph.

The second algorithmic lens on the paper's feedback log: instead of
training a margin classifier per round (the LRF-CSVM family), the user's
±1 judgements are **propagated** over a sparse affinity graph whose edges
mix visual k-NN similarity with log co-relevance mined from the round's
:class:`~repro.logdb.relevance_matrix.LogSnapshot`.  The visual graph is
session-independent and cached process-wide, the fused matrix is memoised
per log version on the shared snapshot; the per-round work is an iterative
solve — no SMO, no Gram matrices.

Like every scheme in :mod:`repro.feedback`, the algorithm is a stateless
strategy: all parameters are JSON-serialisable constructor arguments, so
``"lrf-graph"`` sessions replay bit-identically through the file-backed
session stores and the cluster's forked workers.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.exceptions import ValidationError
from repro.feedback.base import FeedbackContext, FeedbackMemory, RelevanceFeedbackAlgorithm
from repro.graph.builder import AffinityGraph, KNNGraphBuilder
from repro.graph.cache import GraphCache, default_graph_cache
from repro.graph.kernel import fuse_with_log
from repro.graph.propagation import PROPAGATION_METHODS, PropagationResult, propagate_labels
from repro.index.base import VectorIndex
from repro.logdb.relevance_matrix import LogSnapshot
from repro.obs import get_hub

__all__ = ["LabelPropagationFeedback"]


class LabelPropagationFeedback(RelevanceFeedbackAlgorithm):
    """Log-based relevance feedback by label propagation (``"lrf-graph"``).

    Parameters
    ----------
    k:
        Neighbours per node of the visual k-NN graph.
    eta:
        Log-modality fusion weight in ``[0, 1]``: ``0`` propagates over
        the visual graph alone, ``1`` over log co-relevance alone.  With
        an empty log the algorithm always degrades to the visual graph
        (cold start), whatever ``eta``.
    method:
        ``"propagation"`` (labelled seeds clamped every iteration) or
        ``"spreading"`` (α-weighted label spreading).
    alpha:
        Neighbourhood weight of the spreading variant, in ``(0, 1)``.
    weighting / gamma:
        Visual edge weighting, forwarded to
        :class:`~repro.graph.builder.KNNGraphBuilder`.
    max_iter / tol:
        Convergence controls of the iterative solver.
    cache:
        Optional :class:`~repro.graph.cache.GraphCache` override; the
        process-wide default cache is used when omitted, so repeated
        rounds over one database build the visual graph exactly once.
    """

    name = "lrf-graph"

    def __init__(
        self,
        *,
        k: int = 10,
        eta: float = 0.5,
        method: str = "propagation",
        alpha: float = 0.85,
        weighting: str = "rbf",
        gamma: Union[float, str] = "scale",
        max_iter: int = 200,
        tol: float = 1e-3,
        cache: Optional[GraphCache] = None,
    ) -> None:
        if not 0.0 <= eta <= 1.0:
            raise ValidationError(f"eta must be in [0, 1], got {eta}")
        if method not in PROPAGATION_METHODS:
            raise ValidationError(
                f"method must be one of {PROPAGATION_METHODS}, got {method!r}"
            )
        if not 0.0 < alpha < 1.0:
            raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
        if max_iter < 1:
            raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
        if tol < 0:
            raise ValidationError(f"tol must be >= 0, got {tol}")
        # The builder validates k / weighting / gamma.
        self._builder = KNNGraphBuilder(k=k, weighting=weighting, gamma=gamma)
        self.k = int(k)
        self.eta = float(eta)
        self.method = str(method)
        self.alpha = float(alpha)
        self.weighting = str(weighting)
        self.gamma = gamma
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self._cache = cache
        #: Diagnostics of the last propagation (None before the first round).
        self.last_result_: Optional[PropagationResult] = None

    # ------------------------------------------------------------------ API
    def score(self, context: FeedbackContext) -> np.ndarray:
        """Propagated relevance score of every database image.

        Unlike the SVM family a single feedback class is perfectly usable —
        propagation from only-positive (or only-negative) seeds is still a
        meaningful ranking — so there is no prototype fallback path.
        """
        database = context.database
        graph = self._visual_graph(database)
        weights = graph.weights

        path = "graph-visual"
        snapshot = context.log_snapshot()
        if self.eta > 0.0 and not snapshot.is_empty:
            fused = self._fused_weights(graph, snapshot)
            if fused is not weights:
                path = "graph-fused"
                weights = fused

        seeds = np.zeros(database.num_images, dtype=np.float64)
        seeds[context.labeled_indices] = context.labels

        hub = get_hub()
        if not hub.enabled:
            result = self._propagate(weights, seeds)
        else:
            with hub.span(
                "graph.propagate",
                method=self.method,
                path=path,
                seeds=int(context.num_labeled),
            ) as span:
                result = self._propagate(weights, seeds)
            hub.count("graph.propagate.iterations", result.iterations)
            hub.count(
                "graph.propagate.converged"
                if result.converged
                else "graph.propagate.unconverged"
            )
            hub.observe("graph.propagate.seconds", span.duration)
        self.last_result_ = result
        self._remember(context.memory, path=path, result=result)
        return result.scores

    # ------------------------------------------------------------- internals
    def _fused_weights(self, graph: AffinityGraph, snapshot: LogSnapshot):
        """``fuse_with_log`` of *graph* and *snapshot*, once per log version.

        The fusion is a pure function of the visual graph, the snapshot and
        ``eta``, and the log database hands every round of one log version
        the same snapshot — so the result is memoised on the snapshot and
        ``R^T R`` is mined once per (version, graph) instead of every
        round.  The entry holds *graph* itself: a live object's ``id()``
        cannot be recycled, so the key can never hand back another graph's
        fusion.
        """
        _, fused = snapshot.derived(
            ("graph.fused", id(graph), self.eta),
            lambda: (graph, fuse_with_log(graph.weights, snapshot, eta=self.eta)),
        )
        return fused

    def _propagate(self, weights, seeds: np.ndarray) -> PropagationResult:
        return propagate_labels(
            weights,
            seeds,
            method=self.method,
            alpha=self.alpha,
            max_iter=self.max_iter,
            tol=self.tol,
        )

    def _visual_graph(self, database) -> AffinityGraph:
        """The (cached) session-independent visual graph of *database*."""
        cache = self._cache if self._cache is not None else default_graph_cache()
        features = database.features
        return cache.get_or_build(
            features,
            self._builder.signature(),
            lambda: self._builder.build(features, index=self._usable_index(database)),
        )

    def _usable_index(self, database) -> Optional[VectorIndex]:
        """The database's index, when it ranks by the builder's metric.

        A foreign-metric index falls back to the builder's internal exact
        scan.
        """
        index = database.index
        if index is None or index.metric != self._builder.metric:
            return None
        return index

    @staticmethod
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
