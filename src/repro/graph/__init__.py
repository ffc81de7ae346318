"""``repro.graph`` — label propagation over a fused visual/log affinity graph.

The graph feedback family (ROADMAP direction 3): a second algorithmic lens
on the paper's feedback log.  :class:`KNNGraphBuilder` turns the pool's
feature matrix into a sparse symmetric k-NN affinity graph (through the
exact :class:`~repro.index.VectorIndex`, deterministic under its tie
rule); :func:`fuse_with_log` mixes those visual affinities with log
co-relevance mined sparsely from a
:class:`~repro.logdb.relevance_matrix.LogSnapshot`;
:func:`propagate_labels` runs the clamped-propagation / α-spreading
solvers; and :class:`LabelPropagationFeedback` packages the whole path as
the stateless ``"lrf-graph"`` strategy registered beside the SVM family.

See ``docs/graph.md`` for construction semantics, the fused kernel, the
propagation variants and every knob.
"""

from __future__ import annotations

from repro.graph.builder import AffinityGraph, KNNGraphBuilder
from repro.graph.cache import GraphCache, default_graph_cache
from repro.graph.feedback import LabelPropagationFeedback
from repro.graph.kernel import fuse_with_log, log_corelevance
from repro.graph.propagation import PropagationResult, propagate_labels

__all__ = [
    "AffinityGraph",
    "KNNGraphBuilder",
    "GraphCache",
    "default_graph_cache",
    "LabelPropagationFeedback",
    "fuse_with_log",
    "log_corelevance",
    "PropagationResult",
    "propagate_labels",
]
