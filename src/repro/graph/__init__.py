"""``repro.graph`` — label propagation over a fused visual/log affinity graph.

The ``"lrf-graph"`` feedback family, this repository's extension beside
the paper's SVM schemes, in one fixed configuration.
:class:`KNNGraphBuilder` turns the pool's feature matrix into a sparse
symmetric k-NN affinity graph (through the exact scan
:func:`repro.utils.arrays.exact_top_k`, deterministic under its tie rule);
:class:`GraphCache` holds one graph per live feature matrix;
:func:`fuse_with_log` mixes those visual affinities with log co-relevance
mined sparsely from a :class:`~repro.logdb.relevance_matrix.LogSnapshot`;
:func:`propagate_labels` runs clamped propagation; and
:class:`LabelPropagationFeedback` packages the whole path as the stateless
``"lrf-graph"`` strategy registered beside the SVM family.

See ``docs/graph.md`` for the configuration and what it costs.
"""

from __future__ import annotations

from repro.graph.builder import AffinityGraph, KNNGraphBuilder
from repro.graph.cache import GraphCache, default_graph_cache
from repro.graph.feedback import (
    LabelPropagationFeedback,
    PropagationResult,
    fuse_with_log,
    log_corelevance,
    propagate_labels,
)

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
