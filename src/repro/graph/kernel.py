"""The fused visual/log kernel: affinity from features *and* the paper's log.

The relevance matrix ``R`` (sessions × images) is itself a bipartite
session–image graph; its one-mode projection ``R^T R`` counts, for every
image pair, how often users judged the two images *the same way* in one
session (co-relevant or co-irrelevant), minus how often they disagreed.
Clipped to its non-negative part and rescaled, that projection is a
log-derived affinity over exactly the nodes of the visual k-NN graph —
the precomputed-kernel path of the sklearn exemplars, mined sparsely from
the :class:`~repro.logdb.relevance_matrix.LogSnapshot` CSR view (``R`` is
**never** densified here).

:func:`fuse_with_log` mixes the two modalities with the paper's style of
fusion weight: ``W = (1 - eta) * visual + eta * log``.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.exceptions import ValidationError
from repro.logdb.relevance_matrix import LogSnapshot
from repro.obs import get_hub

__all__ = ["log_corelevance", "fuse_with_log"]


def log_corelevance(snapshot: LogSnapshot) -> sparse.csr_matrix:
    """Sparse image × image co-relevance affinity mined from *snapshot*.

    Computes ``S = R^T R`` over the snapshot's CSR view
    (:meth:`~repro.logdb.relevance_matrix.LogSnapshot.log_csr`), zeroes the
    diagonal, drops negative entries
    (net disagreement is no affinity) and rescales to ``[0, 1]`` so the
    log modality is commensurate with rbf visual weights.

    An empty snapshot yields an all-zero ``(num_images, num_images)``
    matrix.
    """
    matrix = snapshot.log_csr()
    affinity = (matrix.T @ matrix).tocsr()
    affinity.setdiag(0.0)
    affinity.data[affinity.data < 0.0] = 0.0
    affinity.eliminate_zeros()
    if affinity.nnz:
        affinity = affinity * (1.0 / float(affinity.data.max()))
    affinity.sort_indices()
    hub = get_hub()
    hub.count("graph.log_kernel.edges", int(affinity.nnz))
    return affinity


def fuse_with_log(
    visual: sparse.spmatrix, snapshot: LogSnapshot, *, eta: float = 0.5
) -> sparse.csr_matrix:
    """Mix visual affinities with log co-relevance: ``(1-eta) V + eta S``.

    Parameters
    ----------
    visual:
        The ``(N, N)`` visual affinity matrix (an
        :class:`~repro.graph.builder.AffinityGraph`'s ``weights``).
    snapshot:
        The round's :class:`~repro.logdb.relevance_matrix.LogSnapshot`; its
        image count must match the graph.
    eta:
        Log-modality weight in ``[0, 1]``.  ``eta=0``, an empty snapshot,
        or a log with no co-judged image pairs all return *visual*
        unchanged (the cold-start degradation) — callers can detect the
        fused path by identity (``result is not visual``).

    Raises
    ------
    ValidationError
        If *eta* is out of range or the shapes disagree.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValidationError(f"eta must be in [0, 1], got {eta}")
    matrix = sparse.csr_matrix(visual)
    if eta == 0.0 or snapshot.is_empty:
        return matrix
    if snapshot.num_images != matrix.shape[0]:
        raise ValidationError(
            f"snapshot covers {snapshot.num_images} images but the graph has "
            f"{matrix.shape[0]} nodes"
        )
    log_affinity = log_corelevance(snapshot)
    if log_affinity.nnz == 0:
        return matrix
    fused = ((1.0 - eta) * matrix + eta * log_affinity).tocsr()
    fused.eliminate_zeros()
    fused.sort_indices()
    return fused
