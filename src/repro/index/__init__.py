"""Pluggable nearest-neighbour indexing.

One estimator-style interface (:class:`VectorIndex`: ``build`` /
``search`` / ``batch_search`` / ``save`` / ``load``) over three
interchangeable backends:

==========================  ===================================================
:class:`BruteForceIndex`    exact full scan — the correctness oracle
:class:`IVFIndex`           k-means inverted lists with ``n_probe`` pruning
:class:`ShardedVectorIndex` exact scatter-gather over N shard sub-indexes
==========================  ===================================================

An index is built once over a fixed feature matrix.  Every backend ranks
with exact distances under the index metric and falls back to a full scan
when candidates run short, so a backend at exhaustive settings (IVF
``n_probe=n_clusters``, sharded over exact shards) reproduces the
brute-force ranking bit-for-bit.  The serving layers
(:class:`repro.cbir.SearchEngine`, :class:`repro.core.lrf_csvm.LRFCSVM`
candidate pruning) accept any backend through this interface.
"""

from __future__ import annotations

from repro.index.base import VectorIndex
from repro.index.brute_force import BruteForceIndex
from repro.index.ivf import IVFIndex
from repro.index.registry import available_indexes, load_index, make_index
from repro.index.sharded import ShardedVectorIndex

__all__ = [
    "VectorIndex",
    "BruteForceIndex",
    "IVFIndex",
    "ShardedVectorIndex",
    "make_index",
    "available_indexes",
    "load_index",
]
