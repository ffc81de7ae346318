"""Pluggable nearest-neighbour indexing.

One estimator-style interface (:class:`VectorIndex`: ``build`` /
``search`` / ``batch_search`` / ``save`` / ``load``) over two
interchangeable backends:

=======================  ===================================================
:class:`BruteForceIndex` exact full scan — the correctness oracle
:class:`IVFIndex`        k-means inverted lists with ``n_probe`` pruning
=======================  ===================================================

An index is built once over a fixed feature matrix.  Every backend ranks
with exact distances under the index metric and falls back to a full scan
when candidates run short, so IVF at exhaustive settings
(``n_probe=n_clusters``) reproduces the brute-force ranking bit-for-bit.
The serving layers (:class:`repro.cbir.SearchEngine`,
:class:`repro.core.lrf_csvm.LRFCSVM` candidate pruning) accept either
backend through this interface.
"""

from __future__ import annotations

from repro.index.base import VectorIndex
from repro.index.brute_force import BruteForceIndex
from repro.index.ivf import IVFIndex
from repro.index.registry import available_indexes, load_index, make_index

__all__ = [
    "VectorIndex",
    "BruteForceIndex",
    "IVFIndex",
    "make_index",
    "available_indexes",
    "load_index",
]
