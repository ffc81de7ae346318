"""Exact nearest-neighbour indexing.

One estimator-style class, :class:`VectorIndex` (``build`` / ``search`` /
``batch_search`` / ``save`` / ``load``): an exact full scan over a feature
matrix fixed at build time, ranked by
:func:`repro.utils.arrays.exact_top_k` — the same routine the dense path of
:class:`repro.cbir.SearchEngine` ranks with.  The search engine serves
top-k queries through an attached index
(:meth:`repro.cbir.database.ImageDatabase.build_index`), and the graph
builder takes one for its neighbour lists.
"""

from __future__ import annotations

from repro.index.base import VectorIndex

__all__ = ["VectorIndex"]
