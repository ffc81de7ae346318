"""Exact brute-force index — the correctness oracle for every ANN backend."""

from __future__ import annotations

import numpy as np

from repro.index.base import VectorIndex

__all__ = ["BruteForceIndex"]


class BruteForceIndex(VectorIndex):
    """Exact nearest-neighbour search by scanning the full database.

    It ranks with :func:`repro.utils.arrays.exact_top_k`, the same O(N·d)
    scan as the dense path of :class:`repro.cbir.search.SearchEngine` —
    same distances, same tie rule, same results — behind the
    :class:`VectorIndex` interface, so it serves as the recall oracle and as
    the drop-in default backend.
    """

    kind = "brute-force"

    @property
    def is_exact(self) -> bool:
        """Exact by construction (this is the dense-scan oracle)."""
        return True

    def _build(self, vectors: np.ndarray) -> None:
        # No acceleration structure: the vectors themselves are the index.
        pass
