"""Exact brute-force index — the correctness oracle for every ANN backend."""

from __future__ import annotations

import numpy as np

from repro.index.base import VectorIndex

__all__ = ["BruteForceIndex"]


class BruteForceIndex(VectorIndex):
    """Exact nearest-neighbour search by scanning the full database.

    This is the dense O(N·d) path :class:`repro.cbir.search.SearchEngine`
    always used, refactored behind the :class:`VectorIndex` interface: same
    distances, same stable tie-breaking, same results — just addressable as
    an index so it can serve as the recall oracle in benchmarks and as the
    drop-in default backend.
    """

    kind = "brute-force"

    @property
    def is_exact(self) -> bool:
        """Exact by construction (this is the dense-scan oracle)."""
        return True

    def _build(self, vectors: np.ndarray) -> None:
        # No acceleration structure: the vectors themselves are the index.
        pass
