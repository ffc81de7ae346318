"""Distance measures between feature vectors."""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.arrays import euclidean_distances

__all__ = [
    "euclidean_distances",
    "manhattan_distances",
    "cosine_distances",
    "make_distance",
    "DistanceFunction",
]

#: Signature shared by all distance measures: ``(queries, database) -> (Q, N)``.
DistanceFunction = Callable[[np.ndarray, np.ndarray], np.ndarray]


#: Element budget of the (Q, chunk, d) broadcast used by the L1 distance —
#: caps the intermediate at ~64 MiB of float64 regardless of database size.
_L1_CHUNK_ELEMENTS = 2**23


def manhattan_distances(queries: np.ndarray, database: np.ndarray) -> np.ndarray:
    """City-block (L1) distances between query rows and database rows.

    Computed in bounded chunks over the database axis: the naive broadcast
    materialises a ``(Q, N, d)`` tensor, which for a 100k-image pool is tens
    of gigabytes.
    """
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    d = np.atleast_2d(np.asarray(database, dtype=np.float64))
    num_queries, dim = q.shape
    out = np.empty((num_queries, d.shape[0]), dtype=np.float64)
    # Chunk BOTH axes: the intermediate is (q_block, d_block, dim), so
    # bounding only the database axis would still grow without limit in the
    # query count.
    q_step = min(256, max(1, num_queries))
    d_step = max(1, _L1_CHUNK_ELEMENTS // (q_step * dim))
    for q_start in range(0, num_queries, q_step):
        q_block = q[q_start : q_start + q_step]
        for d_start in range(0, d.shape[0], d_step):
            d_block = d[d_start : d_start + d_step]
            out[
                q_start : q_start + q_block.shape[0],
                d_start : d_start + d_block.shape[0],
            ] = np.abs(q_block[:, None, :] - d_block[None, :, :]).sum(axis=2)
    return out


def cosine_distances(queries: np.ndarray, database: np.ndarray) -> np.ndarray:
    """Cosine distances (1 − cosine similarity) between rows."""
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    d = np.atleast_2d(np.asarray(database, dtype=np.float64))
    q_norm = np.linalg.norm(q, axis=1, keepdims=True)
    d_norm = np.linalg.norm(d, axis=1, keepdims=True)
    similarity = (q @ d.T) / np.maximum(q_norm * d_norm.T, 1e-12)
    return 1.0 - similarity


_DISTANCES: Dict[str, DistanceFunction] = {
    "euclidean": euclidean_distances,
    "manhattan": manhattan_distances,
    "cosine": cosine_distances,
}


def make_distance(name: str) -> DistanceFunction:
    """Look up a distance function by name (euclidean/manhattan/cosine)."""
    try:
        return _DISTANCES[name]
    except KeyError:
        raise ValidationError(
            f"unknown distance '{name}', expected one of {sorted(_DISTANCES)}"
        ) from None
