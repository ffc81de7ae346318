"""Small numerical helpers shared by feature extraction and evaluation."""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.exceptions import ValidationError

__all__ = [
    "zscore",
    "minmax_scale",
    "l2_normalize_rows",
    "as_row_matrix",
    "squared_norms",
    "pairwise_squared_distances",
    "euclidean_distances",
    "stable_top_k",
    "exact_top_k",
    "stable_entropy",
]

#: Queries per block of :func:`exact_top_k`, so the intermediate
#: ``(block, N)`` matrix stays memory-bounded.
_QUERY_BLOCK = 64

#: Entries, at least, of the strided sample whose k-th smallest squared
#: distance bounds a row's k-th in the Euclidean branch of
#: :func:`exact_top_k`.
_SAMPLE = 2048


def zscore(
    matrix: np.ndarray,
    *,
    mean: Optional[np.ndarray] = None,
    std: Optional[np.ndarray] = None,
    eps: float = 1e-12,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standardise columns of *matrix* to zero mean and unit variance.

    Returns ``(scaled, mean, std)`` so the same statistics can be re-applied
    to out-of-sample data (query images).
    """
    data = np.asarray(matrix, dtype=np.float64)
    if mean is None:
        mean = data.mean(axis=0)
    if std is None:
        std = data.std(axis=0)
    safe_std = np.where(std < eps, 1.0, std)
    return (data - mean) / safe_std, mean, std


def minmax_scale(
    matrix: np.ndarray,
    *,
    low: Optional[np.ndarray] = None,
    high: Optional[np.ndarray] = None,
    eps: float = 1e-12,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scale columns of *matrix* to ``[0, 1]``; returns ``(scaled, low, high)``."""
    data = np.asarray(matrix, dtype=np.float64)
    if low is None:
        low = data.min(axis=0)
    if high is None:
        high = data.max(axis=0)
    span = np.where((high - low) < eps, 1.0, high - low)
    return (data - low) / span, low, high


def l2_normalize_rows(matrix: np.ndarray, *, eps: float = 1e-12) -> np.ndarray:
    """Normalise each row of *matrix* to unit Euclidean norm."""
    data = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(data, axis=-1, keepdims=True)
    return data / np.maximum(norms, eps)


def as_row_matrix(rows):
    """*rows* as a 2-D float64 row matrix; a scipy-sparse matrix passes through.

    The kernels and the SVM decision function take either layout as their
    left operand: dense rows are coerced to float64, a sparse matrix (e.g.
    :meth:`~repro.logdb.relevance_matrix.LogSnapshot.log_rows`) is left sparse
    so products with it cost ``O(nnz)``.
    """
    if sparse.issparse(rows):
        return rows
    return np.atleast_2d(np.asarray(rows, dtype=np.float64))


def squared_norms(rows: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of every row of dense *rows*.

    The one definition (``np.sum(rows * rows, axis=1)``) behind
    :func:`pairwise_squared_distances`,
    :attr:`~repro.cbir.database.ImageDatabase.feature_sq_norms` and the
    index's cached norms, so norms computed once and passed in are bit for
    bit the ones a call would recompute.
    """
    return np.sum(rows * rows, axis=1)


def pairwise_squared_distances(
    a,
    b: np.ndarray,
    *,
    a_sq: Optional[np.ndarray] = None,
    b_sq: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Squared Euclidean distances between rows of *a* and rows of *b*.

    Uses the ``|a|^2 + |b|^2 - 2 a.b`` expansion, clipped at zero to guard
    against tiny negative values from floating-point cancellation.  *a* may
    be scipy-sparse (row norms and ``a @ b.T`` are then sparse products);
    the result is always a dense ``(len(a), len(b))`` array.

    *a_sq* / *b_sq* are the squared row norms of *a* / *b*, for callers
    that meet the same rows again and again: the pool's features as the
    SVM's left operand (:attr:`~repro.cbir.database.ImageDatabase.feature_sq_norms`)
    or as the right operand of a distance scan (an index's cached norms).
    They must be what :func:`squared_norms` returns; the result is then bit
    for bit the one computed without them.
    """
    a = as_row_matrix(a)
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a_sq is None:
        if sparse.issparse(a):
            a_sq = np.asarray(a.multiply(a).sum(axis=1)).ravel()
        else:
            a_sq = squared_norms(a)
    if b_sq is None:
        b_sq = squared_norms(b)
    # In-place updates keep the accumulation order of the naive
    # ``a_sq + b_sq - 2ab`` expression (bit-identical results) while
    # avoiding two full (Q, N) temporaries — on serving-sized batches the
    # extra allocations used to dominate the matmul itself.
    squared = a_sq[:, None] + b_sq[None, :]
    product = a @ b.T
    product *= 2.0
    squared -= product
    np.maximum(squared, 0.0, out=squared)
    return squared


def euclidean_distances(
    queries: np.ndarray, database: np.ndarray, database_sq: Optional[np.ndarray] = None
) -> np.ndarray:
    """Euclidean distances between query rows and database rows.

    *database_sq* is the database's squared row norms
    (:func:`squared_norms`), for a pool scanned again and again; the result
    is bit for bit the one computed without it.
    """
    squared = pairwise_squared_distances(queries, database, b_sq=database_sq)
    # The squared matrix is a fresh temporary; taking the root in place
    # spares one (Q, N) allocation on serving-sized batches.
    return np.sqrt(squared, out=squared)


def stable_top_k(
    values: np.ndarray, k: int, ties: Optional[np.ndarray] = None
) -> np.ndarray:
    """Positions of the *k* smallest entries of 1-D *values*, by ``(value, index)``.

    Element for element ``np.argsort(values, kind="stable")[:k]`` — ties,
    also those straddling the k-th place, resolve by ascending index — but
    an ``argpartition`` selection (O(N)) finds the k-th value first and only
    the entries at or below it are sorted.  When *k* is a large fraction of
    N the selection buys nothing and the full stable sort runs.  Negate
    *values* for the *k* largest; reverse them (``values[::-1]``) for ties
    by descending index.

    *ties*, when given, is a key per entry (e.g. the database ids of
    candidates gathered out of order) that breaks equal values instead of
    the position: ``(value, ties)`` order, the rule every index applies.
    """
    if k < 1 or 4 * k >= values.shape[0]:
        if ties is None:
            return np.argsort(values, kind="stable")[:k]
        contenders = np.arange(values.shape[0])
    else:
        kth = values[np.argpartition(values, k - 1)[k - 1]]
        # Everything at or below the k-th value competes; ``contenders`` is
        # ascending, so the stable sort breaks ties by index.
        contenders = np.flatnonzero(values <= kth)
    if ties is not None:
        contenders = contenders[np.argsort(ties[contenders], kind="stable")]
    return contenders[np.argsort(values[contenders], kind="stable")[:k]]


def _nearest_by_squared(squared: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(distances, indices)`` of the *k* nearest entries of one squared row.

    *squared* is one row of unclamped squared Euclidean distances
    (``|a|^2 + |b|^2 - 2 a.b``, possibly slightly negative), and the result
    is bit for bit ``sqrt(max(squared, 0))``'s stable-argsort prefix: the
    first *k* entries by ``(distance, index)`` and their distances.  Only
    the candidates are rooted.

    Why that is exact: the k-th smallest of a strided sample of the row is
    at least the row's k-th smallest, whatever the order of the pool, and
    the root is monotone, so ``U = sqrt(max(kth, 0))`` bounds the row's
    k-th distance from above.  A squared value whose root rounds to at most
    ``U`` lies at or below ``A^2`` with ``A = nextafter(U, inf)``, and
    ``limit = nextafter(fl(A * A), inf)`` is at least the exact ``A^2``,
    so every entry with a distance at or below the k-th passes
    ``squared <= limit``.  The candidates come out in ascending index
    order, so the stable selection among them breaks ties exactly as the
    full stable argsort does.
    """
    size = squared.shape[0]
    # At least max(_SAMPLE, 4k) entries: the sample holds k of them for any
    # k the pruned branch takes (4k < N), with slack for a tight bound.
    sample = squared[:: max(1, size // max(_SAMPLE, 4 * k))]
    kth = np.partition(sample, k - 1)[k - 1]
    above = np.nextafter(np.sqrt(max(kth, 0.0)), np.inf)
    limit = np.nextafter(above * above, np.inf)
    candidates = np.flatnonzero(squared <= limit)
    rooted = np.sqrt(np.maximum(squared[candidates], 0.0))
    nearest = stable_top_k(rooted, k)
    return rooted[nearest], candidates[nearest]


def exact_top_k(
    queries: np.ndarray,
    vectors: np.ndarray,
    k: int,
    distance: Callable[..., np.ndarray],
    *,
    vectors_sq: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(distances, indices)``, ``(Q, k)``: the exact *k* nearest rows of
    *vectors* for every row of *queries*, nearest first.

    The one exact scan: the index backends' full scans and the search
    engine's dense path all rank through it.  Queries go ``_QUERY_BLOCK``
    at a time, so one ``(block, N)`` matrix is alive, and every row's top
    *k* is bit for bit the stable ``argsort`` prefix of ``distance(block,
    vectors)``; ``k = N`` is the full ranking.  *vectors_sq*, the pool's
    :func:`squared_norms` computed once per pool, is passed as *distance*'s
    third argument, for the distance that takes it (the Euclidean one).

    For :func:`euclidean_distances` with ``4k < N`` the block's one matrix
    is ``2 a.b`` (the GEMM); each row's squared distances go through one
    reused ``(N,)`` buffer with the same floating-point operations as
    :func:`pairwise_squared_distances`, and only the entries that can reach
    the top *k* are rooted (:func:`_nearest_by_squared`).  Every other
    distance, and a full ranking, ranks each row of ``distance(block,
    vectors)`` with :func:`stable_top_k`.

    Raises
    ------
    ValidationError
        If *k* is out of ``[1, N]``.
    """
    num_queries, size = queries.shape[0], vectors.shape[0]
    if not 1 <= k <= size:
        raise ValidationError(f"k must be in [1, {size}], got {k}")
    distances = np.empty((num_queries, k), dtype=np.float64)
    indices = np.empty((num_queries, k), dtype=np.int64)
    if distance is euclidean_distances and 4 * k < size:
        queries = np.asarray(queries, dtype=np.float64)
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors_sq is None:
            vectors_sq = squared_norms(vectors)
        squared = np.empty(size, dtype=np.float64)
        for start in range(0, num_queries, _QUERY_BLOCK):
            chunk = queries[start : start + _QUERY_BLOCK]
            product = chunk @ vectors.T
            product *= 2.0
            for row, (norm, twice) in enumerate(zip(squared_norms(chunk), product), start):
                np.add(norm, vectors_sq, out=squared)
                squared -= twice
                distances[row], indices[row] = _nearest_by_squared(squared, k)
        return distances, indices
    norms = () if vectors_sq is None else (vectors_sq,)
    for start in range(0, num_queries, _QUERY_BLOCK):
        block = distance(queries[start : start + _QUERY_BLOCK], vectors, *norms)
        for row, values in enumerate(block, start):
            nearest = stable_top_k(values, k)
            indices[row] = nearest
            distances[row] = values[nearest]
    return distances, indices


def stable_entropy(values: np.ndarray, *, bins: int = 64, eps: float = 1e-12) -> float:
    """Shannon entropy (nats) of the empirical distribution of *values*.

    Used for the wavelet-texture feature: the entropy of each sub-band's
    coefficient histogram summarises its texture energy distribution.
    """
    flat = np.asarray(values, dtype=np.float64).ravel()
    if flat.size == 0:
        return 0.0
    hist, _ = np.histogram(flat, bins=bins)
    total = hist.sum()
    if total == 0:
        return 0.0
    prob = hist.astype(np.float64) / total
    prob = prob[prob > eps]
    return float(-np.sum(prob * np.log(prob)))
