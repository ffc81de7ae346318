"""Small numerical helpers shared by feature extraction and evaluation."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy import sparse

from repro.exceptions import ValidationError

__all__ = [
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

#: Entries (rows times columns) squared at a time by :func:`squared_norms`.
_NORM_BLOCK_ENTRIES = 2**16


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
    """Squared Euclidean norm of every row of dense 2-D *rows*.

    The one definition (``np.sum(rows * rows, axis=1)``) behind
    :func:`pairwise_squared_distances`,
    :attr:`~repro.cbir.database.ImageDatabase.feature_sq_norms` and the
    index's cached norms, so norms computed once and passed in are bit for
    bit the ones a call would recompute.

    A row's norm depends on that row alone, so a pool is squared and summed
    in blocks of about ``_NORM_BLOCK_ENTRIES`` entries (no ``(N, D)``
    product exists); values and dtype are the formula's, byte for byte.
    An input within one block costs one ``rows * rows``, as the formula
    does.  A lone row left over joins the block before it: numpy sums a
    one-row block of a column-major pool in another order than its peers.
    """
    step = max(2, _NORM_BLOCK_ENTRIES // max(1, rows.shape[1]))
    blocks = np.split(rows, range(step, rows.shape[0] - 1, step))
    return np.concatenate([np.sum(block * block, axis=1) for block in blocks])


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
    # Not ``(2.0 * a) @ b.T``: with *a* and *b* one array, ``a @ b.T`` is
    # the symmetric product numpy hands to its symmetric routine, so a
    # training Gram is exactly symmetric; the doubled operand would not be.
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


def stable_top_k(values: np.ndarray, k: int) -> np.ndarray:
    """Positions of the *k* smallest entries of 1-D *values*, by ``(value, index)``.

    Element for element ``np.argsort(values, kind="stable")[:k]`` — ties,
    also those straddling the k-th place, resolve by ascending index — but
    an ``argpartition`` selection (O(N)) finds the k-th value first and only
    the entries at or below it are sorted.  When *k* is a large fraction of
    N the selection buys nothing and the full stable sort runs.  Negate
    *values* for the *k* largest; reverse them (``values[::-1]``) for ties
    by descending index.  ``k = 0`` selects nothing.

    Raises
    ------
    ValidationError
        If *k* is negative.
    """
    if k < 0:
        raise ValidationError(f"k must be >= 0, got {k}")
    if k < 1 or 4 * k >= values.shape[0]:
        return np.argsort(values, kind="stable")[:k]
    kth = values[np.argpartition(values, k - 1)[k - 1]]
    # Everything at or below the k-th value competes; ``contenders`` is
    # ascending, so the stable sort breaks ties by index.
    contenders = np.flatnonzero(values <= kth)
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
    *,
    vectors_sq: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(distances, indices)``, ``(Q, k)``: the exact *k* nearest rows of
    *vectors* for every row of *queries* by Euclidean distance, nearest
    first.

    The one exact scan: the index's full scan and the search engine's dense
    path both rank through it.  Queries go ``_QUERY_BLOCK`` at a time, so
    one ``(block, N)`` matrix is alive, and every row's top *k* is bit for
    bit the stable ``argsort`` prefix of ``euclidean_distances(block,
    vectors)``; ``k = N`` is the full ranking.  *vectors_sq* is
    the pool's :func:`squared_norms`, computed once per pool; without it
    the scan computes them once per call.

    With ``4k < N`` the block's one matrix is ``2 a.b``, one GEMM of the
    doubled query block (exact: doubling is a power-of-two scale); each
    row's squared distances go through one reused ``(N,)`` buffer with the
    same floating-point operations as :func:`pairwise_squared_distances`,
    and only the entries that can reach the top *k* are rooted
    (:func:`_nearest_by_squared`).  Otherwise each row of the block's
    :func:`euclidean_distances` is ranked with :func:`stable_top_k`.

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
    queries = np.asarray(queries, dtype=np.float64)
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors_sq is None:
        vectors_sq = squared_norms(vectors)
    if 4 * k < size:
        squared = np.empty(size, dtype=np.float64)
        for start in range(0, num_queries, _QUERY_BLOCK):
            chunk = queries[start : start + _QUERY_BLOCK]
            # Doubling the (block, d) operand instead of the (block, N)
            # product spares one full-width pass; scaling by a power of two
            # is exact, so every entry is bit for bit the doubled product.
            product = (2.0 * chunk) @ vectors.T
            for row, (norm, twice) in enumerate(zip(squared_norms(chunk), product), start):
                np.add(norm, vectors_sq, out=squared)
                squared -= twice
                distances[row], indices[row] = _nearest_by_squared(squared, k)
        return distances, indices
    for start in range(0, num_queries, _QUERY_BLOCK):
        block = euclidean_distances(queries[start : start + _QUERY_BLOCK], vectors, vectors_sq)
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
