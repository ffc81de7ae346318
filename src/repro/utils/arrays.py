"""Small numerical helpers shared by feature extraction and evaluation."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy import sparse

__all__ = [
    "zscore",
    "minmax_scale",
    "l2_normalize_rows",
    "as_row_matrix",
    "pairwise_squared_distances",
    "stable_top_k",
    "stable_entropy",
]


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
    :meth:`~repro.logdb.log_database.LogSnapshot.log_rows`) is left sparse
    so products with it cost ``O(nnz)``.
    """
    if sparse.issparse(rows):
        return rows
    return np.atleast_2d(np.asarray(rows, dtype=np.float64))


def pairwise_squared_distances(
    a, b: np.ndarray, *, a_sq: Optional[np.ndarray] = None
) -> np.ndarray:
    """Squared Euclidean distances between rows of *a* and rows of *b*.

    Uses the ``|a|^2 + |b|^2 - 2 a.b`` expansion, clipped at zero to guard
    against tiny negative values from floating-point cancellation.  *a* may
    be scipy-sparse (row norms and ``a @ b.T`` are then sparse products);
    the result is always a dense ``(len(a), len(b))`` array.

    *a_sq* is the ``(len(a),)`` vector of squared row norms of *a*, for
    callers that score the same rows again and again (the pool's features:
    :attr:`~repro.cbir.database.ImageDatabase.feature_sq_norms`).  It must
    be what ``np.sum(a * a, axis=1)`` returns; the result is then bit for
    bit the one computed without it.
    """
    a = as_row_matrix(a)
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a_sq is None:
        if sparse.issparse(a):
            a_sq = np.asarray(a.multiply(a).sum(axis=1)).ravel()
        else:
            a_sq = np.sum(a * a, axis=1)
    b_sq = np.sum(b * b, axis=1)[None, :]
    # In-place updates keep the accumulation order of the naive
    # ``a_sq + b_sq - 2ab`` expression (bit-identical results) while
    # avoiding two full (Q, N) temporaries — on serving-sized batches the
    # extra allocations used to dominate the matmul itself.
    squared = a_sq[:, None] + b_sq
    product = a @ b.T
    product *= 2.0
    squared -= product
    np.maximum(squared, 0.0, out=squared)
    return squared


def stable_top_k(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the *k* smallest entries of 1-D *values*, by ``(value, index)``.

    Element for element ``np.argsort(values, kind="stable")[:k]`` — ties,
    also those straddling the k-th place, resolve by ascending index — but
    an ``argpartition`` selection (O(N)) finds the k-th value first and only
    the entries at or below it are sorted.  When *k* is a large fraction of
    N the selection buys nothing and the full stable sort runs.  Negate
    *values* for the *k* largest; reverse them (``values[::-1]``) for ties
    by descending index.
    """
    if k < 1 or 4 * k >= values.shape[0]:
        return np.argsort(values, kind="stable")[:k]
    kth = values[np.argpartition(values, k - 1)[k - 1]]
    # Everything at or below the k-th value competes; ``contenders`` is
    # ascending, so the stable sort breaks ties by index.
    contenders = np.flatnonzero(values <= kth)
    return contenders[np.argsort(values[contenders], kind="stable")[:k]]


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
