"""Argument-validation helpers used across the library.

These helpers raise :class:`repro.exceptions.ValidationError` with readable
messages instead of letting numpy broadcast errors surface deep inside the
solvers.
"""

from __future__ import annotations

import operator
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "check_array",
    "check_labels",
    "check_positive",
    "check_in_range",
    "check_probability",
    "check_consistent_length",
    "check_top_k",
]


def check_array(
    value,
    *,
    name: str = "array",
    ndim: Optional[int] = None,
    dtype=np.float64,
    allow_empty: bool = False,
) -> np.ndarray:
    """Convert *value* to a numpy array and validate its shape.

    Parameters
    ----------
    value:
        Array-like input.
    name:
        Name used in error messages.
    ndim:
        Required number of dimensions, or ``None`` to accept any.
    dtype:
        Target dtype of the returned array (``None`` keeps the input dtype).
    allow_empty:
        Whether a zero-sized array is acceptable.
    """
    array = np.asarray(value, dtype=dtype)
    if ndim is not None and array.ndim != ndim:
        raise ValidationError(
            f"{name} must have {ndim} dimension(s), got shape {array.shape}"
        )
    if not allow_empty and array.size == 0:
        raise ValidationError(f"{name} must not be empty")
    if array.dtype.kind == "f" and not np.all(np.isfinite(array)):
        raise ValidationError(f"{name} contains NaN or infinite values")
    return array


def check_labels(labels, *, name: str = "y") -> np.ndarray:
    """Validate a vector of binary labels in ``{-1, +1}``."""
    array = np.asarray(labels, dtype=np.float64).ravel()
    if array.size == 0:
        raise ValidationError(f"{name} must not be empty")
    values = np.unique(array)
    if not np.all(np.isin(values, (-1.0, 1.0))):
        raise ValidationError(
            f"{name} must contain only -1 and +1 labels, got values {values}"
        )
    return array


def check_positive(value: float, *, name: str = "value", strict: bool = True) -> float:
    """Validate that *value* is positive (strictly by default)."""
    number = float(value)
    if strict and number <= 0:
        raise ValidationError(f"{name} must be > 0, got {number}")
    if not strict and number < 0:
        raise ValidationError(f"{name} must be >= 0, got {number}")
    return number


def check_in_range(
    value: float,
    low: float,
    high: float,
    *,
    name: str = "value",
    inclusive: bool = True,
) -> float:
    """Validate that *value* lies in ``[low, high]`` (or ``(low, high)``)."""
    number = float(value)
    if inclusive:
        ok = low <= number <= high
    else:
        ok = low < number < high
    if not ok:
        bounds = f"[{low}, {high}]" if inclusive else f"({low}, {high})"
        raise ValidationError(f"{name} must be in {bounds}, got {number}")
    return number


def check_probability(value: float, *, name: str = "probability") -> float:
    """Validate that *value* is a probability in ``[0, 1]``."""
    return check_in_range(value, 0.0, 1.0, name=name)


def check_consistent_length(*arrays, names: Optional[Sequence[str]] = None) -> None:
    """Validate that all array-likes share the same first-dimension length."""
    lengths = [len(array) for array in arrays]
    if len(set(lengths)) > 1:
        labels = names if names is not None else [f"array{i}" for i in range(len(arrays))]
        detail = ", ".join(f"{label}={length}" for label, length in zip(labels, lengths))
        raise ValidationError(f"inconsistent lengths: {detail}")


def check_top_k(top_k) -> Optional[int]:
    """``None`` or an integer >= 1, as the ranking size of every entry point.

    Anything :func:`operator.index` accepts (numpy integers included)
    passes; ``2.5`` or ``"3"`` is rejected, never truncated or parsed, and
    so are ``0`` and negative sizes.
    """
    try:
        cleaned = None if top_k is None else operator.index(top_k)
    except TypeError:
        cleaned = 0
    if cleaned is not None and cleaned < 1:
        raise ValidationError(f"top_k must be an integer >= 1, got {top_k!r}")
    return cleaned
