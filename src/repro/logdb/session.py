"""The :class:`LogSession` record: one relevance-feedback round."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import LogDatabaseError

__all__ = ["LogSession"]


@dataclass(frozen=True)
class LogSession:
    """One unit of user-feedback log: a single relevance-feedback round.

    Attributes
    ----------
    judgements:
        Read-only mapping of image index → ±1 relevance judgement for the
        images shown in this round (images not shown are simply absent =
        unknown).
    query_index:
        Optional index of the query image that triggered the session.
    session_id:
        Optional identifier (the insertion index) assigned by the
        :class:`~repro.logdb.store.LogStore` on append.

    Indices, judgements and ``query_index`` must be integers (Python or
    NumPy); a float is rejected, never truncated.
    """

    judgements: Mapping[int, int]
    query_index: Optional[int] = None
    session_id: Optional[int] = None

    def __post_init__(self) -> None:
        judgements = dict(self.judgements)
        cleaned: Dict[int, int] = {}
        try:
            for image_index, judgement in judgements.items():
                index = operator.index(image_index)
                value = operator.index(judgement)
                if index < 0:
                    raise LogDatabaseError(
                        f"image index must be non-negative, got {index}"
                    )
                if value not in (-1, 1):
                    raise LogDatabaseError(
                        f"judgement for image {index} must be +1 or -1, got {value}"
                    )
                cleaned[index] = value
        except TypeError:
            raise LogDatabaseError(
                f"image indices and judgements must be integers, got {judgements!r}"
            ) from None
        if not cleaned:
            raise LogDatabaseError("a log session must contain at least one judgement")
        object.__setattr__(self, "judgements", _Judgements(cleaned))
        if self.query_index is not None:
            query_index = _integer(self.query_index, "query_index")
            if query_index < 0:
                raise LogDatabaseError(
                    f"query_index must be non-negative, got {query_index}"
                )
            object.__setattr__(self, "query_index", query_index)

    # ------------------------------------------------------------------ info
    def __len__(self) -> int:
        return len(self.judgements)

    @property
    def image_indices(self) -> Tuple[int, ...]:
        """Indices of the images judged in this session (sorted)."""
        return tuple(sorted(self.judgements))

    @property
    def positive_indices(self) -> Tuple[int, ...]:
        """Images marked relevant."""
        return tuple(sorted(i for i, v in self.judgements.items() if v > 0))

    @property
    def negative_indices(self) -> Tuple[int, ...]:
        """Images marked irrelevant."""
        return tuple(sorted(i for i, v in self.judgements.items() if v < 0))

    @property
    def num_positive(self) -> int:
        """Number of relevant judgements."""
        return len(self.positive_indices)

    @property
    def num_negative(self) -> int:
        """Number of irrelevant judgements."""
        return len(self.negative_indices)

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(image_indices, judgements)`` as aligned arrays."""
        indices = np.array(self.image_indices, dtype=np.int64)
        values = np.array([self.judgements[i] for i in indices], dtype=np.int8)
        return indices, values

    def with_session_id(self, session_id: int) -> "LogSession":
        """Return a copy of the session tagged with *session_id*.

        The fields were cleaned when this session was built, so the copy
        skips ``__post_init__`` and shares the read-only judgements.
        """
        tagged = object.__new__(LogSession)
        object.__setattr__(tagged, "judgements", self.judgements)
        object.__setattr__(tagged, "query_index", self.query_index)
        object.__setattr__(tagged, "session_id", int(session_id))
        return tagged


class _Judgements(Mapping):
    """A read-only view of a cleaned judgements dict that no one else holds.

    Reads go straight to the dict; it pickles as the dict it wraps.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Dict[int, int]) -> None:
        self._items = items

    def __getitem__(self, image_index: int) -> int:
        return self._items[image_index]

    def __iter__(self) -> Iterator[int]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def items(self):
        return self._items.items()

    def __reduce__(self):
        return (_Judgements, (self._items,))

    def __repr__(self) -> str:
        return repr(self._items)


def _integer(value: object, name: str) -> int:
    """*value* as an ``int``; :class:`LogDatabaseError` for a non-integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise LogDatabaseError(f"{name} must be an integer, got {value!r}") from None
