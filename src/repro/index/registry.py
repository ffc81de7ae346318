"""Registry / factory for the ANN index backends (mirrors feedback.registry)."""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.exceptions import ValidationError
from repro.index.base import VectorIndex
from repro.index.brute_force import BruteForceIndex
from repro.index.ivf import IVFIndex

__all__ = ["make_index", "available_indexes", "load_index"]

_FACTORIES: Dict[str, Callable[..., VectorIndex]] = {
    BruteForceIndex.kind: BruteForceIndex,
    IVFIndex.kind: IVFIndex,
}


def available_indexes() -> List[str]:
    """Names of every registered index backend."""
    return sorted(_FACTORIES)


def make_index(kind: str, **kwargs) -> VectorIndex:
    """Instantiate a backend by name, forwarding *kwargs* to its constructor."""
    try:
        factory = _FACTORIES[kind]
    except KeyError:
        raise ValidationError(
            f"unknown index backend '{kind}', expected one of {available_indexes()}"
        ) from None
    return factory(**kwargs)


def load_index(path) -> VectorIndex:
    """Load any serialised index bundle (dispatches on its recorded kind)."""
    return VectorIndex.load(path)
