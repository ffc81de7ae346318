"""Deterministic random-number-generator helpers.

Every stochastic component in the library accepts either a seed or an
already-constructed :class:`numpy.random.Generator`.  The helpers here
normalise both forms and derive reproducible child generators so that
independent subsystems (dataset generation, log simulation, query sampling,
solver initialisation) do not interfere with each other's streams.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["RandomState", "ensure_rng", "derive_seed", "spawn_rngs"]

#: Acceptable "seed-like" argument accepted throughout the library.
RandomState = Union[None, int, np.random.Generator]


def ensure_rng(random_state: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *random_state*.

    Parameters
    ----------
    random_state:
        ``None`` for nondeterministic entropy, an ``int`` seed, or an
        existing generator (returned unchanged).
    """
    if random_state is None:
        return np.random.default_rng()
    if isinstance(random_state, np.random.Generator):
        return random_state
    if isinstance(random_state, (int, np.integer)):
        return np.random.default_rng(int(random_state))
    raise TypeError(
        "random_state must be None, an int, or a numpy Generator, "
        f"got {type(random_state).__name__}"
    )


def derive_seed(base_seed: int, *tokens: Union[int, str]) -> int:
    """Derive a reproducible child seed from *base_seed* and a token path.

    The derivation hashes the tokens through :class:`numpy.random.SeedSequence`
    so that, e.g., ``derive_seed(7, "corel20", 3)`` is stable across runs and
    independent of ``derive_seed(7, "corel20", 4)``.
    """
    digest = 0
    for token in tokens:
        text = str(token)
        for char in text:
            digest = (digest * 131 + ord(char)) % (2**31 - 1)
    seq = np.random.SeedSequence([int(base_seed), digest])
    return int(seq.generate_state(1, dtype=np.uint32)[0])


def spawn_rngs(random_state: RandomState, count: int) -> list[np.random.Generator]:
    """Spawn *count* independent child generators from *random_state*."""
    if count < 0:
        raise ValueError("count must be non-negative")
    parent = ensure_rng(random_state)
    seeds = parent.integers(0, 2**31 - 1, size=count)
    return [np.random.default_rng(int(seed)) for seed in seeds]
