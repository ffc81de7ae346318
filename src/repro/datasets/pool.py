"""Synthetic feature pools for large-pool tests and demos.

The Corel-style corpora render actual images, which caps how large a pool a
run can afford to build.  Index and serving tests instead need *feature
matrices* that are (a) orders of magnitude larger than the rendered corpora
and (b) clustered the way real image features are — a Gaussian mixture
delivers both at negligible cost, with the number of mixture components
playing the role of visual categories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.rng import RandomState, ensure_rng

__all__ = ["GaussianPoolConfig", "make_gaussian_pool", "make_pool_dataset"]


@dataclass(frozen=True)
class GaussianPoolConfig:
    """Shape of a synthetic Gaussian-mixture feature pool.

    Attributes
    ----------
    num_vectors:
        Database size N.
    dim:
        Feature dimensionality d.
    num_clusters:
        Mixture components (visual "categories").
    cluster_std:
        Within-cluster standard deviation (component centres are drawn from
        the unit normal, so smaller values mean tighter clusters).
    num_queries:
        Held-out query vectors, drawn from the same mixture.
    seed:
        Seed of the whole pool draw.
    """

    num_vectors: int = 10_000
    dim: int = 16
    num_clusters: int = 64
    cluster_std: float = 0.15
    num_queries: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_vectors < 1:
            raise ValidationError(f"num_vectors must be >= 1, got {self.num_vectors}")
        if self.dim < 1:
            raise ValidationError(f"dim must be >= 1, got {self.dim}")
        if self.num_clusters < 1:
            raise ValidationError(f"num_clusters must be >= 1, got {self.num_clusters}")
        if self.cluster_std <= 0:
            raise ValidationError(f"cluster_std must be positive, got {self.cluster_std}")
        if self.num_queries < 0:
            raise ValidationError(f"num_queries must be >= 0, got {self.num_queries}")


def make_gaussian_pool(
    config: GaussianPoolConfig = GaussianPoolConfig(),
    *,
    random_state: RandomState = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw ``(database, queries)`` matrices from a Gaussian mixture.

    Returns
    -------
    (database, queries):
        ``(num_vectors, dim)`` and ``(num_queries, dim)`` float64 matrices.
        Both are drawn from the same mixture, so every query has a dense
        neighbourhood in the database.
    """
    rng = ensure_rng(config.seed if random_state is None else random_state)
    centers = rng.normal(size=(config.num_clusters, config.dim))
    assignments = rng.integers(config.num_clusters, size=config.num_vectors)
    database = centers[assignments] + rng.normal(
        scale=config.cluster_std, size=(config.num_vectors, config.dim)
    )
    query_assignments = rng.integers(config.num_clusters, size=config.num_queries)
    queries = centers[query_assignments] + rng.normal(
        scale=config.cluster_std, size=(config.num_queries, config.dim)
    )
    return database, queries


def make_pool_dataset(
    config: GaussianPoolConfig = GaussianPoolConfig(),
    *,
    name: str = "gaussian-pool",
    random_state: RandomState = None,
) -> Tuple["ImageDataset", np.ndarray]:
    """Wrap a Gaussian pool into a feature-only :class:`ImageDataset`.

    The service and database layers consume datasets, not raw matrices, so
    pool-scale runs (e.g. a retrieval service over a 100k pool) need a
    dataset whose *features* are the pool.  The image list is
    a single shared 2×2 placeholder — nothing downstream of feature
    extraction reads pixels — which keeps a 100k-image dataset at the cost
    of one array.

    Returns
    -------
    (dataset, queries):
        The wrapped dataset and the held-out query matrix.
    """
    from repro.datasets.dataset import ImageDataset
    from repro.imaging.image import Image

    vectors, queries = make_gaussian_pool(config, random_state=random_state)
    placeholder = Image(pixels=np.zeros((2, 2, 3)))
    dataset = ImageDataset(
        images=[placeholder] * config.num_vectors,
        labels=np.zeros(config.num_vectors, dtype=np.int64),
        category_names=("pool",),
        features=vectors,
        name=name,
    )
    return dataset, queries
