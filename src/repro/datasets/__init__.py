"""Dataset construction: image corpora and query sampling."""

from __future__ import annotations

from repro.datasets.corel import CorelDatasetConfig, build_corel_dataset
from repro.datasets.dataset import ImageDataset
from repro.datasets.pool import GaussianPoolConfig, make_gaussian_pool
from repro.datasets.splits import QuerySampler, relevance_ground_truth

__all__ = [
    "ImageDataset",
    "CorelDatasetConfig",
    "build_corel_dataset",
    "QuerySampler",
    "relevance_ground_truth",
    "GaussianPoolConfig",
    "make_gaussian_pool",
]
