"""On-disk caching of extracted feature matrices.

Rendering a paper-scale corpus and extracting Canny/DWT features for every
image takes tens of seconds; caching the feature matrix (plus labels) keyed
by the dataset configuration makes repeated runs instant.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Tuple, Union

import numpy as np

from repro.datasets.corel import CorelDatasetConfig
from repro.utils.io import load_array_bundle, save_array_bundle

__all__ = ["FeatureCache"]

PathLike = Union[str, Path]


class FeatureCache:
    """A tiny content-addressed cache of ``(features, labels)`` bundles."""

    def __init__(self, directory: PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ keys
    @staticmethod
    def key_for(config: CorelDatasetConfig) -> str:
        """Stable cache key derived from every field of *config*."""
        payload = repr(sorted(asdict(config).items())).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:20]

    def path_for(self, config: CorelDatasetConfig) -> Path:
        """Path of the cache entry for *config* (whether or not it exists)."""
        return self.directory / f"{config.name}-{self.key_for(config)}.npz"

    # ------------------------------------------------------------------- ops
    def contains(self, config: CorelDatasetConfig) -> bool:
        """Whether a cache entry exists for *config*."""
        return self.path_for(config).exists()

    def store(
        self, config: CorelDatasetConfig, features: np.ndarray, labels: np.ndarray
    ) -> Path:
        """Persist ``(features, labels)`` for *config*."""
        return save_array_bundle(
            {"features": np.asarray(features), "labels": np.asarray(labels)},
            self.path_for(config),
        )

    def load(self, config: CorelDatasetConfig) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Load ``(features, labels)`` for *config*, or ``None`` when absent."""
        path = self.path_for(config)
        if not path.exists():
            return None
        bundle = load_array_bundle(path)
        return bundle["features"], bundle["labels"]
