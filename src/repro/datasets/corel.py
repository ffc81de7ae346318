"""Builders for the synthetic 20-Category and 50-Category COREL-like datasets.

The paper evaluates on two COREL subsets: 20 categories x 100 images and
50 categories x 100 images.  :func:`build_corel_dataset` renders the
equivalent synthetic corpora and (optionally) extracts the 36-dimensional
composite feature used throughout the experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.datasets.dataset import ImageDataset
from repro.exceptions import ConfigurationError
from repro.synth.categories import COREL_CATEGORY_NAMES, corel_category_specs
from repro.synth.generator import CorelLikeGenerator
from repro.utils.rng import RandomState, derive_seed, ensure_rng

__all__ = ["CorelDatasetConfig", "build_corel_dataset"]


@dataclass(frozen=True)
class CorelDatasetConfig:
    """Configuration of a synthetic COREL-like dataset.

    Attributes
    ----------
    num_categories:
        Number of semantic categories (20 and 50 reproduce the paper's sets).
    images_per_category:
        Images rendered per category (100 in the paper).
    image_size:
        Square image side length in pixels.
    seed:
        Master seed controlling the render.
    extract_features:
        Whether to extract and attach the 36-d composite feature matrix.
    """

    num_categories: int = 20
    images_per_category: int = 100
    image_size: int = 48
    seed: int = 7
    extract_features: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.num_categories <= len(COREL_CATEGORY_NAMES):
            raise ConfigurationError(
                f"num_categories must be in [1, {len(COREL_CATEGORY_NAMES)}], "
                f"got {self.num_categories}"
            )
        if self.images_per_category < 2:
            raise ConfigurationError(
                f"images_per_category must be >= 2, got {self.images_per_category}"
            )
        if self.image_size < 16:
            raise ConfigurationError(f"image_size must be >= 16, got {self.image_size}")

    @property
    def total_images(self) -> int:
        """Total number of images the dataset will contain."""
        return self.num_categories * self.images_per_category

    @property
    def name(self) -> str:
        """Canonical dataset name, e.g. ``corel-20``."""
        return f"corel-{self.num_categories}"


def build_corel_dataset(
    config: Optional[CorelDatasetConfig] = None,
    *,
    random_state: RandomState = None,
    show_progress: bool = False,
) -> ImageDataset:
    """Build a synthetic COREL-like dataset according to *config*.

    Parameters
    ----------
    config:
        Dataset configuration; defaults to the 20-Category setup.
    random_state:
        Overrides ``config.seed`` when given.
    show_progress:
        Print a progress line while extracting features (useful for the
        paper-scale corpora).
    """
    cfg = config if config is not None else CorelDatasetConfig()
    seed = cfg.seed if random_state is None else random_state
    rng = ensure_rng(
        derive_seed(seed, "corel", cfg.num_categories, cfg.images_per_category)
        if isinstance(seed, (int, np.integer))
        else seed
    )

    specs = corel_category_specs(cfg.num_categories)
    generator = CorelLikeGenerator(image_size=cfg.image_size, random_state=rng)
    images = generator.generate_corpus(specs, cfg.images_per_category)
    labels = np.array([image.category for image in images], dtype=np.int64)
    category_names = tuple(spec.name for spec in specs)

    dataset = ImageDataset(
        images=images,
        labels=labels,
        category_names=category_names,
        name=cfg.name,
    )

    if cfg.extract_features:
        # Imported lazily to avoid a circular import at package-load time.
        from repro.features.composite import CompositeExtractor

        extractor = CompositeExtractor()
        features = extractor.extract_batch(images, show_progress=show_progress)
        dataset = dataset.with_features(features)
    return dataset
