"""Shared fixtures for the test suite.

The expensive fixtures (rendered corpora, feature matrices, populated
databases) are session-scoped: they are built once with small but
non-degenerate sizes and reused by every test module that needs them.

Hypothesis runs under the ``deterministic`` profile unless told otherwise:
every run draws the same examples (``derandomize=True``) and no example
database carries failures from one run into the next, so the suite passes
or fails the same way every time.  ``--hypothesis-profile=default`` or
``--hypothesis-seed=N`` explore new examples instead.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.cbir.database import ImageDatabase
from repro.datasets.corel import CorelDatasetConfig, build_corel_dataset
from repro.logdb.simulation import LogSimulationConfig, collect_feedback_log
from repro.synth.categories import corel_category_specs
from repro.synth.generator import CorelLikeGenerator


settings.register_profile("deterministic", derandomize=True, database=None)


def pytest_configure(config):
    """Register the suite-local markers; load the deterministic profile."""
    config.addinivalue_line(
        "markers",
        "slow: multi-second end-to-end experiment (deselect with -m \"not slow\")",
    )
    # A seed is ignored under ``derandomize``, so either flag means: explore.
    exploring = config.getoption("--hypothesis-profile") or config.getoption(
        "--hypothesis-seed"
    )
    if not exploring:
        settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """A deterministic RNG for ad-hoc randomness inside tests."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_images():
    """A handful of rendered images from three different categories."""
    specs = corel_category_specs(3)
    generator = CorelLikeGenerator(image_size=32, random_state=5)
    return generator.generate_corpus(specs, 4)


@pytest.fixture(scope="session")
def small_dataset():
    """A small 5-category corpus with extracted features (session-scoped)."""
    config = CorelDatasetConfig(
        num_categories=5, images_per_category=12, image_size=32, seed=3
    )
    return build_corel_dataset(config)


@pytest.fixture(scope="session")
def small_log(small_dataset):
    """A simulated feedback log for the small corpus."""
    config = LogSimulationConfig(num_sessions=30, images_per_session=10, noise_rate=0.1, seed=9)
    return collect_feedback_log(small_dataset, config)


@pytest.fixture(scope="session")
def small_database(small_dataset, small_log):
    """An :class:`ImageDatabase` combining the small corpus and its log."""
    return ImageDatabase(small_dataset, log_database=small_log)


@pytest.fixture()
def empty_log_database(small_dataset):
    """A database with no feedback log (cold start)."""
    return ImageDatabase(small_dataset)


@pytest.fixture(scope="session")
def linearly_separable():
    """A tiny linearly separable 2-class problem for SVM tests."""
    generator = np.random.default_rng(0)
    positives = generator.normal(loc=2.0, scale=0.6, size=(25, 2))
    negatives = generator.normal(loc=-2.0, scale=0.6, size=(25, 2))
    features = np.vstack([positives, negatives])
    labels = np.concatenate([np.ones(25), -np.ones(25)])
    return features, labels
