"""Tests for repro.datasets (dataset container, corel builders, splits, cache)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.corel import CorelDatasetConfig, build_corel_dataset
from repro.datasets.dataset import ImageDataset
from repro.datasets.splits import QuerySampler, relevance_ground_truth, relevance_labels
from repro.exceptions import ConfigurationError, ValidationError


class TestImageDataset:
    def test_basic_properties(self, small_dataset):
        assert small_dataset.num_images == 60
        assert small_dataset.num_categories == 5
        assert small_dataset.has_features
        assert len(small_dataset) == 60

    def test_category_lookup(self, small_dataset):
        assert small_dataset.category_of(0) == 0
        assert small_dataset.category_name_of(0) == small_dataset.category_names[0]

    def test_indices_of_category(self, small_dataset):
        indices = small_dataset.indices_of_category(2)
        assert len(indices) == 12
        assert np.all(small_dataset.labels[indices] == 2)

    def test_indices_of_invalid_category(self, small_dataset):
        with pytest.raises(ValidationError):
            small_dataset.indices_of_category(99)

    def test_subset_preserves_alignment(self, small_dataset):
        indices = [0, 13, 25, 37]
        subset = small_dataset.subset(indices)
        assert subset.num_images == 4
        np.testing.assert_array_equal(subset.labels, small_dataset.labels[indices])
        np.testing.assert_array_equal(subset.features, small_dataset.features[indices])

    def test_subset_empty_rejected(self, small_dataset):
        with pytest.raises(ValidationError):
            small_dataset.subset([])

    def test_misaligned_labels_rejected(self, small_dataset):
        with pytest.raises(ValidationError):
            ImageDataset(
                images=small_dataset.images[:5],
                labels=np.zeros(4, dtype=int),
                category_names=("a",),
            )

    def test_misaligned_features_rejected(self, small_dataset):
        with pytest.raises(ValidationError):
            small_dataset.with_features(np.zeros((3, 36)))

    def test_labels_must_index_category_names(self, small_dataset):
        with pytest.raises(ValidationError):
            ImageDataset(
                images=small_dataset.images[:2],
                labels=np.array([0, 7]),
                category_names=("a", "b"),
            )


class TestCorelBuilder:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            CorelDatasetConfig(num_categories=0)
        with pytest.raises(ConfigurationError):
            CorelDatasetConfig(num_categories=51)
        with pytest.raises(ConfigurationError):
            CorelDatasetConfig(images_per_category=1)
        with pytest.raises(ConfigurationError):
            CorelDatasetConfig(image_size=4)

    def test_names_and_sizes(self):
        config = CorelDatasetConfig(num_categories=4, images_per_category=3, image_size=24)
        assert config.total_images == 12
        assert config.name == "corel-4"

    def test_build_without_features(self):
        config = CorelDatasetConfig(
            num_categories=3, images_per_category=2, image_size=24, extract_features=False
        )
        dataset = build_corel_dataset(config)
        assert dataset.num_images == 6
        assert not dataset.has_features

    def test_build_is_deterministic(self):
        config = CorelDatasetConfig(
            num_categories=2, images_per_category=3, image_size=24, seed=17
        )
        first = build_corel_dataset(config)
        second = build_corel_dataset(config)
        np.testing.assert_allclose(first.features, second.features)

    def test_different_seed_differs(self):
        base = dict(num_categories=2, images_per_category=3, image_size=24)
        first = build_corel_dataset(CorelDatasetConfig(seed=1, **base))
        second = build_corel_dataset(CorelDatasetConfig(seed=2, **base))
        assert not np.allclose(first.features, second.features)


class TestSplits:
    def test_ground_truth_matches_category(self, small_dataset):
        relevant = relevance_ground_truth(small_dataset, 0)
        assert relevant.sum() == 12
        assert relevant[0]

    def test_ground_truth_invalid_query(self, small_dataset):
        with pytest.raises(ValidationError):
            relevance_ground_truth(small_dataset, 10_000)

    def test_relevance_labels(self, small_dataset):
        labels = relevance_labels(small_dataset, 0, [0, 1, 12, 13])
        np.testing.assert_array_equal(labels, [1.0, 1.0, -1.0, -1.0])

    def test_query_sampler_count_and_range(self, small_dataset):
        sampler = QuerySampler(small_dataset, random_state=0)
        queries = sampler.sample(17)
        assert queries.shape == (17,)
        assert queries.min() >= 0
        assert queries.max() < small_dataset.num_images

    def test_query_sampler_stratified_covers_categories(self, small_dataset):
        sampler = QuerySampler(small_dataset, random_state=1)
        queries = sampler.sample(10)
        categories = {small_dataset.category_of(int(q)) for q in queries}
        assert len(categories) == 5  # 10 queries over 5 categories -> all covered

    def test_query_sampler_deterministic(self, small_dataset):
        a = QuerySampler(small_dataset, random_state=3).sample(8)
        b = QuerySampler(small_dataset, random_state=3).sample(8)
        np.testing.assert_array_equal(a, b)

    def test_invalid_query_count(self, small_dataset):
        with pytest.raises(ValidationError):
            QuerySampler(small_dataset).sample(0)
