"""Tests for the CBIR layer (repro.cbir)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cbir.database import ImageDatabase
from repro.cbir.query import Query, RetrievalResult
from repro.cbir.search import SearchEngine
from repro.cbir.similarity import (
    cosine_distances,
    euclidean_distances,
    make_distance,
    manhattan_distances,
)
from repro.exceptions import DatabaseError, ValidationError


class TestSimilarity:
    def test_euclidean_matches_numpy(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
        expected = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        np.testing.assert_allclose(euclidean_distances(a, b), expected, atol=1e-10)

    def test_manhattan_known_value(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[1.0, 2.0]])
        assert manhattan_distances(a, b)[0, 0] == pytest.approx(3.0)

    def test_cosine_orthogonal_vectors(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        assert cosine_distances(a, b)[0, 0] == pytest.approx(1.0)

    def test_cosine_identical_vectors(self):
        a = np.array([[1.0, 2.0]])
        assert cosine_distances(a, a)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_make_distance_lookup(self):
        assert make_distance("euclidean") is euclidean_distances
        with pytest.raises(ValidationError):
            make_distance("mahalanobis")


class TestQueryAndResult:
    def test_query_requires_source(self):
        with pytest.raises(ValidationError):
            Query()

    def test_internal_query(self):
        query = Query(query_index=4)
        assert query.is_internal

    def test_external_query_vector(self):
        query = Query(feature_vector=[1.0, 2.0, 3.0])
        assert not query.is_internal
        assert query.feature_vector.shape == (3,)

    def test_result_alignment_enforced(self):
        with pytest.raises(ValidationError):
            RetrievalResult(
                image_indices=[1, 2, 3], scores=[0.5, 0.4], query=Query(query_index=0)
            )

    def test_result_top(self):
        result = RetrievalResult(
            image_indices=[5, 2, 9], scores=[0.9, 0.5, 0.1], query=Query(query_index=0)
        )
        np.testing.assert_array_equal(result.top(2), [5, 2])
        assert len(result) == 3


class TestImageDatabase:
    def test_requires_features(self, small_dataset):
        stripped = small_dataset.subset(range(small_dataset.num_images))
        stripped.features = None
        with pytest.raises(DatabaseError):
            ImageDatabase(stripped)

    def test_normalized_features(self, small_database):
        features = small_database.features
        np.testing.assert_allclose(features.mean(axis=0), 0.0, atol=1e-8)

    def test_log_vectors_alignment(self, small_database):
        vectors = small_database.log_database.snapshot().log_vectors([0, 5])
        assert vectors.shape == (2, len(small_database.log_database))

    def test_feature_of_bounds(self, small_database):
        with pytest.raises(DatabaseError):
            small_database.feature_of(10_000)

    def test_log_size_mismatch_rejected(self, small_dataset):
        from repro.logdb import InMemoryLogStore

        with pytest.raises(DatabaseError):
            ImageDatabase(small_dataset, log_database=InMemoryLogStore(num_images=3))

    def test_external_feature_transform(self, small_database, small_dataset):
        raw = small_dataset.features[:2]
        transformed = small_database.transform_external_features(raw)
        np.testing.assert_allclose(transformed, small_database.features[:2], atol=1e-10)

    def test_external_feature_dimension_check(self, small_database):
        with pytest.raises(DatabaseError):
            small_database.transform_external_features(np.ones((1, 7)))


class TestSearchEngine:
    def test_query_image_ranked_first(self, small_database):
        engine = SearchEngine(small_database)
        result = engine.search(Query(query_index=7))
        assert result.image_indices[0] == 7

    def test_top_k_limits_results(self, small_database):
        engine = SearchEngine(small_database)
        result = engine.search(Query(query_index=0), top_k=5)
        assert len(result) == 5

    def test_scores_decreasing(self, small_database):
        engine = SearchEngine(small_database)
        result = engine.search(Query(query_index=3), top_k=10)
        assert np.all(np.diff(result.scores) <= 1e-12)

    def test_external_query(self, small_database, small_dataset):
        engine = SearchEngine(small_database)
        result = engine.search(
            Query(feature_vector=small_dataset.features[11]), top_k=3
        )
        assert result.image_indices[0] == 11

    def test_invalid_top_k(self, small_database):
        engine = SearchEngine(small_database)
        with pytest.raises(ValidationError):
            engine.search(Query(query_index=0), top_k=0)

    def test_initial_retrieval_better_than_random(self, small_database, small_dataset):
        """Same-category images should be over-represented in the top results."""
        engine = SearchEngine(small_database)
        precisions = []
        for query_index in range(0, small_dataset.num_images, 12):
            result = engine.search(Query(query_index=query_index), top_k=10)
            category = small_dataset.category_of(query_index)
            hits = np.mean(
                [small_dataset.category_of(int(i)) == category for i in result.image_indices]
            )
            precisions.append(hits)
        random_baseline = 12 / small_dataset.num_images
        assert np.mean(precisions) > 2 * random_baseline
