"""Tests for the exact ``repro.index.VectorIndex`` and its serving-layer wiring.

The load-bearing properties:

* the index ranks exactly as the dense scan does, for a query batch of
  any size;
* the serving layers (``SearchEngine``, ``ImageDatabase``,
  ``RetrievalService``) use the index without changing exact-path results,
  and fall back to the exact scan when none is attached.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.cbir.database import ImageDatabase
from repro.cbir.query import Query
from repro.cbir.search import SearchEngine
from repro.datasets.pool import GaussianPoolConfig, make_gaussian_pool
from repro.exceptions import ValidationError
from repro.feedback.euclidean import EuclideanFeedback
from repro.index import VectorIndex
from repro.service import RetrievalService
from repro.utils.arrays import euclidean_distances, exact_top_k, squared_norms, stable_top_k


@pytest.fixture(scope="module")
def pool():
    """A clustered pool with a duplicated block to exercise tie-breaking."""
    vectors, queries = make_gaussian_pool(
        GaussianPoolConfig(num_vectors=400, dim=10, num_clusters=12, num_queries=12, seed=11)
    )
    vectors[50:60] = vectors[0:10]  # exact duplicates → distance ties
    return vectors, queries


@pytest.fixture(scope="module")
def oracle(pool):
    vectors, queries = pool
    index = VectorIndex().build(vectors)
    distances, indices = index.batch_search(queries, 25)
    return index, distances, indices


class TestVectorIndexInterface:
    def test_registry_rejects_unknown_backend(self, small_dataset):
        database = ImageDatabase(small_dataset)
        with pytest.raises(ValidationError, match="unknown index backend 'annoy'"):
            database.build_index("annoy")
        assert database.index is None

    def test_search_before_build_raises(self):
        with pytest.raises(ValidationError, match="not been built"):
            VectorIndex().batch_search(np.zeros(3), 1)

    def test_build_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValidationError):
            VectorIndex().build(np.empty((0, 4)))
        with pytest.raises(ValidationError, match="finite"):
            VectorIndex().build(np.array([[np.nan, 1.0]]))

    def test_k_and_dimension_validation(self, pool):
        vectors, queries = pool
        index = VectorIndex().build(vectors)
        with pytest.raises(ValidationError, match="k must be"):
            index.batch_search(queries, 0)
        with pytest.raises(ValidationError, match="k must be"):
            index.batch_search(queries, vectors.shape[0] + 1)
        with pytest.raises(ValidationError, match="dimension"):
            index.batch_search(np.zeros(3), 1)

    def test_brute_force_matches_dense_scan(self, pool):
        vectors, queries = pool
        index = VectorIndex().build(vectors)
        distances, indices = index.batch_search(queries[:3], 10)
        dense = euclidean_distances(queries[:3], vectors)
        expected = np.argsort(dense, axis=1, kind="stable")[:, :10]
        np.testing.assert_array_equal(indices, expected)
        np.testing.assert_allclose(
            distances, np.take_along_axis(dense, expected, axis=1)
        )

    def test_batch_search_equals_search(self, pool):
        # A batch of more than 1 024 queries is one exact_top_k call.  The
        # scan blocks queries 64 at a time and 1 024 is a multiple of 64, so
        # cutting the batch into 1 024-query chunks would move no block
        # boundary and change no neighbour or distance bit.
        vectors, _ = pool
        queries = np.random.default_rng(5).normal(size=(1100, vectors.shape[1]))
        index = VectorIndex().build(vectors)
        for k in (25, 150):  # the squared-distance selection and the full sort
            batch_d, batch_i = index.batch_search(queries, k)
            want_d, want_i = exact_top_k(
                queries, vectors, k, vectors_sq=squared_norms(vectors)
            )
            np.testing.assert_array_equal(batch_i, want_i)
            assert batch_d.tobytes() == want_d.tobytes()

    def test_single_vector_query_shape(self, oracle, pool):
        vectors, queries = pool
        index = oracle[0]
        distances, indices = index.batch_search(queries[0], 5)
        assert distances.shape == (1, 5) and indices.shape == (1, 5)

    def test_empty_query_batch(self, oracle, pool):
        vectors, _ = pool
        index = oracle[0]
        empty = np.empty((0, vectors.shape[1]))
        distances, indices = index.batch_search(empty, 5)
        assert distances.shape == (0, 5) and indices.shape == (0, 5)


class TestSearchEngineIndexing:
    def test_algorithm_reports_engine_distance(self, small_database):
        result = SearchEngine(small_database).search(Query(query_index=0), top_k=5)
        assert result.algorithm == "euclidean"

    def test_index_path_matches_dense_scan(self, small_database):
        dense = SearchEngine(small_database).search(Query(query_index=3), top_k=15)
        database = ImageDatabase(small_database.dataset)
        database.build_index("brute-force")
        engine = SearchEngine(database)
        assert engine.index is database.index
        indexed = engine.search(Query(query_index=3), top_k=15)
        np.testing.assert_array_equal(indexed.image_indices, dense.image_indices)
        np.testing.assert_allclose(indexed.scores, dense.scores)
        assert indexed.algorithm == dense.algorithm == "euclidean"

    def test_attached_index_is_used(self, small_dataset):
        database = ImageDatabase(small_dataset)
        assert SearchEngine(database).index is None
        database.build_index("brute-force")
        engine = SearchEngine(database)
        assert engine.index is database.index

    def test_full_ranking_bypasses_index(self, small_dataset, monkeypatch):
        # top_k=None visits every image anyway: the engine serves it by the
        # dense scan, while an explicit top_k goes through the index.
        database = ImageDatabase(small_dataset)
        index = database.build_index("brute-force")
        calls = []
        search = index.batch_search
        monkeypatch.setattr(
            index, "batch_search", lambda *a, **k: calls.append(a) or search(*a, **k)
        )
        dense = SearchEngine(ImageDatabase(small_dataset)).search(Query(query_index=1))
        full = SearchEngine(database).search(Query(query_index=1))
        assert len(full) == database.num_images and not calls
        np.testing.assert_array_equal(full.image_indices, dense.image_indices)
        top = SearchEngine(database).search(Query(query_index=1), top_k=10)
        assert len(calls) == 1
        np.testing.assert_array_equal(top.image_indices, dense.image_indices[:10])

    def test_every_ranking_is_euclidean_and_takes_no_metric(self):
        # The paper's geometry only: no distance, metric or tie-key option.
        assert list(inspect.signature(SearchEngine).parameters) == ["database"]
        assert list(inspect.signature(EuclideanFeedback).parameters) == []
        assert list(inspect.signature(VectorIndex).parameters) == []
        assert list(inspect.signature(exact_top_k).parameters) == [
            "queries", "vectors", "k", "vectors_sq"
        ]
        assert list(inspect.signature(stable_top_k).parameters) == ["values", "k"]

    def test_annotations_resolve_at_runtime(self):
        import typing

        typing.get_type_hints(SearchEngine.__init__)
        typing.get_type_hints(ImageDatabase.build_index)
        typing.get_type_hints(RetrievalService.__init__)

class TestImageDatabaseIndex:
    def test_build_index_attaches_one_index(self, small_dataset):
        database = ImageDatabase(small_dataset)
        with pytest.raises(ValidationError, match="unknown index backend 'ivf'"):
            database.build_index("ivf")
        assert database.index is None
        index = database.build_index("brute-force")
        assert database.index is index and index.size == database.num_images
        assert not any(
            hasattr(VectorIndex, name)
            for name in ("save", "load", "search", "ensure_covers")
        )
