"""Tests for the exact ``repro.index.VectorIndex`` and its serving-layer wiring.

The load-bearing properties:

* the index ranks exactly as the dense scan does;
* ``save`` → ``load`` round-trips produce identical search results, and a
  bundle of a removed backend fails with a typed error;
* the serving layers (``SearchEngine``, ``ImageDatabase``,
  ``RetrievalService``) use the index without changing exact-path results,
  and fall back to the exact scan when no index fits.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cbir.database import ImageDatabase
from repro.cbir.query import Query
from repro.cbir.search import SearchEngine
from repro.cbir.similarity import manhattan_distances
from repro.datasets.pool import GaussianPoolConfig, make_gaussian_pool
from repro.exceptions import DatabaseError, ValidationError
from repro.index import VectorIndex
from repro.service import RetrievalService
from repro.utils.io import load_array_bundle, save_array_bundle


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
    distances, indices = index.search(queries, 25)
    return index, distances, indices


class TestVectorIndexInterface:
    def test_registry_rejects_unknown_backend(self, small_dataset):
        database = ImageDatabase(small_dataset)
        with pytest.raises(ValidationError, match="unknown index backend 'annoy'"):
            database.build_index("annoy")
        assert database.index is None

    def test_search_before_build_raises(self):
        with pytest.raises(ValidationError, match="not been built"):
            VectorIndex().search(np.zeros(3), 1)

    def test_build_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValidationError):
            VectorIndex().build(np.empty((0, 4)))
        with pytest.raises(ValidationError, match="finite"):
            VectorIndex().build(np.array([[np.nan, 1.0]]))

    def test_k_and_dimension_validation(self, pool):
        vectors, queries = pool
        index = VectorIndex().build(vectors)
        with pytest.raises(ValidationError, match="k must be"):
            index.search(queries, 0)
        with pytest.raises(ValidationError, match="k must be"):
            index.search(queries, vectors.shape[0] + 1)
        with pytest.raises(ValidationError, match="dimension"):
            index.search(np.zeros(3), 1)

    def test_brute_force_matches_dense_scan(self, pool):
        vectors, queries = pool
        index = VectorIndex().build(vectors)
        distances, indices = index.search(queries[:3], 10)
        from repro.cbir.similarity import euclidean_distances

        dense = euclidean_distances(queries[:3], vectors)
        expected = np.argsort(dense, axis=1, kind="stable")[:, :10]
        np.testing.assert_array_equal(indices, expected)
        np.testing.assert_allclose(
            distances, np.take_along_axis(dense, expected, axis=1)
        )

    def test_batch_search_equals_search(self, pool, oracle):
        vectors, queries = pool
        index, distances, indices = oracle
        batch_d, batch_i = index.batch_search(queries, 25, chunk_size=5)
        np.testing.assert_array_equal(batch_i, indices)
        np.testing.assert_array_equal(batch_d, distances)

    def test_single_vector_query_shape(self, oracle, pool):
        vectors, queries = pool
        index = oracle[0]
        distances, indices = index.search(queries[0], 5)
        assert distances.shape == (1, 5) and indices.shape == (1, 5)

    def test_empty_query_batch(self, oracle, pool):
        vectors, _ = pool
        index = oracle[0]
        empty = np.empty((0, vectors.shape[1]))
        for method in (index.search, index.batch_search):
            distances, indices = method(empty, 5)
            assert distances.shape == (0, 5) and indices.shape == (0, 5)


class TestPersistence:
    def test_save_load_round_trip(self, pool, tmp_path):
        self._assert_round_trip(VectorIndex(), pool, tmp_path)

    @pytest.mark.parametrize("metric", ["manhattan", "cosine"])
    def test_non_euclidean_round_trip(self, metric, pool, tmp_path):
        self._assert_round_trip(VectorIndex(metric=metric), pool, tmp_path)

    @staticmethod
    def _assert_round_trip(index, pool, tmp_path):
        vectors, queries = pool
        index.build(vectors)
        path = index.save(tmp_path / f"{index.kind}.npz")
        loaded = VectorIndex.load(path)
        assert loaded.kind == index.kind and loaded.metric == index.metric
        assert loaded.size == index.size and loaded.dim == index.dim
        original_d, original_i = index.search(queries, 20)
        loaded_d, loaded_i = loaded.search(queries, 20)
        np.testing.assert_array_equal(loaded_i, original_i)
        np.testing.assert_array_equal(loaded_d, original_d)

    def test_load_rejects_non_index_bundle(self, tmp_path):
        path = save_array_bundle({"vectors": np.ones((2, 2))}, tmp_path / "x.npz")
        with pytest.raises(ValidationError, match="not a serialised VectorIndex"):
            VectorIndex.load(path)

    @pytest.mark.parametrize(
        "meta, match",
        [
            # Bundles of the KD-tree, LSH, sharded and IVF backends, which
            # no longer exist.
            (
                json.dumps({"kind": "kd-tree", "metric": "euclidean", "params": {"leaf_size": 16}}),
                "unknown index backend 'kd-tree'",
            ),
            (
                json.dumps({"kind": "lsh", "metric": "euclidean", "params": {"num_tables": 8}}),
                "unknown index backend 'lsh'",
            ),
            (
                json.dumps({"kind": "sharded", "metric": "euclidean", "params": {}}),
                "unknown index backend 'sharded'",
            ),
            (
                json.dumps({"kind": "ivf", "metric": "euclidean",
                            "params": {"n_clusters": 12, "n_probe": 3}}),
                "unknown index backend 'ivf'",
            ),
            (json.dumps({"kind": "brute-force", "params": {}}), "old.npz is not a serialised"),
            (json.dumps({"metric": "euclidean", "params": {}}), "old.npz is not a serialised"),
            (json.dumps({"kind": "ivf", "metric": "euclidean"}), "old.npz is not a serialised"),
            ('{"kind": "brute-force"', "old.npz is not a serialised"),
            (json.dumps(["brute-force", "euclidean", {}]), "old.npz is not a serialised"),
            (
                json.dumps({"kind": "brute-force", "metric": "euclidean", "params": [1]}),
                "old.npz records brute-force parameters",
            ),
            (
                json.dumps({"kind": "brute-force", "metric": "hamming", "params": {}}),
                "unknown distance 'hamming'",
            ),
        ],
        ids=[
            "kd-tree", "lsh", "sharded", "ivf", "meta-without-metric",
            "meta-without-kind", "meta-without-params", "meta-not-json",
            "meta-not-an-object", "params-not-an-object", "unknown-metric",
        ],
    )
    def test_load_failures_are_typed(self, meta, match, tmp_path):
        path = save_array_bundle(
            {"__meta__": np.array(meta), "vectors": np.ones((4, 2))},
            tmp_path / "old.npz",
        )
        with pytest.raises(ValidationError, match=match):
            VectorIndex.load(path)

    def test_load_rejects_bundle_missing_an_array(self, pool, tmp_path):
        path = VectorIndex().build(pool[0]).save(tmp_path / "full.npz")
        bundle = load_array_bundle(path)
        del bundle["vectors"]
        truncated = save_array_bundle(bundle, tmp_path / "truncated.npz")
        with pytest.raises(ValidationError, match="truncated.npz lacks the brute-force array 'vectors'"):
            VectorIndex.load(truncated)

    def test_save_unbuilt_raises(self, tmp_path):
        with pytest.raises(ValidationError, match="unbuilt"):
            VectorIndex().save(tmp_path / "x.npz")


class TestManhattanChunking:
    def test_chunked_matches_naive_broadcast(self, rng):
        queries = rng.normal(size=(7, 33))
        database = rng.normal(size=(911, 33))
        expected = np.abs(queries[:, None, :] - database[None, :, :]).sum(axis=2)
        np.testing.assert_allclose(manhattan_distances(queries, database), expected)

    def test_chunk_step_is_bounded(self, rng, monkeypatch):
        import repro.cbir.similarity as similarity

        # Force a tiny budget so many chunks are exercised.
        monkeypatch.setattr(similarity, "_L1_CHUNK_ELEMENTS", 64)
        queries = rng.normal(size=(3, 5))
        database = rng.normal(size=(97, 5))
        expected = np.abs(queries[:, None, :] - database[None, :, :]).sum(axis=2)
        np.testing.assert_allclose(
            similarity.manhattan_distances(queries, database), expected
        )

    def test_query_axis_is_chunked_too(self, rng):
        # More queries than the per-block query limit: both loops must run.
        queries = rng.normal(size=(300, 4))
        database = rng.normal(size=(50, 4))
        expected = np.abs(queries[:, None, :] - database[None, :, :]).sum(axis=2)
        np.testing.assert_allclose(manhattan_distances(queries, database), expected)


class TestSearchEngineIndexing:
    def test_algorithm_reports_engine_distance(self, small_database):
        for name in ("euclidean", "manhattan", "cosine"):
            engine = SearchEngine(small_database, distance=name)
            result = engine.search(Query(query_index=0), top_k=5)
            assert result.algorithm == name

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

    def test_attached_index_is_used_when_metric_matches(self, small_dataset):
        database = ImageDatabase(small_dataset)
        assert SearchEngine(database).index is None
        database.build_index("brute-force")
        engine = SearchEngine(database)
        assert engine.index is database.index
        # A cosine engine must NOT use the euclidean index.
        assert SearchEngine(database, distance="cosine").index is None
        database.detach_index()
        assert SearchEngine(database).index is None

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

    def test_explicit_index_metric_must_match_engine(self, small_dataset):
        # A cosine engine over a database carrying a euclidean index ranks
        # by its own exact cosine scan, not by the index.
        database = ImageDatabase(small_dataset)
        database.build_index("brute-force")
        engine = SearchEngine(database, distance="cosine")
        assert engine.index is None
        ranked = engine.search(Query(query_index=2), top_k=10)
        exact = SearchEngine(ImageDatabase(small_dataset), distance="cosine").search(
            Query(query_index=2), top_k=10
        )
        np.testing.assert_array_equal(ranked.image_indices, exact.image_indices)
        assert ranked.algorithm == "cosine"

    def test_named_index_with_custom_distance_callable_rejected(self, small_dataset):
        # An index ranks under a registered metric, so an engine with a
        # custom distance callable never uses the database's index: it is
        # served by the exact scan of its own callable.
        from repro.cbir.similarity import euclidean_distances

        def my_distance(queries, database, *_norms):
            return euclidean_distances(queries, database)

        database = ImageDatabase(small_dataset)
        database.build_index("brute-force")
        engine = SearchEngine(database, distance=my_distance)
        assert engine.index is None
        custom = engine.search(Query(query_index=1), top_k=10)
        exact = SearchEngine(ImageDatabase(small_dataset)).search(
            Query(query_index=1), top_k=10
        )
        np.testing.assert_array_equal(custom.image_indices, exact.image_indices)

    def test_annotations_resolve_at_runtime(self):
        import typing

        typing.get_type_hints(SearchEngine.__init__)
        typing.get_type_hints(ImageDatabase.build_index)
        typing.get_type_hints(RetrievalService.__init__)

class TestImageDatabaseIndex:
    def test_build_attach_detach(self, small_dataset):
        database = ImageDatabase(small_dataset)
        with pytest.raises(ValidationError, match="unknown index backend 'ivf'"):
            database.build_index("ivf")
        assert database.index is None
        index = database.build_index("brute-force")
        assert database.index is index and index.size == database.num_images
        detached = database.detach_index()
        assert detached is index and database.index is None
        database.attach_index(index)
        assert database.index is index
        database.detach_index()

    def test_attach_validates_shape(self, small_dataset, pool):
        vectors, _ = pool
        database = ImageDatabase(small_dataset)
        with pytest.raises(DatabaseError, match="index covers"):
            database.attach_index(VectorIndex().build(vectors))
        with pytest.raises(DatabaseError, match="unbuilt"):
            database.attach_index(VectorIndex())

    def test_attach_validates_contents(self, small_dataset):
        # Right shape, wrong vectors: a stale index must be rejected, not
        # silently serve neighbours of a different corpus.
        database = ImageDatabase(small_dataset)
        stale = VectorIndex().build(database.features + 1.0)
        with pytest.raises(DatabaseError, match="different vectors"):
            database.attach_index(stale)

    def test_save_and_load_index(self, small_dataset, tmp_path):
        database = ImageDatabase(small_dataset)
        path = database.build_index("brute-force").save(tmp_path / "idx.npz")
        fresh = ImageDatabase(small_dataset)
        loaded = fresh.load_index(path)
        assert fresh.index is loaded and loaded.kind == "brute-force"
        query = Query(query_index=2)
        np.testing.assert_array_equal(
            SearchEngine(fresh).search(query, top_k=10).image_indices,
            SearchEngine(database).search(query, top_k=10).image_indices,
        )
        database.detach_index()
