"""Tests for the ``repro.index`` ANN subsystem and its serving-layer wiring.

The load-bearing properties:

* IVF at **exhaustive** settings (``n_probe == n_clusters``) reproduces
  the :class:`BruteForceIndex` ranking **bit-for-bit**;
* ``save`` → ``load`` round-trips produce identical search results;
* the serving layers (``SearchEngine``, ``ImageDatabase``,
  ``RetrievalService``, candidate-pruned ``LRFCSVM``) use the index without
  changing exact-path results, and fall back to the exact scan when no index
  fits.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cbir.database import ImageDatabase
from repro.cbir.query import Query
from repro.cbir.search import SearchEngine
from repro.cbir.similarity import manhattan_distances
from repro.core.lrf_csvm import LRFCSVM
from repro.datasets.pool import GaussianPoolConfig, make_gaussian_pool
from repro.datasets.splits import relevance_labels
from repro.exceptions import DatabaseError, ValidationError
from repro.feedback.base import FeedbackContext
from repro.index import (
    BruteForceIndex,
    IVFIndex,
    VectorIndex,
    available_indexes,
    load_index,
    make_index,
)
from repro.service import RetrievalService
from repro.utils.io import load_array_bundle, save_array_bundle

#: Exhaustive-settings factory per backend: each must match brute force
#: bit-for-bit on any input, under any metric.
EXHAUSTIVE_BACKENDS = {
    "ivf": lambda metric="euclidean": IVFIndex(
        n_clusters=9, n_probe=9, kmeans_iters=3, metric=metric
    ),
}

#: Moderately approximate settings used by round-trip / wiring tests.
APPROXIMATE_BACKENDS = {
    "brute-force": lambda metric="euclidean": BruteForceIndex(metric=metric),
    "ivf": lambda metric="euclidean": IVFIndex(n_clusters=12, n_probe=3, seed=3, metric=metric),
}


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
    index = BruteForceIndex().build(vectors)
    distances, indices = index.search(queries, 25)
    return index, distances, indices


class TestVectorIndexInterface:
    def test_registry_lists_all_backends(self):
        assert available_indexes() == ["brute-force", "ivf"]

    def test_registry_rejects_unknown_backend(self):
        with pytest.raises(ValidationError, match="unknown index backend"):
            make_index("annoy")

    def test_search_before_build_raises(self):
        with pytest.raises(ValidationError, match="not been built"):
            BruteForceIndex().search(np.zeros(3), 1)

    def test_build_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValidationError):
            BruteForceIndex().build(np.empty((0, 4)))
        with pytest.raises(ValidationError, match="finite"):
            BruteForceIndex().build(np.array([[np.nan, 1.0]]))

    def test_k_and_dimension_validation(self, pool):
        vectors, queries = pool
        index = BruteForceIndex().build(vectors)
        with pytest.raises(ValidationError, match="k must be"):
            index.search(queries, 0)
        with pytest.raises(ValidationError, match="k must be"):
            index.search(queries, vectors.shape[0] + 1)
        with pytest.raises(ValidationError, match="dimension"):
            index.search(np.zeros(3), 1)

    def test_brute_force_matches_dense_scan(self, pool):
        vectors, queries = pool
        index = BruteForceIndex().build(vectors)
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


class TestExhaustiveSettingsMatchBruteForce:
    @pytest.mark.parametrize("kind", sorted(EXHAUSTIVE_BACKENDS))
    def test_rankings_bit_for_bit(self, kind, pool, oracle):
        vectors, queries = pool
        _, oracle_distances, oracle_indices = oracle
        index = EXHAUSTIVE_BACKENDS[kind]().build(vectors)
        distances, indices = index.search(queries, 25)
        np.testing.assert_array_equal(indices, oracle_indices)
        np.testing.assert_allclose(distances, oracle_distances, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("kind", sorted(EXHAUSTIVE_BACKENDS))
    @pytest.mark.parametrize("metric", ["manhattan", "cosine"])
    def test_non_euclidean_rankings_bit_for_bit(self, metric, kind, pool):
        vectors, queries = pool
        oracle_d, oracle_i = BruteForceIndex(metric=metric).build(vectors).search(queries, 25)
        index = EXHAUSTIVE_BACKENDS[kind](metric).build(vectors)
        distances, indices = index.search(queries, 25)
        assert index.is_exact and index.metric == metric
        np.testing.assert_array_equal(indices, oracle_i)
        np.testing.assert_allclose(distances, oracle_d, rtol=0, atol=1e-9)

    def test_ivf_full_probe_property(self, pool):
        vectors, _ = pool
        index = IVFIndex(n_clusters=64, n_probe=64).build(vectors)
        # every database row appears in exactly one inverted list
        members = np.sort(np.concatenate(index._lists))
        np.testing.assert_array_equal(members, np.arange(vectors.shape[0]))

    @pytest.mark.parametrize("kind", sorted(EXHAUSTIVE_BACKENDS))
    @pytest.mark.parametrize("k", [1, 7, 25])
    def test_batch_search_indices_identical_across_backends(self, kind, k, pool):
        """The tie-rule property ``batch_search`` documents: exhaustive
        backends return bit-identical neighbour indices — over tie-heavy
        self-queries (the duplicated block makes distance-0 ties), at any
        chunking — while distances agree only up to roundoff."""
        vectors, _ = pool
        reference_d, reference_i = BruteForceIndex().build(vectors).batch_search(
            vectors, k
        )
        index = EXHAUSTIVE_BACKENDS[kind]().build(vectors)
        for chunk_size in (57, 1024):
            distances, indices = index.batch_search(vectors, k, chunk_size=chunk_size)
            np.testing.assert_array_equal(indices, reference_i)
            np.testing.assert_allclose(distances, reference_d, rtol=0, atol=1e-7)

    @pytest.mark.parametrize("kind", sorted(EXHAUSTIVE_BACKENDS))
    def test_knn_graphs_bit_identical_across_backends(self, kind, pool):
        """Derived-artifact half of the property: affinity graphs built over
        any exhaustive backend equal the exact-fallback graph bit for bit
        (edge weights are recomputed from the features, so they depend only
        on the backend-invariant neighbour indices)."""
        from repro.graph import KNNGraphBuilder

        vectors, _ = pool
        builder = KNNGraphBuilder(k=9)
        reference = builder.build(vectors).weights
        index = EXHAUSTIVE_BACKENDS[kind]().build(vectors)
        weights = builder.build(vectors, index=index).weights
        np.testing.assert_array_equal(weights.data, reference.data)
        np.testing.assert_array_equal(weights.indices, reference.indices)
        np.testing.assert_array_equal(weights.indptr, reference.indptr)


class TestApproximateBehaviour:
    def test_ivf_recall_improves_with_n_probe(self, pool, oracle):
        vectors, queries = pool
        oracle_indices = oracle[2][:, :10]
        index = IVFIndex(n_clusters=16, n_probe=1, seed=5).build(vectors)
        recalls = []
        for n_probe in (1, 4, 16):
            index.n_probe = n_probe
            _, indices = index.search(queries, 10)
            hits = [
                len(set(row.tolist()) & set(truth.tolist()))
                for row, truth in zip(indices, oracle_indices)
            ]
            recalls.append(sum(hits) / oracle_indices.size)
        assert recalls[0] <= recalls[1] <= recalls[2]
        assert recalls[2] == 1.0

    def test_ivf_recall_at_20_on_a_100k_pool(self):
        """Probing 4 of 128 cells still finds ≥ 90% of the exact top-20."""
        vectors, queries = make_gaussian_pool(GaussianPoolConfig(
            num_vectors=100000, dim=16, num_clusters=96, cluster_std=0.15, num_queries=100, seed=17
        ))
        _, truth = BruteForceIndex().build(vectors).search(queries, 20)
        index = IVFIndex(
            n_clusters=128, n_probe=4, kmeans_iters=8, train_size=20_000, seed=29
        ).build(vectors)
        _, found = index.search(queries, 20)
        hits = sum(len(set(a.tolist()) & set(b.tolist())) for a, b in zip(found, truth))
        assert hits / truth.size >= 0.9

    def test_ivf_exact_fallback_fills_k(self, pool):
        vectors, queries = pool
        # One probed cell of ~6 members cannot honour k=50: every query
        # takes the exact fallback, so the result is the brute-force top-k.
        index = IVFIndex(n_clusters=64, n_probe=1, seed=0).build(vectors)
        assert int(index._list_sizes.max()) < 50
        _, expected = BruteForceIndex().build(vectors).search(queries, 50)
        _, indices = index.search(queries, 50)
        np.testing.assert_array_equal(indices, expected)


class TestPersistence:
    @pytest.mark.parametrize("kind", sorted(APPROXIMATE_BACKENDS))
    def test_save_load_round_trip(self, kind, pool, tmp_path):
        self._assert_round_trip(APPROXIMATE_BACKENDS[kind](), pool, tmp_path)

    @pytest.mark.parametrize("kind", sorted(APPROXIMATE_BACKENDS))
    @pytest.mark.parametrize("metric", ["manhattan", "cosine"])
    def test_non_euclidean_round_trip(self, metric, kind, pool, tmp_path):
        self._assert_round_trip(APPROXIMATE_BACKENDS[kind](metric), pool, tmp_path)

    @staticmethod
    def _assert_round_trip(index, pool, tmp_path):
        vectors, queries = pool
        index.build(vectors)
        path = index.save(tmp_path / f"{index.kind}.npz")
        loaded = load_index(path)
        assert isinstance(loaded, type(index))
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
            # Bundles of the KD-tree, LSH and sharded backends, which no
            # longer exist.
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
            (
                json.dumps({"kind": "ivf", "metric": "euclidean", "params": {"n_probe": 0}}),
                "n_probe must be >= 1",
            ),
        ],
        ids=[
            "kd-tree", "lsh", "sharded", "meta-without-metric",
            "meta-without-kind", "meta-without-params", "meta-not-json",
            "meta-not-an-object", "params-not-an-object", "unknown-metric",
            "invalid-ivf-param",
        ],
    )
    def test_load_failures_are_typed(self, meta, match, tmp_path):
        path = save_array_bundle(
            {"__meta__": np.array(meta), "vectors": np.ones((4, 2))},
            tmp_path / "old.npz",
        )
        with pytest.raises(ValidationError, match=match):
            VectorIndex.load(path)

    @pytest.mark.parametrize(
        "kind, dropped",
        [
            ("brute-force", "vectors"),
            ("ivf", "vectors"),
            ("ivf", "centroids"),
            ("ivf", "list_members"),
        ],
    )
    def test_load_rejects_bundle_missing_an_array(self, kind, dropped, pool, tmp_path):
        path = APPROXIMATE_BACKENDS[kind]().build(pool[0]).save(tmp_path / "full.npz")
        bundle = load_array_bundle(path)
        del bundle[dropped]
        truncated = save_array_bundle(bundle, tmp_path / "truncated.npz")
        with pytest.raises(ValidationError, match=f"truncated.npz lacks the {kind} array '{dropped}'"):
            VectorIndex.load(truncated)

    def test_save_unbuilt_raises(self, tmp_path):
        with pytest.raises(ValidationError, match="unbuilt"):
            BruteForceIndex().save(tmp_path / "x.npz")


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
        engine = SearchEngine(small_database, index="brute-force")
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

    def test_full_ranking_bypasses_index(self, small_database):
        # top_k=None visits every image anyway: the engine must serve it by
        # the dense scan (identical result, no candidate-generation overhead).
        database = small_database
        database.build_index("ivf", n_clusters=6, n_probe=1)
        try:
            dense = SearchEngine(ImageDatabase(database.dataset)).search(
                Query(query_index=1)
            )
            full = SearchEngine(database).search(Query(query_index=1))
            assert len(full) == database.num_images
            np.testing.assert_array_equal(full.image_indices, dense.image_indices)
            # ... while an explicit top_k keeps going through the index (the
            # n_probe=1 approximation is allowed to differ from dense).
            engine = SearchEngine(database)
            assert engine.index is database.index
            top = engine.search(Query(query_index=1), top_k=10)
            assert len(top) == 10
        finally:
            database.detach_index()

    def test_mismatched_explicit_index_rejected(self, small_database, pool):
        vectors, _ = pool
        foreign = BruteForceIndex().build(vectors)
        with pytest.raises(ValidationError, match="index covers"):
            SearchEngine(small_database, index=foreign)

    def test_explicit_index_metric_must_match_engine(self, small_database):
        euclidean_index = BruteForceIndex().build(small_database.features)
        with pytest.raises(ValidationError, match="ranks by 'euclidean'"):
            SearchEngine(small_database, distance="cosine", index=euclidean_index)

    def test_named_index_with_custom_distance_callable_rejected(self, small_database):
        from repro.cbir.similarity import euclidean_distances

        def my_distance(queries, database):
            return euclidean_distances(queries, database)

        with pytest.raises(ValidationError, match="registered distance name"):
            SearchEngine(small_database, distance=my_distance, index="brute-force")

    def test_annotations_resolve_at_runtime(self):
        import typing

        typing.get_type_hints(SearchEngine.__init__)
        typing.get_type_hints(ImageDatabase.build_index)
        typing.get_type_hints(RetrievalService.__init__)

    def test_experiment_config_index_knob_validation(self):
        from repro.exceptions import ConfigurationError
        from repro.experiments.config import ExperimentConfig

        with pytest.raises(ConfigurationError, match="unknown index backend"):
            ExperimentConfig(index_backend="annoy")
        with pytest.raises(ConfigurationError, match="index_params requires"):
            ExperimentConfig(index_params={"n_probe": 2})
        with pytest.raises(ConfigurationError, match="feedback_candidates requires"):
            ExperimentConfig(feedback_candidates=100)
        config = ExperimentConfig(
            index_backend="ivf", index_params={"n_probe": 2}, feedback_candidates=100
        )
        assert config.index_backend == "ivf"


class TestImageDatabaseIndex:
    def test_build_attach_detach(self, small_dataset):
        database = ImageDatabase(small_dataset)
        index = database.build_index("ivf", n_clusters=4, n_probe=2)
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
            database.attach_index(BruteForceIndex().build(vectors))
        with pytest.raises(DatabaseError, match="unbuilt"):
            database.attach_index(BruteForceIndex())

    def test_attach_validates_contents(self, small_dataset):
        # Right shape, wrong vectors: a stale index must be rejected, not
        # silently serve neighbours of a different corpus.
        database = ImageDatabase(small_dataset)
        stale = BruteForceIndex().build(database.features + 1.0)
        with pytest.raises(DatabaseError, match="different vectors"):
            database.attach_index(stale)

    def test_save_and_load_index(self, small_dataset, tmp_path):
        database = ImageDatabase(small_dataset)
        with pytest.raises(DatabaseError, match="no index"):
            database.save_index(tmp_path / "idx.npz")
        database.build_index("ivf", n_clusters=5, n_probe=5)
        path = database.save_index(tmp_path / "idx.npz")
        fresh = ImageDatabase(small_dataset)
        loaded = fresh.load_index(path)
        assert fresh.index is loaded and loaded.kind == "ivf"
        query = Query(query_index=2)
        np.testing.assert_array_equal(
            SearchEngine(fresh).search(query, top_k=10).image_indices,
            SearchEngine(database).search(query, top_k=10).image_indices,
        )
        database.detach_index()

    def test_service_index_kwarg_builds_and_attaches(self, small_dataset):
        database = ImageDatabase(small_dataset)
        service = RetrievalService(
            database, default_algorithm="euclidean", index="brute-force"
        )
        assert database.index is not None and database.index.kind == "brute-force"
        response = service.open_session(0, top_k=10)
        assert len(response.image_indices) == 10
        database.detach_index()


class TestCandidatePrunedFeedback:
    @pytest.fixture()
    def feedback_context(self, small_dataset, small_database):
        engine = SearchEngine(ImageDatabase(small_dataset, log_database=small_database.log_database))
        initial = engine.search(Query(query_index=0), top_k=20)
        labels = relevance_labels(small_dataset, 0, initial.image_indices)
        if np.unique(labels).size < 2:
            labels[-1] = -labels[-1]
        return FeedbackContext(
            database=engine.database,
            query=Query(query_index=0),
            labeled_indices=initial.image_indices,
            labels=labels,
        )

    def test_candidate_size_validation(self):
        with pytest.raises(ValidationError, match="candidate_size"):
            LRFCSVM(candidate_size=0)

    def test_exhaustive_pruning_is_bit_for_bit_exact(self, feedback_context):
        # A test double that keeps the restricted-pool machinery engaged at
        # full coverage: production short-circuits that case to the exact
        # path, which would leave the searchsorted position mapping, the
        # restricted fit and the score scatter untested here.
        class FullPoolPruned(LRFCSVM):
            def _candidate_set(self, context):
                return self._probe_candidates(context)

        database = feedback_context.database
        exact = LRFCSVM(random_state=7).score(feedback_context)
        database.build_index("ivf", n_clusters=6, n_probe=6)
        try:
            algorithm = FullPoolPruned(random_state=7, candidate_size=database.num_images)
            pruned = algorithm.score(feedback_context)
            # The exhaustive index really produced full coverage, so the
            # restricted branch ran over every image.
            assert algorithm._probe_candidates(feedback_context).size == database.num_images
        finally:
            database.detach_index()
        np.testing.assert_array_equal(pruned, exact)

    def test_full_coverage_short_circuits_to_exact_path(self, feedback_context):
        database = feedback_context.database
        database.build_index("brute-force")
        try:
            algorithm = LRFCSVM(random_state=7, candidate_size=database.num_images)
            assert algorithm._candidate_set(feedback_context) is None
        finally:
            database.detach_index()

    def test_pruning_without_index_falls_back_to_exact(self, feedback_context):
        exact = LRFCSVM(random_state=7).score(feedback_context)
        pruned = LRFCSVM(random_state=7, candidate_size=30).score(feedback_context)
        np.testing.assert_array_equal(pruned, exact)

    def test_pruned_scores_rank_noncandidates_last(self, feedback_context):
        database = feedback_context.database
        database.build_index("brute-force")
        try:
            algorithm = LRFCSVM(random_state=7, candidate_size=25)
            scores = algorithm.score(feedback_context)
        finally:
            database.detach_index()
        assert scores.shape == (database.num_images,)
        floor = scores.min()
        non_floor = scores[scores > floor]
        # The candidate frontier (query + positives probes ∪ labelled) is
        # scored individually; everything else shares the floor score.
        assert non_floor.size >= 25
        assert np.all(non_floor > floor)

    def test_tiny_candidate_budget_stays_exact(self, feedback_context):
        # candidate_size so small the transductive stage could not run: the
        # algorithm must silently use the exact path instead.
        database = feedback_context.database
        exact = LRFCSVM(random_state=7, num_unlabeled=50).score(feedback_context)
        database.build_index("brute-force")
        try:
            pruned = LRFCSVM(random_state=7, candidate_size=1, num_unlabeled=50).score(
                feedback_context
            )
        finally:
            database.detach_index()
        np.testing.assert_array_equal(pruned, exact)
