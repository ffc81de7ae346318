"""Bit-identity and wiring tests for :class:`repro.index.ShardedVectorIndex`.

The load-bearing property of the cluster story: scattering a search across
N shards and merging with the ``(distance, ascending global index)`` rule
returns **exactly** the unsharded ranking — for any shard count, any k,
and tie-heavy pools where the merge order actually matters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.pool import GaussianPoolConfig, make_gaussian_pool
from repro.exceptions import ValidationError
from repro.index import BruteForceIndex, ShardedVectorIndex, make_index

#: The shard counts the acceptance criteria call out (1 = degenerate wrap).
SHARD_COUNTS = (1, 2, 3, 7)


@pytest.fixture(scope="module")
def pool():
    """A clustered pool with heavy duplication so distance ties are common."""
    vectors, queries = make_gaussian_pool(
        GaussianPoolConfig(num_vectors=500, dim=8, num_clusters=10, num_queries=10, seed=5)
    )
    # Duplicate a block far apart in index space: tied candidates now live
    # in *different* shards, so a wrong merge order would be caught.
    vectors[300:330] = vectors[0:30]
    vectors[450:460] = vectors[100:110]
    return vectors, queries


@pytest.fixture(scope="module")
def oracle(pool):
    vectors, queries = pool
    return BruteForceIndex().build(vectors)


class TestBitIdentity:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_matches_unsharded_scan(self, num_shards, pool, oracle):
        vectors, queries = pool
        index = ShardedVectorIndex(num_shards=num_shards).build(vectors)
        for k in (1, 5, 40, vectors.shape[0]):
            sharded_d, sharded_i = index.search(queries, k)
            oracle_d, oracle_i = oracle.search(queries, k)
            np.testing.assert_array_equal(sharded_i, oracle_i)
            np.testing.assert_array_equal(sharded_d, oracle_d)

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_exhaustive_ivf_shards_match_unsharded_scan(self, num_shards, pool, oracle):
        # The merge is exact over any exact shard backend, not only brute force.
        vectors, queries = pool
        index = ShardedVectorIndex(
            num_shards=num_shards, shard_kind="ivf",
            shard_params={"n_clusters": 5, "n_probe": 5, "kmeans_iters": 3},
        ).build(vectors)
        assert index.is_exact
        for k in (1, 5, 40):
            _, sharded_i = index.search(queries, k)
            _, oracle_i = oracle.search(queries, k)
            np.testing.assert_array_equal(sharded_i, oracle_i)

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_tie_heavy_all_duplicates(self, num_shards):
        # Every vector identical: the ranking is decided purely by the tie
        # rule, so any merge mistake surfaces immediately.
        vectors = np.ones((64, 4))
        queries = np.ones((3, 4))
        index = ShardedVectorIndex(num_shards=num_shards).build(vectors)
        distances, indices = index.search(queries, 10)
        np.testing.assert_array_equal(indices, np.tile(np.arange(10), (3, 1)))
        np.testing.assert_array_equal(distances, np.zeros((3, 10)))

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "cosine"])
    def test_every_metric_matches_oracle(self, metric, pool):
        vectors, queries = pool
        sharded = ShardedVectorIndex(num_shards=3, metric=metric).build(vectors)
        oracle = BruteForceIndex(metric=metric).build(vectors)
        sharded_d, sharded_i = sharded.search(queries, 20)
        oracle_d, oracle_i = oracle.search(queries, 20)
        np.testing.assert_array_equal(sharded_i, oracle_i)
        np.testing.assert_array_equal(sharded_d, oracle_d)

    def test_batch_search_equals_search(self, pool):
        vectors, queries = pool
        index = ShardedVectorIndex(num_shards=3).build(vectors)
        single_d, single_i = index.search(queries, 15)
        batch_d, batch_i = index.batch_search(queries, 15, chunk_size=4)
        np.testing.assert_array_equal(batch_i, single_i)
        np.testing.assert_array_equal(batch_d, single_d)


class TestPartitioning:
    def test_more_shards_than_vectors_caps_cleanly(self):
        vectors = np.arange(12, dtype=np.float64).reshape(4, 3)
        index = ShardedVectorIndex(num_shards=7).build(vectors)
        assert len(index.shards) == 4  # capped: every shard non-empty
        _, indices = index.search(vectors, 4)
        np.testing.assert_array_equal(indices[:, 0], np.arange(4))

    def test_contiguous_shards_differ_by_at_most_one_vector(self, pool):
        vectors, _ = pool
        index = ShardedVectorIndex(num_shards=7).build(vectors)
        sizes = [shard.size for shard in index.shards]
        assert sum(sizes) == vectors.shape[0] and max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_shards_are_contiguous_slices_in_order(self, num_shards, pool):
        # The merge's tie rule relies on each shard's local→global map being
        # an increasing run, and the runs tiling the pool in shard order.
        vectors, _ = pool
        index = ShardedVectorIndex(num_shards=num_shards).build(vectors)
        assert len(index.shards) == num_shards
        start = 0
        for shard in index.shards:
            np.testing.assert_array_equal(shard.vectors, vectors[start : start + shard.size])
            start += shard.size
        assert start == vectors.shape[0]


class TestWiring:
    def test_registry_constructs_sharded(self):
        index = make_index("sharded", num_shards=2, shard_kind="ivf",
                           shard_params={"n_clusters": 4})
        assert isinstance(index, ShardedVectorIndex)
        assert index.shard_kind == "ivf"

    def test_save_load_round_trip_is_bit_identical(self, pool, tmp_path):
        vectors, queries = pool
        index = ShardedVectorIndex(num_shards=3).build(vectors)
        loaded = ShardedVectorIndex.load(index.save(tmp_path / "sharded.npz"))
        assert isinstance(loaded, ShardedVectorIndex)
        assert loaded.num_shards == 3 and loaded.shard_kind == "brute-force"
        original = index.search(queries, 20)
        restored = loaded.search(queries, 20)
        np.testing.assert_array_equal(restored[0], original[0])
        np.testing.assert_array_equal(restored[1], original[1])

    def test_is_exact_tracks_shard_backend(self, pool):
        vectors, _ = pool
        exact = ShardedVectorIndex(num_shards=2).build(vectors)
        assert exact.is_exact
        approximate = ShardedVectorIndex(
            num_shards=2, shard_kind="ivf", shard_params={"n_clusters": 8, "n_probe": 1}
        ).build(vectors)
        assert not approximate.is_exact

    def test_validation(self):
        with pytest.raises(ValidationError, match="num_shards"):
            ShardedVectorIndex(num_shards=0)
        with pytest.raises(ValidationError, match="cannot themselves"):
            ShardedVectorIndex(shard_kind="sharded")
        with pytest.raises(ValidationError, match="unknown index backend"):
            ShardedVectorIndex(shard_kind="annoy")
        with pytest.raises(ValidationError, match="n_probe"):
            # Shard-backend validation is eager: a bad shard parameter fails
            # at construction, not at build time.
            ShardedVectorIndex(shard_kind="ivf", shard_params={"n_probe": 0})

    def test_sharded_index_serves_the_search_engine(self, pool):
        from repro.cbir.database import ImageDatabase
        from repro.datasets.pool import make_pool_dataset

        config = GaussianPoolConfig(
            num_vectors=300, dim=6, num_clusters=5, num_queries=4, seed=9
        )
        dataset, queries = make_pool_dataset(config, name="sharded-wiring")
        database = ImageDatabase(dataset)
        database.build_index("sharded", num_shards=3)
        from repro.cbir.search import SearchEngine

        engine = SearchEngine(database)
        from repro.cbir.query import Query

        transformed = database.transform_external_features(queries)
        query = Query(feature_vector=transformed[0])
        ranked = engine.search(query, top_k=10)
        database.detach_index()
        dense = engine.search(query, top_k=10)
        np.testing.assert_array_equal(ranked.image_indices, dense.image_indices)
