"""The one exact scan, :func:`repro.utils.arrays.exact_top_k`, and its inputs.

Every exact ranking in the library — the index's scan and the search
engine's dense path — goes through one routine.  These
tests pin it to numpy's stable ``argsort`` on tie-heavy pools under every
query blocking, pin the cached pool norms to the recomputed ones
bit for bit, and check that a non-finite query is refused with a typed error
on every surface that takes one.

The Euclidean scan roots only the candidates that can reach the top k (a
strided sample of each row's squared distances bounds its k-th); its tests
shrink the sample so the stride exceeds one on small pools, and each names
the seeded mutation of the selection it catches.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.utils.arrays as arrays
from repro.cbir.database import ImageDatabase
from repro.cbir.query import Query
from repro.cbir.search import SearchEngine
from repro.exceptions import ValidationError
from repro.feedback.base import FeedbackContext
from repro.feedback.euclidean import EuclideanFeedback
from repro.index import VectorIndex
from repro.service import RetrievalService, SearchRequest
from repro.utils.arrays import euclidean_distances, exact_top_k, squared_norms

#: The one metric the scan ranks by; the parameter keeps the cases' ids.
EUCLIDEAN = pytest.mark.parametrize("metric", ["euclidean"])


def plain_norms(rows):
    """The squared-norm formula the scans used to recompute on every call."""
    return np.sum(rows * rows, axis=1)


@pytest.fixture(scope="module")
def grid_pool():
    """Integer points, each stored twice, far apart in index space.

    Integer coordinates make every distance exact whatever the block shape,
    and every distance occurs an even number of times per query, so an odd
    k always splits a run of exact duplicates at the k-th place.
    """
    rng = np.random.default_rng(27)
    base = rng.integers(0, 3, size=(30, 4)).astype(np.float64)
    queries = rng.integers(0, 3, size=(10, 4)).astype(np.float64)
    return np.vstack([base, base[::-1]]), queries


class TestExactTopK:
    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    @pytest.mark.parametrize("k", [1, 7, 60])  # 60 = N, the full ranking
    @EUCLIDEAN
    def test_is_the_stable_argsort_prefix(self, metric, k, block, grid_pool, monkeypatch):
        monkeypatch.setattr(arrays, "_QUERY_BLOCK", block)
        vectors, queries = grid_pool
        distances, indices = exact_top_k(queries, vectors, k, vectors_sq=squared_norms(vectors))
        full = euclidean_distances(queries, vectors)
        expected = np.argsort(full, axis=1, kind="stable")[:, :k]
        np.testing.assert_array_equal(indices, expected)
        np.testing.assert_array_equal(distances, np.take_along_axis(full, expected, axis=1))
        if k == 7:
            ranked = np.sort(full, axis=1)
            assert np.all(ranked[:, k - 1] == ranked[:, k])  # a tie straddles k

    @pytest.mark.parametrize("k", [-1, 0, 61])
    @EUCLIDEAN
    def test_rejects_k_outside_the_pool(self, metric, k, grid_pool):
        vectors, queries = grid_pool
        with pytest.raises(ValidationError, match="k must be in"):
            exact_top_k(queries, vectors, k)


def blockwise_euclidean(queries, vectors):
    """``euclidean_distances`` one ``_QUERY_BLOCK`` of queries at a time.

    The scan's GEMM runs per block, and BLAS may round a one-row block (a
    matrix-vector product) differently from the same row inside a wider
    block, so the bit-exact reference blocks the queries the same way.
    """
    return np.vstack([
        euclidean_distances(queries[start : start + arrays._QUERY_BLOCK], vectors)
        for start in range(0, queries.shape[0], arrays._QUERY_BLOCK)
    ])


def assert_euclidean_prefix(queries, vectors, k):
    """Indices and distance bits of the scan equal the stable-argsort prefix."""
    distances, indices = exact_top_k(queries, vectors, k, vectors_sq=squared_norms(vectors))
    full = blockwise_euclidean(queries, vectors)
    expected = np.argsort(full, axis=1, kind="stable")[:, :k]
    np.testing.assert_array_equal(indices, expected)
    np.testing.assert_array_equal(
        distances.view(np.int64), np.take_along_axis(full, expected, axis=1).view(np.int64)
    )


@pytest.fixture
def small_sample(monkeypatch):
    """A 16-entry sample, so small pools are scanned with a stride above one."""
    monkeypatch.setattr(arrays, "_SAMPLE", 16)


class TestPrunedEuclideanScan:
    @pytest.mark.parametrize("k", [1, 20, 99, 100, 400])  # 99 = N//4 - 1, 100 = N//4, 400 = N
    def test_gaussian_pool_with_duplicates(self, k, small_sample):
        # Catches: the sample stride taken as N // _SAMPLE alone (k = 99 then
        # partitions a 16-entry sample), and rows of a later query block
        # written over the first block's rows (Q = _QUERY_BLOCK + 1).
        rng = np.random.default_rng(11)
        base = rng.normal(size=(200, 8))
        vectors = np.vstack([base, base[::-1]])
        queries = rng.normal(size=(arrays._QUERY_BLOCK + 1, 8))
        assert_euclidean_prefix(queries, vectors, k)

    @pytest.mark.parametrize("k", [1, 7, 20, 60])
    def test_pool_sorted_by_descending_distance(self, k, small_sample):
        # Catches: a threshold that is not an upper bound, e.g. the sample's
        # ((k - 1) // stride)-th smallest as an estimate of the row's k-th.
        # The pool runs from far to near and its last, nearest row is
        # sampled at k = 20 and 60 (2000 is a multiple of the stride), so
        # the estimate lands on a rank below k.
        rng = np.random.default_rng(5)
        query = rng.normal(size=(1, 8))
        pool = rng.normal(size=(2001, 8))
        order = np.argsort(-euclidean_distances(query, pool)[0], kind="stable")
        assert_euclidean_prefix(query, pool[order], k)

    @pytest.mark.parametrize("k", [1, 3])
    def test_queries_equal_to_pool_rows(self, k, small_sample):
        # Catches: sqrt(kth) without max(kth, 0) -- a sampled self-match
        # whose squared distance computes slightly negative makes the bound
        # NaN and leaves no candidate.
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(400, 36))
        stride = 400 // max(arrays._SAMPLE, 4 * k)
        block = arrays._QUERY_BLOCK
        squared = np.concatenate([  # each query's squared distance to itself, as scanned
            np.diagonal(
                squared_norms(vectors[start : start + block])[:, None] + squared_norms(vectors)
                - 2.0 * (vectors[start : start + block] @ vectors.T),
                offset=start,
            )
            for start in range(0, 400, block)
        ])
        assert np.any(squared[::stride] < 0.0) and np.any(squared == 0.0)
        assert_euclidean_prefix(vectors, vectors, k)

    @pytest.mark.parametrize("sampled", ["larger", "smaller"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_two_squared_values_with_one_root(self, k, sampled, small_sample):
        # Catches: dropping the nextafter widening, as limit = U * U or as
        # the sampled k-th itself.  6.25 and its successor both root to 2.5;
        # U * U = 6.25 drops the successor, the sampled k-th drops the
        # unsampled successor, and either one sits at the lower index.
        low = 6.25
        high = np.nextafter(low, np.inf)
        assert np.sqrt(low) == np.sqrt(high) == 2.5
        row = np.full(64, 100.0)  # stride 64 // 16 = 4: positions 0, 4, 8, ... sampled
        if sampled == "larger":
            row[4], row[5] = high, low
        else:
            row[4], row[1] = low, high
        distances, indices = arrays._nearest_by_squared(row, k)
        rooted = np.sqrt(np.maximum(row, 0.0))
        expected = np.argsort(rooted, kind="stable")[:k]
        np.testing.assert_array_equal(indices, expected)
        np.testing.assert_array_equal(distances.view(np.int64), rooted[expected].view(np.int64))

    def test_sample_holds_k_at_the_default_size(self):
        # Catches: the stride taken as N // _SAMPLE alone -- on a 100k pool
        # the sample then holds 2084 entries and k = N//4 - 1 cannot be
        # selected from it.
        rng = np.random.default_rng(2)
        vectors = rng.normal(size=(100_000, 3))
        assert_euclidean_prefix(rng.normal(size=(2, 3)), vectors, 100_000 // 4 - 1)

    @given(
        st.integers(1, 30), st.integers(1, 5), st.integers(0, 30),
        st.integers(0, 2**32 - 1), st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_stable_argsort(self, n_base, dim, repeats, seed, data):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(n_base, dim))
        pool = np.vstack([base, base[rng.integers(0, n_base, size=repeats)]])
        pool = pool[rng.permutation(pool.shape[0])]
        queries = np.vstack([rng.normal(size=(3, dim)), pool[:2]])
        k = data.draw(st.integers(1, pool.shape[0]), label="k")
        sample = data.draw(st.integers(1, 8), label="sample")
        with mock.patch.object(arrays, "_SAMPLE", sample):
            assert_euclidean_prefix(queries, pool, k)


class TestPoolNorms:
    def test_passed_norms_change_no_distance(self):
        rng = np.random.default_rng(3)
        vectors, queries = rng.normal(size=(300, 36)), rng.normal(size=(5, 36))
        np.testing.assert_array_equal(
            euclidean_distances(queries, vectors, squared_norms(vectors)),
            euclidean_distances(queries, vectors),
        )

    def test_database_and_index_hold_the_recomputed_norms(self, small_dataset):
        database = ImageDatabase(small_dataset)
        features = database.features
        np.testing.assert_array_equal(database.feature_sq_norms, plain_norms(features))
        index = VectorIndex().build(features)
        np.testing.assert_array_equal(index._sq_norms, plain_norms(features))

    def test_no_scan_recomputes_the_pool_norms(self, small_dataset, monkeypatch):
        database = ImageDatabase(small_dataset)
        features = database.features
        index = VectorIndex().build(features)
        database.feature_sq_norms  # the database's one pass, before the scans
        squared_rows = []

        def counting_norms(rows):
            squared_rows.append(rows.shape[0])
            return plain_norms(rows)

        monkeypatch.setattr(arrays, "squared_norms", counting_norms)
        index.batch_search(features[:2], 5)
        SearchEngine(database).batch_search([Query(query_index=0), Query(query_index=1)], top_k=5)
        EuclideanFeedback().score(FeedbackContext(
            database=database, query=Query(query_index=0), labeled_indices=[0], labels=[1]
        ))
        assert squared_rows and max(squared_rows) <= 2  # only query rows


class TestEngineDensePath:
    @pytest.mark.parametrize("top_k", [1, 20, 10_000])
    def test_equals_the_index_path(self, small_dataset, top_k):
        dense_database, indexed_database = ImageDatabase(small_dataset), ImageDatabase(small_dataset)
        indexed_database.build_index("brute-force")
        queries = [Query(query_index=i) for i in range(0, 60, 4)]
        dense = SearchEngine(dense_database).batch_search(queries, top_k=top_k)
        indexed = SearchEngine(indexed_database).batch_search(queries, top_k=top_k)
        assert len(dense[0]) == min(top_k, small_dataset.num_images)
        for ours, theirs in zip(dense, indexed):
            np.testing.assert_array_equal(ours.image_indices, theirs.image_indices)
            np.testing.assert_array_equal(ours.scores, theirs.scores)


NON_FINITE = pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])


class TestNonFiniteQueries:
    @NON_FINITE
    def test_service_refuses_the_vector(self, small_dataset, value):
        service = RetrievalService(ImageDatabase(small_dataset), default_algorithm="euclidean")
        vector = np.zeros(small_dataset.features.shape[1])
        vector[2] = value
        with pytest.raises(ValidationError, match="finite"):
            service.open_session(SearchRequest(query=vector))
        assert len(service.store) == 0

    @NON_FINITE
    def test_index_search_refuses_the_vector(self, value):
        vectors = np.random.default_rng(0).normal(size=(50, 5))
        queries = vectors[:2].copy()
        queries[1, 3] = value
        with pytest.raises(ValidationError, match="finite"):
            VectorIndex().build(vectors).batch_search(queries, 5)
