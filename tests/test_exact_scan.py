"""The one exact scan, :func:`repro.utils.arrays.exact_top_k`, and its inputs.

Every exact ranking in the library — the brute-force index, IVF's exact
fallback, the search engine's dense path — goes through one routine.  These
tests pin it to numpy's stable ``argsort`` on tie-heavy pools under every
metric and query blocking, pin the cached pool norms to the recomputed ones
bit for bit, and check that a non-finite query is refused with a typed error
on every surface that takes one.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.utils.arrays as arrays
from repro.cbir.database import ImageDatabase
from repro.cbir.query import Query
from repro.cbir.search import SearchEngine
from repro.cbir.similarity import cosine_distances, euclidean_distances, manhattan_distances
from repro.exceptions import ValidationError
from repro.feedback.base import FeedbackContext
from repro.feedback.euclidean import EuclideanFeedback
from repro.index import BruteForceIndex, IVFIndex, load_index, make_index
from repro.service import RetrievalService, SearchRequest
from repro.utils.arrays import exact_top_k, squared_norms


def chebyshev_distances(queries, database):
    """A custom two-argument distance (L-infinity)."""
    return np.abs(queries[:, None, :] - database[None, :, :]).max(axis=2)


DISTANCES = {
    "euclidean": euclidean_distances,
    "manhattan": manhattan_distances,
    "cosine": cosine_distances,
    "custom": chebyshev_distances,
}


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
    @pytest.mark.parametrize("metric", sorted(DISTANCES))
    def test_is_the_stable_argsort_prefix(self, metric, k, block, grid_pool, monkeypatch):
        monkeypatch.setattr(arrays, "_QUERY_BLOCK", block)
        vectors, queries = grid_pool
        distance = DISTANCES[metric]
        norms = squared_norms(vectors) if metric == "euclidean" else None
        distances, indices = exact_top_k(queries, vectors, k, distance, vectors_sq=norms)
        full = distance(queries, vectors)
        expected = np.argsort(full, axis=1, kind="stable")[:, :k]
        np.testing.assert_array_equal(indices, expected)
        np.testing.assert_array_equal(distances, np.take_along_axis(full, expected, axis=1))
        if k == 7:
            ranked = np.sort(full, axis=1)
            assert np.all(ranked[:, k - 1] == ranked[:, k])  # a tie straddles k

    @pytest.mark.parametrize("k", [1, 7, 60])
    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "cosine"])
    def test_exhaustive_ivf_breaks_ties_by_database_id(self, metric, k, grid_pool):
        """Equidistant grid points sit in different cells, so IVF's gathered
        candidates tie out of id order and only the id key ranks them."""
        vectors, queries = grid_pool
        index = IVFIndex(n_clusters=5, n_probe=5, metric=metric).build(vectors)
        _, indices = index.search(queries, k)
        full = DISTANCES[metric](queries, vectors)
        np.testing.assert_array_equal(indices, np.argsort(full, axis=1, kind="stable")[:, :k])


class TestPoolNorms:
    def test_passed_norms_change_no_distance(self):
        rng = np.random.default_rng(3)
        vectors, queries = rng.normal(size=(300, 36)), rng.normal(size=(5, 36))
        np.testing.assert_array_equal(
            euclidean_distances(queries, vectors, squared_norms(vectors)),
            euclidean_distances(queries, vectors),
        )

    def test_database_index_and_ivf_lists_hold_the_recomputed_norms(
        self, small_dataset, tmp_path
    ):
        database = ImageDatabase(small_dataset)
        features = database.features
        np.testing.assert_array_equal(database.feature_sq_norms, plain_norms(features))
        ivf = IVFIndex(n_clusters=6, n_probe=2, seed=1).build(features)
        loaded = load_index(ivf.save(tmp_path / "ivf.npz"))
        for index in (BruteForceIndex().build(features), ivf, loaded):
            np.testing.assert_array_equal(index._sq_norms, plain_norms(features))
        for index in (ivf, loaded):
            np.testing.assert_array_equal(index._centroid_sq, plain_norms(index._centroids))
            for begin, end in zip(index._offsets[:-1], index._offsets[1:]):
                members = index._packed[begin:end]
                np.testing.assert_array_equal(index._packed_sq[begin:end], plain_norms(members))
        assert BruteForceIndex(metric="cosine").build(features)._sq_norms is None

    def test_no_scan_recomputes_the_pool_norms(self, small_dataset, monkeypatch):
        database = ImageDatabase(small_dataset)
        features = database.features
        indexes = [BruteForceIndex().build(features), IVFIndex(n_clusters=6, n_probe=6).build(features)]
        database.feature_sq_norms  # the database's one pass, before the scans
        squared_rows = []

        def counting_norms(rows):
            squared_rows.append(rows.shape[0])
            return plain_norms(rows)

        monkeypatch.setattr(arrays, "squared_norms", counting_norms)
        for index in indexes:
            index.search(features[:2], 5)
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
    @pytest.mark.parametrize("kind", ["brute-force", "ivf"])
    def test_index_search_refuses_the_vector(self, kind, value):
        vectors = np.random.default_rng(0).normal(size=(50, 5))
        queries = vectors[:2].copy()
        queries[1, 3] = value
        with pytest.raises(ValidationError, match="finite"):
            make_index(kind).build(vectors).search(queries, 5)
