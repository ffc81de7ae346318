"""Tests for :mod:`repro.graph` — the label-propagation feedback family.

Covers the tentpole and its satellites: deterministic k-NN graph
construction (any exhaustive index backend, bit-identical), persistence,
the process-level graph cache, the fused visual/log kernel (sparse-only:
``R`` is never densified) and its per-log-version memo, the clamped-propagation /
α-spreading solvers, and the ``"lrf-graph"`` algorithm end to end —
registry, cold start, service integration (in-process and through the
cluster) and bit-identical replay from a reloaded
:class:`~repro.service.FileSessionStore`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import spsolve

from repro.cbir.database import ImageDatabase
from repro.cluster import ClusterConfig, ClusterRouter
from repro.datasets.pool import GaussianPoolConfig, make_gaussian_pool, make_pool_dataset
from repro.exceptions import ValidationError
from repro.feedback.base import FeedbackContext, FeedbackMemory
from repro.feedback.registry import available_algorithms, make_algorithm
from repro.graph import (
    AffinityGraph,
    GraphCache,
    KNNGraphBuilder,
    LabelPropagationFeedback,
    default_graph_cache,
    fuse_with_log,
    log_corelevance,
    propagate_labels,
)
from repro.index import VectorIndex
from repro.logdb import InMemoryLogStore, LogSession, LogSnapshot, RelevanceMatrix
from repro.service import FileSessionStore, RetrievalService, SearchRequest


@pytest.fixture(scope="module")
def features():
    """A clustered pool with duplicated rows to exercise tie-breaking."""
    vectors, _ = make_gaussian_pool(
        GaussianPoolConfig(num_vectors=120, dim=6, num_clusters=4, num_queries=1, seed=7)
    )
    vectors[30:35] = vectors[0:5]  # exact duplicates → distance ties
    return vectors


def _chain_graph(num_nodes: int = 5) -> sparse.csr_matrix:
    """A hand-built path graph 0 — 1 — ... — (n-1) with unit weights."""
    rows = list(range(num_nodes - 1)) + list(range(1, num_nodes))
    cols = list(range(1, num_nodes)) + list(range(num_nodes - 1))
    data = np.ones(len(rows))
    return sparse.csr_matrix((data, (rows, cols)), shape=(num_nodes, num_nodes))


def _category_judgements(dataset, query_index, image_indices):
    category = dataset.category_of(int(query_index))
    return {
        int(i): (1 if dataset.category_of(int(i)) == category else -1)
        for i in image_indices
    }


class TestKNNGraphBuilder:
    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            KNNGraphBuilder(k=0)
        with pytest.raises(ValidationError):
            KNNGraphBuilder(weighting="cubic")
        with pytest.raises(ValidationError):
            KNNGraphBuilder(symmetrize="min")
        with pytest.raises(ValidationError):
            KNNGraphBuilder(gamma=-1.0)

    def test_rejects_degenerate_features(self):
        builder = KNNGraphBuilder(k=2)
        with pytest.raises(ValidationError):
            builder.build(np.ones((1, 3)))
        with pytest.raises(ValidationError):
            builder.build(np.array([[np.nan, 0.0], [1.0, 2.0]]))

    def test_graph_is_symmetric_nonnegative_hollow(self, features):
        graph = KNNGraphBuilder(k=8).build(features)
        weights = graph.weights
        assert graph.num_nodes == features.shape[0]
        assert (abs(weights - weights.T)).max() < 1e-12
        assert weights.data.min() > 0.0
        assert weights.diagonal().max() == 0.0

    def test_every_node_keeps_k_outgoing_edges(self, features):
        k = 6
        graph = KNNGraphBuilder(k=k, symmetrize="max").build(features)
        # Max-symmetrisation only adds edges, so every node has >= k.
        degrees = np.diff(graph.weights.indptr)
        assert degrees.min() >= k

    def test_k_clamped_to_pool_size(self):
        rng = np.random.default_rng(3)
        small = rng.normal(size=(5, 3))
        graph = KNNGraphBuilder(k=50).build(small)
        assert graph.params["k"] == 4  # N - 1

    def test_connectivity_weighting_is_binary(self, features):
        graph = KNNGraphBuilder(k=5, weighting="connectivity").build(features)
        assert set(np.unique(graph.weights.data)) == {1.0}
        assert graph.params["gamma"] is None

    def test_rbf_gamma_scale_matches_kernel_convention(self, features):
        from repro.svm.kernels import RBFKernel

        graph = KNNGraphBuilder(k=5, gamma="scale").build(features)
        expected = float(RBFKernel("scale").fit(features).gamma_)
        assert graph.params["gamma"] == pytest.approx(expected)

    def test_mean_symmetrize_halves_one_directional_edges(self):
        # Three collinear points: 0 and 2 both pick 1 as nearest, 1 picks 0.
        points = np.array([[0.0], [1.0], [2.5]])
        graph = KNNGraphBuilder(k=1, weighting="connectivity", symmetrize="mean").build(
            points
        )
        dense = graph.weights.toarray()
        assert dense[0, 1] == 1.0  # mutual edge keeps full weight
        assert dense[2, 1] == 0.5  # one-directional edge halved
        assert dense[1, 2] == 0.5

    def test_explicit_index_must_cover_features(self, features):
        foreign = VectorIndex().build(features[:-1])
        with pytest.raises(ValidationError):
            KNNGraphBuilder(k=4).build(features, index=foreign)

    def test_graph_bit_identical_to_exact_fallback(self, features):
        builder = KNNGraphBuilder(k=7)
        reference = builder.build(features)  # its own index
        graph = builder.build(features, index=VectorIndex().build(features))
        assert (reference.weights != graph.weights).nnz == 0
        np.testing.assert_array_equal(reference.weights.data, graph.weights.data)
        np.testing.assert_array_equal(reference.weights.indices, graph.weights.indices)
        np.testing.assert_array_equal(reference.weights.indptr, graph.weights.indptr)


class TestAffinityGraph:
    def test_rejects_non_square_weights(self):
        with pytest.raises(ValidationError):
            AffinityGraph(sparse.csr_matrix(np.ones((2, 3))), params={})


class TestGraphCache:
    def test_hit_returns_same_object(self, features):
        cache = GraphCache()
        builder = KNNGraphBuilder(k=4)
        first = cache.get_or_build(features, builder.signature(), lambda: builder.build(features))
        second = cache.get_or_build(features, builder.signature(), lambda: builder.build(features))
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_signature_miss_builds_again(self, features):
        cache = GraphCache()
        b4 = KNNGraphBuilder(k=4)
        b5 = KNNGraphBuilder(k=5)
        g4 = cache.get_or_build(features, b4.signature(), lambda: b4.build(features))
        g5 = cache.get_or_build(features, b5.signature(), lambda: b5.build(features))
        assert g4 is not g5
        assert cache.misses == 2 and len(cache) == 2

    def test_dead_features_release_their_entry(self):
        cache = GraphCache()
        builder = KNNGraphBuilder(k=2)
        matrix = np.random.default_rng(0).normal(size=(10, 3))
        cache.get_or_build(matrix, builder.signature(), lambda: builder.build(matrix))
        assert len(cache) == 1
        del matrix
        import gc

        gc.collect()
        assert len(cache) == 0

    def test_capacity_evicts_lru(self):
        cache = GraphCache(capacity=1)
        builder = KNNGraphBuilder(k=2)
        a = np.random.default_rng(1).normal(size=(8, 3))
        b = np.random.default_rng(2).normal(size=(8, 3))
        cache.get_or_build(a, builder.signature(), lambda: builder.build(a))
        cache.get_or_build(b, builder.signature(), lambda: builder.build(b))
        assert len(cache) == 1
        cache.get_or_build(a, builder.signature(), lambda: builder.build(a))
        assert cache.misses == 3  # a was evicted, rebuilt on return

    def test_default_cache_is_shared(self):
        assert default_graph_cache() is default_graph_cache()


class TestLogCorelevanceKernel:
    def _snapshot(self, judgement_rows, num_images):
        log = InMemoryLogStore(num_images)
        for row in judgement_rows:
            log.append(LogSession(judgements=row))
        return log.snapshot()

    def test_co_relevance_counts_agreements(self):
        snapshot = self._snapshot(
            [{0: 1, 1: 1, 2: -1}, {0: 1, 1: 1}, {0: 1, 2: 1}, {1: 1, 3: 1}],
            num_images=4,
        )
        affinity = log_corelevance(snapshot).toarray()
        # 0,1 agree twice (the max) → 1.0 after rescale; 1,3 agree once
        # → 0.5; 0,2 agree once and disagree once → net zero; 1,2 only
        # disagree → clipped to zero.
        assert affinity[0, 1] == 1.0
        assert affinity[1, 3] == 0.5
        assert affinity[0, 2] == 0.0
        assert affinity[1, 2] == 0.0
        assert affinity.max() <= 1.0 and affinity.min() >= 0.0
        np.testing.assert_array_equal(np.diag(affinity), 0.0)
        np.testing.assert_allclose(affinity, affinity.T)

    def test_net_disagreement_is_no_affinity(self):
        snapshot = self._snapshot([{0: 1, 1: -1}], num_images=2)
        affinity = log_corelevance(snapshot)
        assert affinity.nnz == 0

    def test_never_densifies_the_snapshot(self, monkeypatch):
        snapshot = self._snapshot([{0: 1, 1: 1}], num_images=3)

        def forbidden(*args, **kwargs):
            raise AssertionError("the graph kernel must never densify R")

        # Every way of getting a dense R out of the snapshot's matrix.
        monkeypatch.setattr(RelevanceMatrix, "toarray", forbidden)
        monkeypatch.setattr(RelevanceMatrix, "log_vectors", forbidden)
        monkeypatch.setattr(LogSnapshot, "log_vectors", forbidden)
        visual = sparse.identity(3, format="csr")
        fused = fuse_with_log(visual, snapshot, eta=0.5)
        assert sparse.issparse(fused)
        # Only the sessions-major CSR view was built (and is cached).
        assert set(snapshot._derived) == {"log_csr"}

    def test_log_csr_is_read_only_and_shared(self):
        snapshot = self._snapshot([{0: 1}], num_images=2)
        view = snapshot.log_csr()
        assert view is snapshot.log_csr()
        assert view.shape == (1, 2)
        for buffer in (view.data, view.indices, view.indptr):
            with pytest.raises(ValueError):
                buffer[0] = 99
        # The images-major view is its transpose, independently cached and
        # equally read-only; dense blocks still work afterwards.
        rows = snapshot.log_rows()
        assert rows is snapshot.log_rows() and rows is not view
        np.testing.assert_array_equal(rows.toarray(), view.toarray().T)
        with pytest.raises(ValueError):
            rows.data[0] = 99.0
        assert snapshot.log_vectors([0, 1]).shape == (2, 1)

    def test_fuse_validations_and_degradations(self):
        empty = InMemoryLogStore(3).snapshot()
        visual = sparse.identity(3, format="csr")
        with pytest.raises(ValidationError):
            fuse_with_log(visual, empty, eta=1.5)
        assert fuse_with_log(visual, empty, eta=0.7) is not None
        # Empty log or eta=0 short-circuit to the visual matrix.
        rich = self._snapshot([{0: 1, 1: 1}], num_images=3)
        assert fuse_with_log(visual, rich, eta=0.0).nnz == visual.nnz
        wrong = self._snapshot([{0: 1, 1: 1}], num_images=5)
        with pytest.raises(ValidationError):
            fuse_with_log(visual, wrong, eta=0.5)

    def test_fusion_is_convex_mix(self):
        snapshot = self._snapshot([{0: 1, 1: 1}], num_images=2)
        visual = sparse.csr_matrix(np.array([[0.0, 0.4], [0.4, 0.0]]))
        fused = fuse_with_log(visual, snapshot, eta=0.25).toarray()
        assert fused[0, 1] == pytest.approx(0.75 * 0.4 + 0.25 * 1.0)


class TestPropagation:
    def test_parameter_validation(self):
        chain = _chain_graph()
        seeds = np.zeros(5)
        with pytest.raises(ValidationError):
            propagate_labels(chain, seeds, method="teleport")
        with pytest.raises(ValidationError):
            propagate_labels(chain, seeds, alpha=1.0)
        with pytest.raises(ValidationError):
            propagate_labels(chain, seeds, max_iter=0)
        with pytest.raises(ValidationError):
            propagate_labels(chain, seeds, tol=-1.0)
        with pytest.raises(ValidationError):
            propagate_labels(chain, np.zeros(4))

    def test_clamped_positives_stay_positive(self):
        chain = _chain_graph(7)
        seeds = np.zeros(7)
        seeds[0], seeds[6] = 1.0, -1.0
        result = propagate_labels(chain, seeds, tol=1e-10, max_iter=5000)
        assert result.converged
        assert result.scores[0] == 1.0 and result.scores[6] == -1.0
        # Scores decay monotonically along the chain from + to -.
        assert np.all(np.diff(result.scores) < 0)

    def test_converges_to_harmonic_solution_on_chain(self):
        # On a path with endpoints clamped at +1/−1 the harmonic solution
        # is the linear interpolation between them.
        chain = _chain_graph(5)
        seeds = np.zeros(5)
        seeds[0], seeds[4] = 1.0, -1.0
        result = propagate_labels(chain, seeds, tol=1e-12, max_iter=20000)
        np.testing.assert_allclose(result.scores, [1.0, 0.5, 0.0, -0.5, -1.0], atol=1e-6)

    def test_spreading_softens_but_respects_seeds(self):
        chain = _chain_graph(5)
        seeds = np.zeros(5)
        seeds[0], seeds[4] = 1.0, -1.0
        result = propagate_labels(chain, seeds, method="spreading", tol=1e-12, max_iter=5000)
        assert result.converged
        assert result.scores[0] > result.scores[2] > result.scores[4]
        assert 0.0 < result.scores[0] < 1.0  # softened, not clamped

    def test_isolated_nodes_keep_zero(self):
        graph = sparse.csr_matrix((4, 4))  # no edges at all
        seeds = np.array([1.0, 0.0, 0.0, -1.0])
        result = propagate_labels(graph, seeds)
        np.testing.assert_array_equal(result.scores, seeds)
        assert result.converged and result.iterations == 1

    def test_all_zero_seeds_converge_immediately(self):
        result = propagate_labels(_chain_graph(4), np.zeros(4))
        assert result.converged
        np.testing.assert_array_equal(result.scores, np.zeros(4))

    def test_deterministic(self):
        chain = _chain_graph(9)
        seeds = np.zeros(9)
        seeds[2] = 1.0
        first = propagate_labels(chain, seeds)
        second = propagate_labels(chain, seeds)
        np.testing.assert_array_equal(first.scores, second.scores)

    def test_unconverged_run_reports_delta(self):
        chain = _chain_graph(30)
        seeds = np.zeros(30)
        seeds[0] = 1.0
        result = propagate_labels(chain, seeds, max_iter=2, tol=0.0)
        assert not result.converged
        assert result.iterations == 2
        assert result.delta > 0.0


def _seeded_graph(num_nodes, density, seed):
    """A random symmetric weighted graph whose every component has a ±1 seed."""
    rng = np.random.default_rng(seed)
    mask = rng.random((num_nodes, num_nodes)) < density
    upper = np.triu(rng.uniform(0.1, 1.0, (num_nodes, num_nodes)) * mask, 1)
    weights = sparse.csr_matrix(upper + upper.T)
    seeds = np.where(rng.random(num_nodes) < 0.3, rng.choice([-1.0, 1.0], num_nodes), 0.0)
    _, component = connected_components(weights, directed=False)
    for label in np.unique(component):
        members = np.flatnonzero(component == label)
        if not seeds[members].any():
            seeds[rng.choice(members)] = rng.choice([-1.0, 1.0])
    return weights, seeds


def _inverse_degrees(weights):
    degrees = np.asarray(weights.sum(axis=1)).ravel()
    return np.divide(1.0, degrees, out=np.zeros_like(degrees), where=degrees > 0)


def _harmonic_solution(weights, seeds):
    """Zhu, Ghahramani & Lafferty (2003): ``(I − P_uu) f_u = P_ul y_l``, ``P = D⁻¹W``."""
    unlabeled = seeds == 0
    transition = (sparse.diags(_inverse_degrees(weights)) @ weights).tocsr()
    scores = seeds.copy()
    if unlabeled.any():
        system = sparse.identity(int(unlabeled.sum())) - transition[unlabeled][:, unlabeled]
        rhs = transition[unlabeled][:, ~unlabeled] @ seeds[~unlabeled]
        scores[unlabeled] = spsolve(system.tocsc(), rhs)
    return scores


def _spreading_solution(weights, seeds, alpha):
    """Zhou et al. (2004): ``(I − αS) f = (1 − α) y``, ``S = D^{-1/2} W D^{-1/2}``."""
    root = sparse.diags(np.sqrt(_inverse_degrees(weights)))
    system = sparse.identity(weights.shape[0]) - alpha * (root @ weights @ root)
    return spsolve(system.tocsc(), (1.0 - alpha) * seeds)


class TestPropagationClosedForms:
    """The iterative solvers against independent direct solves of their fixed points."""

    @given(st.integers(2, 12), st.floats(0.2, 0.9), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_propagation_reaches_the_harmonic_solution(self, num_nodes, density, seed):
        weights, seeds = _seeded_graph(num_nodes, density, seed)
        clamped = propagate_labels(weights, seeds, tol=1e-14, max_iter=50_000)
        assert clamped.converged
        np.testing.assert_allclose(clamped.scores, _harmonic_solution(weights, seeds), atol=1e-10)

    @given(st.integers(2, 12), st.floats(0.2, 0.9), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_spreading_reaches_its_closed_form(self, num_nodes, density, seed):
        weights, seeds = _seeded_graph(num_nodes, density, seed)
        spread = propagate_labels(
            weights, seeds, method="spreading", alpha=0.85, tol=1e-14, max_iter=50_000
        )
        assert spread.converged
        np.testing.assert_allclose(
            spread.scores, _spreading_solution(weights, seeds, 0.85), atol=1e-10
        )

    @pytest.mark.parametrize("method", ["propagation", "spreading"])
    def test_symmetric_triangle_splits_the_unlabelled_node_evenly(self, method):
        triangle = sparse.csr_matrix(np.ones((3, 3)) - np.eye(3))
        result = propagate_labels(triangle, np.array([1.0, -1.0, 0.0]), method=method, tol=1e-14)
        assert result.scores[2] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("method", ["propagation", "spreading"])
    def test_isolated_labelled_node_keeps_its_seed(self, method):
        graph = sparse.dok_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        seeds = np.array([-1.0, 0.0, 1.0])
        result = propagate_labels(graph, seeds, method=method, tol=1e-14, max_iter=1000)
        assert result.scores[2] == pytest.approx(1.0, abs=1e-12)
        assert result.scores[1] < 0  # the unlabelled node takes its neighbour's label


class TestLabelPropagationFeedback:
    def _context(self, database, labeled, labels, memory=None):
        from repro.cbir.query import Query

        return FeedbackContext(
            database=database,
            query=Query(query_index=int(labeled[0])),
            labeled_indices=np.asarray(labeled),
            labels=np.asarray(labels, dtype=float),
            memory=memory,
        )

    def test_registered_beside_the_svm_family(self):
        assert "lrf-graph" in available_algorithms()
        algorithm = make_algorithm("lrf-graph", k=5, eta=0.25)
        assert isinstance(algorithm, LabelPropagationFeedback)
        assert algorithm.name == "lrf-graph"

    def test_constructor_validation(self):
        for bad in (
            dict(eta=-0.1),
            dict(eta=1.1),
            dict(method="osmosis"),
            dict(alpha=0.0),
            dict(max_iter=0),
            dict(tol=-1e-3),
            dict(k=0),
        ):
            with pytest.raises(ValidationError):
                LabelPropagationFeedback(**bad)

    def test_scores_every_image_and_ranks_positives_first(self, small_database):
        algorithm = LabelPropagationFeedback(k=8, cache=GraphCache())
        context = self._context(small_database, [0, 1, 30], [1, 1, -1])
        scores = algorithm.score(context)
        assert scores.shape == (small_database.num_images,)
        ranking = algorithm.rank(context, top_k=5)
        assert ranking.image_indices[0] in (0, 1)  # clamped positives on top
        assert algorithm.last_result_ is not None

    def test_single_class_feedback_is_usable(self, small_database):
        algorithm = LabelPropagationFeedback(k=8, cache=GraphCache())
        context = self._context(small_database, [0, 1], [1, 1])
        scores = algorithm.score(context)
        assert np.isfinite(scores).all()
        assert scores[0] == 1.0 and scores[1] == 1.0

    def test_cold_start_degrades_to_visual_only(self, empty_log_database):
        memory = FeedbackMemory()
        algorithm = LabelPropagationFeedback(k=8, eta=0.9, cache=GraphCache())
        context = self._context(empty_log_database, [0, 40], [1, -1], memory=memory)
        scores = algorithm.score(context)
        assert np.isfinite(scores).all()
        assert memory.meta["last_path"] == "graph-visual"
        assert memory.meta["rounds_scored"] == 1
        assert isinstance(memory.meta["last_graph_converged"], bool)

    def test_log_rich_round_takes_the_fused_path(self, small_database):
        memory = FeedbackMemory()
        algorithm = LabelPropagationFeedback(k=8, eta=0.5, cache=GraphCache())
        context = self._context(small_database, [0, 40], [1, -1], memory=memory)
        algorithm.score(context)
        assert memory.meta["last_path"] == "graph-fused"

    def test_eta_zero_ignores_the_log(self, small_database):
        memory = FeedbackMemory()
        algorithm = LabelPropagationFeedback(k=8, eta=0.0, cache=GraphCache())
        algorithm.score(self._context(small_database, [0, 40], [1, -1], memory=memory))
        assert memory.meta["last_path"] == "graph-visual"

    def test_rounds_share_one_cached_graph(self, small_database):
        cache = GraphCache()
        algorithm = LabelPropagationFeedback(k=8, cache=cache)
        for _ in range(3):
            algorithm.score(self._context(small_database, [0, 40], [1, -1]))
        assert cache.misses == 1 and cache.hits == 2

    def test_fusion_is_memoised_per_log_version_graph_and_eta(
        self, small_dataset, small_log, monkeypatch
    ):
        import copy

        import repro.graph.feedback as graph_feedback

        fusions = []

        def counting_fuse(visual, snapshot, *, eta):
            fusions.append((snapshot.version, eta))
            return fuse_with_log(visual, snapshot, eta=eta)

        monkeypatch.setattr(graph_feedback, "fuse_with_log", counting_fuse)
        database = ImageDatabase(small_dataset, log_database=copy.deepcopy(small_log))
        cache = GraphCache()
        algorithm = LabelPropagationFeedback(k=8, eta=0.5, cache=cache)
        graph = algorithm._visual_graph(database)

        def fused_now():
            return algorithm._fused_weights(graph, database.log_database.snapshot())

        version = len(database.log_database)
        first = fused_now()
        for _ in range(3):
            algorithm.score(self._context(database, [0, 40], [1, -1]))
        assert fused_now() is first
        assert fusions == [(version, 0.5)]
        # The memoised matrix is the one an unmemoised fusion produces.
        fresh = fuse_with_log(graph.weights, database.log_database.snapshot(), eta=0.5)
        assert (first != fresh).nnz == 0
        np.testing.assert_array_equal(first.data, fresh.data)
        np.testing.assert_array_equal(first.indices, fresh.indices)

        # Another eta, and another graph over the same snapshot, fuse anew.
        other_eta = LabelPropagationFeedback(k=8, eta=0.25, cache=cache)
        other_eta.score(self._context(database, [0, 40], [1, -1]))
        other_graph = LabelPropagationFeedback(k=5, eta=0.5, cache=cache)
        other_graph.score(self._context(database, [0, 40], [1, -1]))
        assert fusions == [(version, 0.5), (version, 0.25), (version, 0.5)]

        # An append starts a new version: one more fusion, a different matrix.
        database.log_database.append(LogSession(judgements={0: 1, 1: 1, 40: -1}))
        algorithm.score(self._context(database, [0, 40], [1, -1]))
        algorithm.score(self._context(database, [0, 40], [1, -1]))
        assert fusions[3:] == [(version + 1, 0.5)]
        assert fused_now() is not first

    def test_memo_never_serves_another_graphs_fusion(self, small_dataset, small_log):
        """A graph dropped by its cache stays alive inside the memo entry,
        so a later graph can never be handed its ``id()`` — and its fusion."""
        import copy
        import gc
        import weakref

        database = ImageDatabase(small_dataset, log_database=copy.deepcopy(small_log))
        snapshot = database.log_database.snapshot()
        first = LabelPropagationFeedback(k=8, eta=0.5, cache=GraphCache())
        graph = first._visual_graph(database)
        first._fused_weights(graph, snapshot)
        alive = weakref.ref(graph)
        del first, graph
        gc.collect()
        assert alive() is not None  # pinned by the snapshot's memo entry

        for _ in range(5):
            algorithm = LabelPropagationFeedback(k=4, eta=0.5, cache=GraphCache())
            other = algorithm._visual_graph(database)
            assert id(other) != id(alive())
            fused = algorithm._fused_weights(other, snapshot)
            expected = fuse_with_log(other.weights, snapshot, eta=0.5)
            assert (fused != expected).nnz == 0
            del algorithm, other
            gc.collect()

    def test_attached_index_is_used(self, small_dataset, monkeypatch):
        database = ImageDatabase(small_dataset)
        index = database.build_index("brute-force")
        calls = []
        search = index.batch_search
        monkeypatch.setattr(
            index, "batch_search", lambda *a, **k: calls.append(a) or search(*a, **k)
        )
        graph = LabelPropagationFeedback(k=4, cache=GraphCache())._visual_graph(database)
        assert len(calls) == 1
        reference = KNNGraphBuilder(k=4).build(database.features)
        assert (graph.weights != reference.weights).nnz == 0

    def test_propagation_metrics_reach_the_hub(self, small_database):
        from repro.obs import InMemoryExporter, configure, disable, get_hub

        configure(exporters=[InMemoryExporter()])
        try:
            algorithm = LabelPropagationFeedback(k=8, cache=GraphCache())
            algorithm.score(self._context(small_database, [0, 40], [1, -1]))
            hub = get_hub()
            assert hub.metrics.counter("graph.build.count").value == 1
            assert hub.metrics.counter("graph.propagate.iterations").value >= 1
            converged = hub.metrics.counter("graph.propagate.converged").value
            unconverged = hub.metrics.counter("graph.propagate.unconverged").value
            assert converged + unconverged == 1
        finally:
            disable()


class TestServiceIntegration:
    @pytest.fixture()
    def graph_database(self, small_dataset, small_log):
        import copy

        return ImageDatabase(small_dataset, log_database=copy.deepcopy(small_log))

    def _drive_session(self, service, small_dataset, query=0, rounds=2):
        opened = service.open_session(
            SearchRequest(
                query=query,
                top_k=10,
                algorithm="lrf-graph",
                algorithm_params={"k": 8, "eta": 0.5},
            )
        )
        responses = [opened]
        for _ in range(rounds):
            judgements = _category_judgements(
                small_dataset, query, responses[-1].image_indices[:6]
            )
            responses.append(service.submit_feedback(opened.session_id, judgements))
        return opened.session_id, responses

    def test_serves_through_the_service(self, graph_database, small_dataset):
        service = RetrievalService(graph_database, log_policy="off")
        _, responses = self._drive_session(service, small_dataset)
        assert responses[-1].round_index == 2
        assert len(responses[0].image_indices) == 10  # session top_k
        assert np.isfinite(responses[-1].scores).all()

    def test_reloaded_session_replays_bit_identically(
        self, graph_database, small_dataset, tmp_path
    ):
        """The satellite: an lrf-graph session resumed from a reloaded
        FileSessionStore serves the next round bit-identically."""
        request = SearchRequest(
            query=0, top_k=10, algorithm="lrf-graph", algorithm_params={"k": 8, "eta": 0.5}
        )
        reference = RetrievalService(graph_database, log_policy="off")
        ref_open = reference.open_session(request)
        round1 = _category_judgements(small_dataset, 0, ref_open.image_indices)
        ref_r1 = reference.submit_feedback(ref_open.session_id, round1)
        round2 = _category_judgements(small_dataset, 0, ref_r1.image_indices[:6])
        ref_r2 = reference.submit_feedback(ref_open.session_id, round2)

        store = FileSessionStore(tmp_path / "sessions")
        first = RetrievalService(graph_database, store=store, log_policy="off")
        opened = first.open_session(request)
        first.submit_feedback(opened.session_id, round1)
        del first  # "process restart"

        resumed = RetrievalService(
            graph_database,
            store=FileSessionStore(tmp_path / "sessions"),
            log_policy="off",
        )
        assert opened.session_id in resumed.store
        res_r2 = resumed.submit_feedback(opened.session_id, round2)
        np.testing.assert_array_equal(res_r2.image_indices, ref_r2.image_indices)
        np.testing.assert_array_equal(res_r2.scores, ref_r2.scores)
        state = resumed.store.get(opened.session_id)
        assert state.memory.meta["rounds_scored"] == 2
        assert state.memory.meta["last_path"] in ("graph-fused", "graph-visual")


POOL_CONFIG = GaussianPoolConfig(
    num_vectors=200, dim=5, num_clusters=4, num_queries=2, seed=13
)


def _cluster_dataset_factory():
    dataset, _ = make_pool_dataset(POOL_CONFIG, name="graph-cluster-test")
    return dataset


class TestClusterIntegration:
    def test_cluster_serves_lrf_graph_bit_identically(self, tmp_path):
        """A 2-worker cluster serves ``"lrf-graph"`` with the same rankings
        as one process."""
        config = ClusterConfig(
            session_dir=tmp_path / "sessions",
            log_dir=tmp_path / "log",
            num_workers=2,
            request_timeout=30.0,
            retry_limit=3,
        )
        local = RetrievalService(
            ImageDatabase(_cluster_dataset_factory()),
            store=FileSessionStore(tmp_path / "local-sessions"),
            default_algorithm="lrf-graph",
        )
        with ClusterRouter(_cluster_dataset_factory, config) as router:
            for query in (0, 7):
                remote0 = router.open_session(
                    query,
                    top_k=12,
                    algorithm="lrf-graph",
                    algorithm_params={"k": 6, "eta": 0.5},
                )
                local0 = local.open_session(
                    SearchRequest(
                        query=query,
                        top_k=12,
                        algorithm="lrf-graph",
                        algorithm_params={"k": 6, "eta": 0.5},
                    )
                )
                np.testing.assert_array_equal(
                    remote0.image_indices, local0.image_indices
                )
                judgements = {
                    int(idx): (1 if rank % 2 == 0 else -1)
                    for rank, idx in enumerate(remote0.image_indices[:6])
                }
                remote1 = router.submit_feedback(remote0.session_id, judgements)
                local1 = local.submit_feedback(local0.session_id, judgements)
                np.testing.assert_array_equal(
                    remote1.image_indices, local1.image_indices
                )
                np.testing.assert_array_equal(remote1.scores, local1.scores)
                router.close_session(remote0.session_id)
                local.close_session(local0.session_id)


class TestExperimentsWiring:
    def test_graph_params_validated_at_config_time(self):
        from repro.exceptions import ConfigurationError
        from repro.experiments.config import ExperimentConfig

        with pytest.raises(ConfigurationError):
            ExperimentConfig(graph_params={"eta": 2.0})
        with pytest.raises(ConfigurationError):
            ExperimentConfig(graph_params={"nonsense": 1})
        config = ExperimentConfig(graph_params={"k": 6, "eta": 0.25})
        assert config.graph_params["k"] == 6

    def test_build_algorithms_materialises_lrf_graph(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.pipeline import build_algorithms

        config = ExperimentConfig(
            algorithms=("euclidean", "lrf-graph"),
            graph_params={"k": 6, "eta": 0.25, "method": "spreading"},
        )
        catalogue = build_algorithms(config)
        algorithm = catalogue["lrf-graph"]
        assert isinstance(algorithm, LabelPropagationFeedback)
        assert algorithm.k == 6 and algorithm.method == "spreading"

    def test_run_graph_ablation_rejects_unknown_regime(self, small_dataset, small_database):
        from repro.exceptions import ConfigurationError
        from repro.experiments.ablations import run_graph_ablation
        from repro.experiments.config import ExperimentConfig

        config = ExperimentConfig()
        with pytest.raises(ConfigurationError):
            run_graph_ablation(
                config,
                regimes=("log-free",),
                environment=(small_dataset, small_database),
            )

    def test_run_graph_ablation_sweeps_regimes_and_eta(self, small_dataset, small_database):
        from dataclasses import replace

        from repro.evaluation.protocol import ProtocolConfig
        from repro.experiments.ablations import run_graph_ablation
        from repro.experiments.config import ExperimentConfig

        config = replace(
            ExperimentConfig(graph_params={"k": 8}),
            protocol=ProtocolConfig(num_queries=2, num_labeled=6, cutoffs=(10,), seed=5),
        )
        result = run_graph_ablation(
            config,
            eta_values=(0.0, 0.5),
            environment=(small_dataset, small_database),
        )
        assert result.parameter == "graph_regime_eta"
        assert result.values == (
            ("log-rich", 0.0),
            ("log-rich", 0.5),
            ("cold-start", 0.0),
            ("cold-start", 0.5),
        )
        assert len(result.map_scores) == 4
        assert all(0.0 <= score <= 1.0 for score in result.map_scores)
        # Every point carries the SVM head-to-head baseline.
        for table in result.tables:
            assert table.result("lrf-csvm").map_score >= 0.0
        # Cold-start eta sweep is a no-op: with an empty log both eta points
        # propagate over the identical visual graph.
        assert result.map_scores[2] == result.map_scores[3]
