"""Tests for :mod:`repro.graph` — the ``lrf-graph`` feedback family.

One configuration is served (see ``docs/graph.md``): deterministic k-NN
graph construction, the process-level graph cache, the fused visual/log
kernel (sparse-only: ``R`` is never densified) and its per-log-version
memo, clamped propagation against its closed form, and the ``"lrf-graph"``
algorithm end to end — registry, cold start, service integration (in
process and through the cluster), bit-identical replay from a reloaded
:class:`~repro.service.FileSessionStore`, and the served rankings and
iteration counts pinned on the bench's smoke pool.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import importlib.util
import inspect
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import spsolve

import repro.graph.feedback as graph_feedback
from repro.cbir.database import ImageDatabase
from repro.cluster import ClusterConfig, ClusterRouter
from repro.datasets.pool import GaussianPoolConfig, make_gaussian_pool, make_pool_dataset
from repro.exceptions import ValidationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.pipeline import build_algorithms
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
from repro.graph.builder import K
from repro.index import VectorIndex
from repro.logdb import InMemoryLogStore, LogSession, LogSnapshot, RelevanceMatrix
from repro.service import FeedbackRequest, FileSessionStore, RetrievalService, SearchRequest
from repro.svm.kernels import RBFKernel
from repro.utils.arrays import euclidean_distances, exact_top_k


@pytest.fixture(scope="module")
def features():
    """A clustered pool with duplicated rows to exercise tie-breaking."""
    vectors, _ = make_gaussian_pool(
        GaussianPoolConfig(num_vectors=120, dim=6, num_clusters=4, num_queries=1, seed=7)
    )
    vectors[30:35] = vectors[0:5]  # exact duplicates → distance ties
    return vectors


@pytest.fixture()
def exact(monkeypatch):
    """Propagation run to a tight tolerance, for the closed-form checks."""
    monkeypatch.setattr(graph_feedback, "TOL", 1e-14)
    monkeypatch.setattr(graph_feedback, "MAX_ITER", 50_000)


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
        # One configuration: neither the builder nor its build takes options.
        assert list(inspect.signature(KNNGraphBuilder).parameters) == []
        assert list(inspect.signature(KNNGraphBuilder.build).parameters) == [
            "self", "features"
        ]
        with pytest.raises(TypeError):
            KNNGraphBuilder(k=3)

    def test_explicit_index_must_cover_features(self, features):
        # The builder scans the features itself: it takes no index.
        with pytest.raises(TypeError):
            KNNGraphBuilder().build(features, index=VectorIndex().build(features))

    def test_rejects_degenerate_features(self):
        builder = KNNGraphBuilder()
        with pytest.raises(ValidationError):
            builder.build(np.ones((1, 3)))
        with pytest.raises(ValidationError):
            builder.build(np.array([[np.nan, 0.0], [1.0, 2.0]]))

    def test_graph_is_symmetric_nonnegative_hollow(self, features):
        graph = KNNGraphBuilder().build(features)
        weights = graph.weights
        assert graph.num_nodes == features.shape[0]
        assert (abs(weights - weights.T)).max() < 1e-12
        assert weights.data.min() > 0.0
        assert weights.diagonal().max() == 0.0

    def test_every_node_keeps_k_outgoing_edges(self, features):
        graph = KNNGraphBuilder().build(features)
        # Max-symmetrisation only adds edges, so every node has >= K.
        assert np.diff(graph.weights.indptr).min() >= K == 10

    def test_rbf_gamma_scale_matches_kernel_convention(self, features):
        """The reference: each node's 10 nearest other rows by a stable sort
        of the full distance matrix, weighted ``exp(-gamma d^2)`` with the
        ``"scale"`` bandwidth of ``RBFKernel``, then ``max(W, W^T)``."""
        graph = KNNGraphBuilder().build(features)
        distances = euclidean_distances(features, features)
        gamma = float(RBFKernel("scale").fit(features).gamma_)
        expected = np.zeros_like(distances)
        for row, order in enumerate(np.argsort(distances, axis=1, kind="stable")):
            nearest = [int(i) for i in order if i != row][:10]
            expected[row, nearest] = np.exp(-gamma * distances[row, nearest] ** 2)
        expected = np.maximum(expected, expected.T)
        np.testing.assert_allclose(graph.weights.toarray(), expected, rtol=1e-12, atol=0)

    def test_graph_bit_identical_to_exact_fallback(self, features):
        """The builder's own scan finds the neighbours an attached index
        finds, so dropping ``build(index=)`` moved no edge."""
        _, own = exact_top_k(features, features, K + 1)
        _, indexed = VectorIndex().build(features).batch_search(features, K + 1)
        np.testing.assert_array_equal(own, indexed)

    def test_k_clamped_to_pool_size(self):
        small = np.random.default_rng(3).normal(size=(5, 3))
        graph = KNNGraphBuilder().build(small)
        assert graph.num_edges == 5 * 4  # every node links to all N - 1 others


class TestAffinityGraph:
    def test_rejects_non_square_weights(self):
        with pytest.raises(ValidationError):
            AffinityGraph(sparse.csr_matrix(np.ones((2, 3))))


class TestGraphCache:
    def test_hit_returns_same_object(self, features):
        cache = GraphCache()
        first = cache.get_or_build(features)
        second = cache.get_or_build(features)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1
        assert (first.weights != KNNGraphBuilder().build(features).weights).nnz == 0

    def test_dead_features_release_their_entry(self):
        cache = GraphCache()
        matrix = np.random.default_rng(0).normal(size=(10, 3))
        cache.get_or_build(matrix)
        assert len(cache) == 1
        del matrix
        gc.collect()
        assert len(cache) == 0

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
        fused = fuse_with_log(visual, snapshot)
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
        visual = sparse.identity(3, format="csr")
        # An empty log, or one with no co-judged pair, leaves the visual matrix.
        assert fuse_with_log(visual, InMemoryLogStore(3).snapshot()).nnz == visual.nnz
        assert fuse_with_log(visual, self._snapshot([{0: 1}], num_images=3)).nnz == visual.nnz
        wrong = self._snapshot([{0: 1, 1: 1}], num_images=5)
        with pytest.raises(ValidationError):
            fuse_with_log(visual, wrong)

    def test_fusion_is_convex_mix(self):
        snapshot = self._snapshot([{0: 1, 1: 1}], num_images=2)
        visual = sparse.csr_matrix(np.array([[0.0, 0.4], [0.4, 0.0]]))
        fused = fuse_with_log(visual, snapshot).toarray()
        assert fused[0, 1] == pytest.approx(0.5 * 0.4 + 0.5 * 1.0)


class TestPropagation:
    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            propagate_labels(sparse.csr_matrix(np.ones((2, 3))), np.zeros(2))
        with pytest.raises(ValidationError):
            propagate_labels(_chain_graph(5), np.zeros(4))

    def test_clamped_positives_stay_positive(self):
        chain = _chain_graph(7)
        seeds = np.zeros(7)
        seeds[0], seeds[6] = 1.0, -1.0
        result = propagate_labels(chain, seeds)
        assert result.converged
        assert result.scores[0] == 1.0 and result.scores[6] == -1.0
        # Scores decay monotonically along the chain from + to -.
        assert np.all(np.diff(result.scores) < 0)

    def test_converges_to_harmonic_solution_on_chain(self, exact):
        # On a path with endpoints clamped at +1/−1 the harmonic solution
        # is the linear interpolation between them.
        chain = _chain_graph(5)
        seeds = np.zeros(5)
        seeds[0], seeds[4] = 1.0, -1.0
        result = propagate_labels(chain, seeds)
        np.testing.assert_allclose(result.scores, [1.0, 0.5, 0.0, -0.5, -1.0], atol=1e-6)

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
        chain = _chain_graph(60)
        seeds = np.zeros(60)
        seeds[0] = 1.0
        result = propagate_labels(chain, seeds)
        assert not result.converged
        assert result.iterations == graph_feedback.MAX_ITER == 200
        assert result.delta > graph_feedback.TOL


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


def _harmonic_solution(weights, seeds):
    """Zhu, Ghahramani & Lafferty (2003): ``(I − P_uu) f_u = P_ul y_l``, ``P = D⁻¹W``."""
    degrees = np.asarray(weights.sum(axis=1)).ravel()
    inverse = np.divide(1.0, degrees, out=np.zeros_like(degrees), where=degrees > 0)
    unlabeled = seeds == 0
    transition = (sparse.diags(inverse) @ weights).tocsr()
    scores = seeds.copy()
    if unlabeled.any():
        system = sparse.identity(int(unlabeled.sum())) - transition[unlabeled][:, unlabeled]
        rhs = transition[unlabeled][:, ~unlabeled] @ seeds[~unlabeled]
        scores[unlabeled] = spsolve(system.tocsc(), rhs)
    return scores


class TestPropagationClosedForms:
    """The iterative solver against an independent direct solve of its fixed point."""

    @given(st.integers(2, 12), st.floats(0.2, 0.9), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_propagation_reaches_the_harmonic_solution(self, num_nodes, density, seed):
        weights, seeds = _seeded_graph(num_nodes, density, seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph_feedback, "TOL", 1e-14)
            patch.setattr(graph_feedback, "MAX_ITER", 50_000)
            clamped = propagate_labels(weights, seeds)
        assert clamped.converged
        np.testing.assert_allclose(clamped.scores, _harmonic_solution(weights, seeds), atol=1e-10)

    def test_symmetric_triangle_splits_the_unlabelled_node_evenly(self, exact):
        triangle = sparse.csr_matrix(np.ones((3, 3)) - np.eye(3))
        result = propagate_labels(triangle, np.array([1.0, -1.0, 0.0]))
        assert result.scores[2] == pytest.approx(0.0, abs=1e-12)

    def test_isolated_labelled_node_keeps_its_seed(self, exact):
        graph = sparse.dok_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        seeds = np.array([-1.0, 0.0, 1.0])
        result = propagate_labels(graph, seeds)
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
        algorithm = make_algorithm("lrf-graph")
        assert isinstance(algorithm, LabelPropagationFeedback)
        assert algorithm.name == "lrf-graph"
        with pytest.raises(ValidationError, match="cannot build algorithm 'lrf-graph'"):
            make_algorithm("lrf-graph", k=5)

    def test_constructor_validation(self):
        assert list(inspect.signature(LabelPropagationFeedback).parameters) == []
        for option in ("k", "eta", "method", "alpha", "max_iter", "tol", "cache"):
            with pytest.raises(TypeError):
                LabelPropagationFeedback(**{option: 1})

    def test_scores_every_image_and_ranks_positives_first(self, small_database):
        algorithm = LabelPropagationFeedback()
        context = self._context(small_database, [0, 1, 30], [1, 1, -1])
        scores = algorithm.score(context)
        assert scores.shape == (small_database.num_images,)
        ranking = algorithm.rank(context, top_k=5)
        assert ranking.image_indices[0] in (0, 1)  # clamped positives on top
        assert algorithm.last_result_ is not None

    def test_single_class_feedback_is_usable(self, small_database):
        algorithm = LabelPropagationFeedback()
        context = self._context(small_database, [0, 1], [1, 1])
        scores = algorithm.score(context)
        assert np.isfinite(scores).all()
        assert scores[0] == 1.0 and scores[1] == 1.0

    def test_cold_start_degrades_to_visual_only(self, empty_log_database):
        memory = FeedbackMemory()
        algorithm = LabelPropagationFeedback()
        context = self._context(empty_log_database, [0, 40], [1, -1], memory=memory)
        scores = algorithm.score(context)
        assert np.isfinite(scores).all()
        assert memory.meta["last_path"] == "graph-visual"
        assert memory.meta["rounds_scored"] == 1
        assert isinstance(memory.meta["last_graph_converged"], bool)

    def test_log_rich_round_takes_the_fused_path(self, small_database):
        memory = FeedbackMemory()
        algorithm = LabelPropagationFeedback()
        context = self._context(small_database, [0, 40], [1, -1], memory=memory)
        algorithm.score(context)
        assert memory.meta["last_path"] == "graph-fused"

    def test_rounds_share_one_cached_graph(self, small_dataset):
        database = ImageDatabase(small_dataset)  # features no round has seen
        cache = default_graph_cache()
        hits, misses = cache.hits, cache.misses
        for _ in range(3):
            LabelPropagationFeedback().score(self._context(database, [0, 40], [1, -1]))
        assert (cache.misses - misses, cache.hits - hits) == (1, 2)

    def test_fusion_is_memoised_per_log_version(self, small_dataset, small_log, monkeypatch):
        import copy

        fusions = []

        def counting_fuse(visual, snapshot):
            fusions.append(snapshot.version)
            return fuse_with_log(visual, snapshot)

        monkeypatch.setattr(graph_feedback, "fuse_with_log", counting_fuse)
        database = ImageDatabase(small_dataset, log_database=copy.deepcopy(small_log))
        algorithm = LabelPropagationFeedback()
        graph = default_graph_cache().get_or_build(database.features)

        def fused_now():
            return graph_feedback._fused_weights(graph, database.log_database.snapshot())

        version = len(database.log_database)
        first = fused_now()
        for _ in range(3):
            algorithm.score(self._context(database, [0, 40], [1, -1]))
        assert fused_now() is first
        assert fusions == [version]
        # The memoised matrix is the one an unmemoised fusion produces.
        fresh = fuse_with_log(graph.weights, database.log_database.snapshot())
        assert (first != fresh).nnz == 0
        np.testing.assert_array_equal(first.data, fresh.data)
        np.testing.assert_array_equal(first.indices, fresh.indices)

        # Another graph over the same snapshot fuses anew.
        other = KNNGraphBuilder().build(database.features)
        graph_feedback._fused_weights(other, database.log_database.snapshot())
        assert fusions == [version, version]

        # An append starts a new version: one more fusion, a different matrix.
        database.log_database.append(LogSession(judgements={0: 1, 1: 1, 40: -1}))
        algorithm.score(self._context(database, [0, 40], [1, -1]))
        algorithm.score(self._context(database, [0, 40], [1, -1]))
        assert fusions[2:] == [version + 1]
        assert fused_now() is not first

    def test_attached_index_is_not_used(self, small_dataset, monkeypatch):
        database = ImageDatabase(small_dataset)  # features no round has seen
        index = database.build_index("brute-force")
        calls = []
        monkeypatch.setattr(index, "batch_search", lambda *a, **k: calls.append(a))
        graph = default_graph_cache().get_or_build(database.features)
        assert not calls
        assert (graph.weights != KNNGraphBuilder().build(database.features).weights).nnz == 0

    def test_memo_never_serves_another_graphs_fusion(self, small_dataset, small_log):
        """A graph dropped by its owner stays alive inside the memo entry,
        so a later graph can never be handed its ``id()`` — and its fusion."""
        import copy

        database = ImageDatabase(small_dataset, log_database=copy.deepcopy(small_log))
        snapshot = database.log_database.snapshot()
        graph = KNNGraphBuilder().build(database.features)
        graph_feedback._fused_weights(graph, snapshot)
        alive = weakref.ref(graph)
        del graph
        gc.collect()
        assert alive() is not None  # pinned by the snapshot's memo entry

        for _ in range(5):
            other = KNNGraphBuilder().build(database.features)
            assert id(other) != id(alive())
            # Perturb the weights so a served stale fusion would show.
            other.weights.data *= 0.5
            fused = graph_feedback._fused_weights(other, snapshot)
            expected = fuse_with_log(other.weights, snapshot)
            assert (fused != expected).nnz == 0
            del other
            gc.collect()

    def test_propagation_metrics_reach_the_hub(self, small_dataset, small_log):
        from repro.obs import InMemoryExporter, configure, disable, get_hub

        database = ImageDatabase(small_dataset, log_database=small_log)  # a cache miss
        configure(exporters=[InMemoryExporter()])
        try:
            LabelPropagationFeedback().score(self._context(database, [0, 40], [1, -1]))
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

    def test_serves_through_the_service(self, graph_database, small_dataset):
        service = RetrievalService(graph_database, log_policy="off")
        opened = service.open_session(SearchRequest(query=0, top_k=10, algorithm="lrf-graph"))
        responses = [opened]
        for _ in range(2):
            judgements = _category_judgements(
                small_dataset, 0, responses[-1].image_indices[:6]
            )
            responses.append(service.submit_feedback(opened.session_id, judgements))
        assert responses[-1].round_index == 2
        assert len(responses[0].image_indices) == 10  # session top_k
        assert np.isfinite(responses[-1].scores).all()

    def test_reloaded_session_replays_bit_identically(
        self, graph_database, small_dataset, tmp_path
    ):
        """An lrf-graph session resumed from a reloaded FileSessionStore
        serves the next round bit-identically."""
        request = SearchRequest(query=0, top_k=10, algorithm="lrf-graph")
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


class TestExperimentsWiring:
    def test_build_algorithms_materialises_lrf_graph(self):
        catalogue = build_algorithms(ExperimentConfig(algorithms=("euclidean", "lrf-graph")))
        assert isinstance(catalogue["lrf-graph"], LabelPropagationFeedback)


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
        )
        local = RetrievalService(
            ImageDatabase(_cluster_dataset_factory()),
            store=FileSessionStore(tmp_path / "local-sessions"),
            default_algorithm="lrf-graph",
        )
        with ClusterRouter(_cluster_dataset_factory, config) as router:
            for query in (0, 7):
                remote0 = router.open_session(query, top_k=12, algorithm="lrf-graph")
                local0 = local.open_session(
                    SearchRequest(query=query, top_k=12, algorithm="lrf-graph")
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


# ------------------------------------------------------ served path, pinned
def _load_bench_workloads():
    # Loaded by path, as tests/test_bench_targets.py does: ``bench`` is not
    # an installed package.
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


#: ``(seed, log) -> (digest of every served top-20, last_graph_iterations
#: of every round)``: four 3-round sessions on the bench's smoke pool, with
#: its seed log and with an empty one.  Recorded on the tree that still
#: had the graph's options, and unchanged by their deletion.
SERVED_PIN = {
    (100, "seed"): ("620eef27fb5c9a55", [170, 134, 127, 155, 139, 118, 151, 140, 134, 129, 119, 110]),
    (100, "empty"): ("a2727d0807e19cd4", [185, 147, 127, 172, 144, 129, 154, 140, 133, 138, 125, 113]),
    (101, "seed"): ("568c4d59b648a6d6", [175, 158, 151, 156, 131, 115, 200, 163, 137, 200, 172, 151]),
    (101, "empty"): ("a8a928cd2e9fd545", [168, 150, 139, 174, 142, 122, 200, 166, 138, 200, 155, 140]),
    (102, "seed"): ("01a05c5d3b22c175", [180, 136, 127, 183, 162, 154, 157, 147, 134, 114, 105, 101]),
    (102, "empty"): ("3b6e444467c7a947", [193, 132, 122, 188, 161, 151, 156, 144, 129, 125, 112, 105]),
}


class TestServedRankingsPinned:
    @pytest.fixture(scope="class")
    def workloads(self):
        return _load_bench_workloads()

    @pytest.mark.parametrize("seed, log", list(SERVED_PIN), ids=lambda v: str(v))
    def test_rankings_and_iterations_unchanged(self, workloads, tmp_path, seed, log):
        spec = workloads.SPECS["smoke"]["interactive_csvm"]
        inputs = workloads.make_inputs(seed, spec)
        if log == "empty":
            inputs = dataclasses.replace(inputs, seed_log=())
        system = workloads.build_system(spec, inputs, tmp_path)
        served, iterations = [], []
        try:
            for query in (int(q) for q in inputs.queries[:4]):
                response = system.front.open_session(
                    SearchRequest(query=query, top_k=20, algorithm="lrf-graph")
                )
                for _ in range(3):
                    served.append(response.image_indices.copy())
                    response = system.front.submit_feedback(
                        FeedbackRequest(
                            response.session_id,
                            workloads.judge(inputs.labels, query, response),
                            top_k=20,
                        )
                    )
                    meta = system.front.store.get(response.session_id).memory.meta
                    iterations.append(meta["last_graph_iterations"])
                served.append(response.image_indices.copy())
                system.front.close_session(response.session_id)
        finally:
            system.close()
        digest = hashlib.sha256(np.concatenate(served).astype(np.int64).tobytes())
        assert (digest.hexdigest()[:16], iterations) == SERVED_PIN[(seed, log)]
