"""Tests for the relevance-feedback algorithms (baselines + LRF-CSVM)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cbir.query import Query
from repro.core.lrf_csvm import LRFCSVM
from repro.datasets.splits import relevance_ground_truth, relevance_labels
from repro.exceptions import ValidationError
from repro.feedback.base import FeedbackContext
from repro.feedback.euclidean import EuclideanFeedback
from repro.feedback.lrf_2svms import LRF2SVMs
from repro.feedback.registry import available_algorithms, make_algorithm
from repro.feedback.rf_svm import RFSVM


def _context_for_query(database, dataset, query_index, num_labeled=12):
    """Build a FeedbackContext with ground-truth labels on the initial top-k."""
    from repro.cbir.search import SearchEngine

    engine = SearchEngine(database)
    initial = engine.search(Query(query_index=query_index), top_k=num_labeled)
    labels = relevance_labels(dataset, query_index, initial.image_indices)
    if np.unique(labels).size < 2:
        labels[-1] = -labels[-1]
    return FeedbackContext(
        database=database,
        query=Query(query_index=query_index),
        labeled_indices=initial.image_indices,
        labels=labels,
    )


def _precision_at(result, relevant, k):
    return float(np.mean(relevant[result.image_indices[:k]]))


class TestFeedbackContext:
    def test_properties(self, small_database):
        context = FeedbackContext(
            database=small_database,
            query=Query(query_index=0),
            labeled_indices=np.array([0, 1, 20, 21]),
            labels=np.array([1.0, 1.0, -1.0, -1.0]),
        )
        assert context.num_labeled == 4
        np.testing.assert_array_equal(context.positive_indices, [0, 1])
        np.testing.assert_array_equal(context.negative_indices, [20, 21])
        assert context.has_both_classes
        assert context.labeled_features().shape == (4, 36)

    def test_validation(self, small_database):
        with pytest.raises(ValidationError):
            FeedbackContext(
                database=small_database,
                query=Query(query_index=0),
                labeled_indices=np.array([0, 1]),
                labels=np.array([1.0]),
            )
        with pytest.raises(ValidationError):
            FeedbackContext(
                database=small_database,
                query=Query(query_index=0),
                labeled_indices=np.array([0]),
                labels=np.array([0.5]),
            )
        with pytest.raises(ValidationError):
            FeedbackContext(
                database=small_database,
                query=Query(query_index=0),
                labeled_indices=np.array([], dtype=int),
                labels=np.array([]),
            )


class TestEuclideanFeedback:
    def test_query_ranked_first(self, small_database, small_dataset):
        context = _context_for_query(small_database, small_dataset, 5)
        result = EuclideanFeedback().rank(context)
        assert result.image_indices[0] == 5
        assert result.algorithm == "euclidean"

    def test_scores_cover_whole_database(self, small_database, small_dataset):
        context = _context_for_query(small_database, small_dataset, 0)
        scores = EuclideanFeedback().score(context)
        assert scores.shape == (small_database.num_images,)


class TestRFSVM:
    def test_improves_over_euclidean(self, small_database, small_dataset):
        """Averaged over several queries, RF-SVM must beat the no-learning baseline."""
        gains = []
        for query_index in range(0, small_dataset.num_images, 12):
            context = _context_for_query(small_database, small_dataset, query_index)
            relevant = relevance_ground_truth(small_dataset, query_index)
            euclid = EuclideanFeedback().rank(context)
            rf = RFSVM(C=10.0).rank(context)
            gains.append(
                _precision_at(rf, relevant, 12) - _precision_at(euclid, relevant, 12)
            )
        assert np.mean(gains) > 0

    def test_positive_feedback_images_ranked_high(self, small_database, small_dataset):
        context = _context_for_query(small_database, small_dataset, 0)
        result = RFSVM(C=10.0).rank(context)
        top = set(result.image_indices[: context.num_labeled].tolist())
        positives = set(context.positive_indices.tolist())
        assert len(top & positives) >= len(positives) // 2

    def test_single_class_fallback(self, small_database):
        context = FeedbackContext(
            database=small_database,
            query=Query(query_index=0),
            labeled_indices=np.array([0, 1, 2]),
            labels=np.array([1.0, 1.0, 1.0]),
        )
        scores = RFSVM().score(context)
        assert np.all(np.isfinite(scores))
        # The positives themselves should score near the top.
        top10 = np.argsort(-scores)[:10]
        assert len(set(top10.tolist()) & {0, 1, 2}) >= 2

    def test_negative_only_fallback(self, small_database):
        context = FeedbackContext(
            database=small_database,
            query=Query(query_index=0),
            labeled_indices=np.array([0, 1, 2]),
            labels=np.array([-1.0, -1.0, -1.0]),
        )
        scores = RFSVM().score(context)
        assert np.all(np.isfinite(scores))


class TestLRF2SVMs:
    def test_runs_and_scores_all_images(self, small_database, small_dataset):
        context = _context_for_query(small_database, small_dataset, 0)
        scores = LRF2SVMs().score(context)
        assert scores.shape == (small_database.num_images,)

    def test_cold_start_matches_visual_only(self, empty_log_database, small_dataset):
        context = _context_for_query(empty_log_database, small_dataset, 0)
        with_log = LRF2SVMs(C_visual=10.0)
        visual_only = RFSVM(C=10.0)
        np.testing.assert_allclose(
            with_log.score(context), visual_only.score(context), atol=1e-8
        )

    def test_log_changes_ranking(self, small_database, small_dataset):
        context = _context_for_query(small_database, small_dataset, 0)
        two_svms = LRF2SVMs().score(context)
        visual_only = RFSVM(C=10.0).score(context)
        assert not np.allclose(two_svms, visual_only)


class TestLRFCSVM:
    def test_runs_and_scores_all_images(self, small_database, small_dataset):
        context = _context_for_query(small_database, small_dataset, 0)
        algorithm = LRFCSVM(num_unlabeled=8, random_state=1)
        scores = algorithm.score(context)
        assert scores.shape == (small_database.num_images,)
        assert algorithm.last_result_ is not None
        assert algorithm.last_result_.rho_schedule  # annealing actually ran

    def test_memory_records_flips_per_stage(self, small_database, small_dataset):
        """``last_stage_flips`` is the fit's ``stage_flips``: one count per
        ρ* stage, summing to ``last_label_flips``.  Mutation caught:
        storing the per-pass ``label_flips`` list instead."""
        from repro.feedback.base import FeedbackMemory

        base = _context_for_query(small_database, small_dataset, 2)
        memory = FeedbackMemory()
        algorithm = LRFCSVM(num_unlabeled=8, random_state=1)
        algorithm.score(
            FeedbackContext(
                database=small_database,
                query=base.query,
                labeled_indices=base.labeled_indices,
                labels=base.labels,
                memory=memory,
            )
        )
        result = algorithm.last_result_
        assert result.stage_flips[0] > 0  # a flipping fit: passes outnumber stages
        assert memory.meta["last_stage_flips"] == result.stage_flips
        assert sum(memory.meta["last_stage_flips"]) == memory.meta["last_label_flips"]

    def test_a_round_without_a_fit_reports_no_solve(self, small_database, small_dataset):
        """A coupled round, then a 1+/1− round on the same memory: the
        second never reaches ``CoupledSVM.fit``, so the session's solver
        stats and ``last_result_`` must not describe the first one's fit.
        Mutation caught: keeping the coupled round's solve keys or fit."""
        from repro.service.state import SessionState

        base = _context_for_query(small_database, small_dataset, 2)
        state = SessionState(session_id="s", query=base.query)
        algorithm = LRFCSVM(num_unlabeled=8, random_state=1)

        def score_round(labeled_indices, labels):
            algorithm.score(
                FeedbackContext(
                    database=small_database,
                    query=base.query,
                    labeled_indices=labeled_indices,
                    labels=labels,
                    memory=state.memory,
                )
            )

        score_round(base.labeled_indices, base.labels)
        assert state.solver_stats()["path"] == "coupled"
        assert algorithm.last_result_ is not None
        positive = base.labeled_indices[base.labels > 0][0]
        negative = base.labeled_indices[base.labels < 0][0]
        score_round(np.array([positive, negative]), np.array([1.0, -1.0]))
        assert state.solver_stats() == {"path": "two-svm"}
        assert algorithm.last_result_ is None
        assert "last_stage_flips" not in state.memory.meta

    def test_cold_start_matches_visual_only(self, empty_log_database, small_dataset):
        context = _context_for_query(empty_log_database, small_dataset, 0)
        csvm = LRFCSVM(num_unlabeled=8, random_state=1)
        visual_only = RFSVM(C=10.0)
        np.testing.assert_allclose(
            csvm.score(context), visual_only.score(context), atol=1e-8
        )

    def test_single_class_fallback(self, small_database):
        context = FeedbackContext(
            database=small_database,
            query=Query(query_index=0),
            labeled_indices=np.array([0, 1]),
            labels=np.array([1.0, 1.0]),
        )
        scores = LRFCSVM(num_unlabeled=6).score(context)
        assert np.all(np.isfinite(scores))

    def test_selection_strategy_configurable(self, small_database, small_dataset):
        context = _context_for_query(small_database, small_dataset, 0)
        near = LRFCSVM(num_unlabeled=8, selection="near-labeled", random_state=0).score(context)
        boundary = LRFCSVM(num_unlabeled=8, selection="boundary", random_state=0).score(context)
        assert not np.allclose(near, boundary)

    def test_invalid_num_unlabeled(self):
        with pytest.raises(ValidationError):
            LRFCSVM(num_unlabeled=1)

    def test_log_snapshot_injection_matches_on_demand_read(
        self, small_database, small_dataset
    ):
        """A context scored through an injected snapshot is bit-identical
        to one reading the live log (no appends in between)."""
        base = _context_for_query(small_database, small_dataset, 0)
        injected = FeedbackContext(
            database=small_database,
            query=base.query,
            labeled_indices=base.labeled_indices,
            labels=base.labels,
            log=small_database.log_database.snapshot(),
        )
        algorithm = LRFCSVM(num_unlabeled=8, random_state=1)
        reference = LRFCSVM(num_unlabeled=8, random_state=1)
        np.testing.assert_array_equal(
            algorithm.score(injected), reference.score(base)
        )


class TestLRFCSVMGammaFreeze:
    """Satellite: gamma='scale' resolved once per session, carried in memory."""

    def _memory_context(self, database, dataset, query, memory):
        base = _context_for_query(database, dataset, query)
        return FeedbackContext(
            database=database,
            query=base.query,
            labeled_indices=base.labeled_indices,
            labels=base.labels,
            memory=memory,
        )

    def test_resolved_gamma_stored_and_reused(self, small_database, small_dataset):
        from repro.feedback.base import FeedbackMemory

        memory = FeedbackMemory()
        algorithm = LRFCSVM(num_unlabeled=8, random_state=1)
        context = self._memory_context(small_database, small_dataset, 0, memory)
        algorithm.score(context)
        resolved = memory.meta["resolved_gamma_visual"]
        assert isinstance(resolved, float) and resolved > 0
        # The default log kernel is linear — nothing to resolve there.
        assert "resolved_gamma_log" not in memory.meta

        # Round 2 with a *different* labelled set keeps the frozen value.
        second = self._memory_context(small_database, small_dataset, 1, memory)
        algorithm.score(second)
        assert memory.meta["resolved_gamma_visual"] == resolved

    def test_resolved_value_is_round_one_labeled_resolution(
        self, small_database, small_dataset
    ):
        """The frozen bandwidth is exactly what gamma='scale' resolves to on
        the session's first labelled set — and every stage (selection SVCs
        *and* the coupled SVM) then shares that one value."""
        from repro.feedback.base import FeedbackMemory

        memory = FeedbackMemory()
        context = self._memory_context(small_database, small_dataset, 0, memory)
        LRFCSVM(num_unlabeled=8, random_state=1).score(context)
        labeled = small_database.features[context.labeled_indices]
        expected = 1.0 / (labeled.shape[1] * float(labeled.var()))
        assert memory.meta["resolved_gamma_visual"] == pytest.approx(expected)

    def test_frozen_rounds_are_deterministic(self, small_database, small_dataset):
        """Two identical sessions produce bit-identical scores in every
        round — the frozen-gamma path stays fully deterministic."""
        from repro.feedback.base import FeedbackMemory

        def run():
            memory = FeedbackMemory()
            algorithm = LRFCSVM(num_unlabeled=8, random_state=1)
            first = self._memory_context(small_database, small_dataset, 0, memory)
            algorithm.score(first)
            second = self._memory_context(small_database, small_dataset, 1, memory)
            return algorithm.score(second)

        np.testing.assert_array_equal(run(), run())

    def test_frozen_gamma_survives_json_round_trip(self):
        """The carried float must round-trip exactly through the session
        stores' JSON documents (Python JSON floats are exact repr)."""
        import json

        value = 1.0 / (36 * 0.123456789012345)
        assert json.loads(json.dumps(value)) == value

    def test_numeric_gamma_is_left_alone(self, small_database, small_dataset):
        from repro.core.coupled_svm import CoupledSVMConfig
        from repro.feedback.base import FeedbackMemory

        memory = FeedbackMemory()
        algorithm = LRFCSVM(
            config=CoupledSVMConfig(gamma=0.5), num_unlabeled=8, random_state=1
        )
        context = self._memory_context(small_database, small_dataset, 0, memory)
        algorithm.score(context)
        assert "resolved_gamma_visual" not in memory.meta


class TestRegistry:
    def test_all_paper_schemes_available(self):
        names = available_algorithms()
        for expected in ("euclidean", "rf-svm", "lrf-2svms", "lrf-csvm"):
            assert expected in names

    def test_make_algorithm_types(self):
        assert isinstance(make_algorithm("euclidean"), EuclideanFeedback)
        assert isinstance(make_algorithm("rf-svm"), RFSVM)
        assert isinstance(make_algorithm("lrf-2svms"), LRF2SVMs)
        assert isinstance(make_algorithm("lrf-csvm"), LRFCSVM)

    def test_kwargs_forwarded(self):
        algorithm = make_algorithm("rf-svm", C=3.0)
        assert algorithm.C == 3.0

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            make_algorithm("neural-net")
