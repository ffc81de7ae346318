"""Tests for the evaluation harness (metrics, protocol, results, reporting)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation.metrics import (
    average_precision_at_cutoffs,
    mean_average_precision,
    precision_at_k,
    precision_curve,
)
from repro.evaluation.protocol import EvaluationProtocol, ProtocolConfig
from repro.evaluation.reporting import render_improvement_table, render_series
from repro.evaluation.results import MethodResult, ResultsTable
from repro.evaluation.runner import ExperimentRunner
from repro.exceptions import ConfigurationError, EvaluationError


class TestMetrics:
    def test_precision_at_k_exact(self):
        relevant = np.zeros(10, dtype=bool)
        relevant[[0, 2, 4]] = True
        ranking = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
        assert precision_at_k(ranking, relevant, 5) == pytest.approx(3 / 5)
        assert precision_at_k(ranking, relevant, 1) == pytest.approx(1.0)

    def test_precision_at_k_bounds(self):
        relevant = np.ones(4, dtype=bool)
        with pytest.raises(EvaluationError):
            precision_at_k([0, 1], relevant, 3)
        with pytest.raises(EvaluationError):
            precision_at_k([0, 1], relevant, 0)

    def test_precision_curve_keys(self):
        relevant = np.array([True] * 5 + [False] * 15)
        curve = precision_curve(list(range(20)), relevant, cutoffs=(5, 10, 20))
        assert curve == {5: 1.0, 10: 0.5, 20: 0.25}

    def test_average_over_queries(self):
        curves = [{10: 0.4, 20: 0.2}, {10: 0.6, 20: 0.4}]
        averaged = average_precision_at_cutoffs(curves, cutoffs=(10, 20))
        assert averaged[10] == pytest.approx(0.5)
        assert averaged[20] == pytest.approx(0.3)

    def test_average_requires_curves(self):
        with pytest.raises(EvaluationError):
            average_precision_at_cutoffs([], cutoffs=(10,))

    def test_map_is_mean_of_cutoffs(self):
        assert mean_average_precision({10: 0.4, 20: 0.2}) == pytest.approx(0.3)

    @given(st.integers(1, 50), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_precision_bounded_and_monotone_hits(self, size, seed):
        rng = np.random.default_rng(seed)
        relevant = rng.random(size) > 0.5
        ranking = rng.permutation(size)
        for k in (1, max(size // 2, 1), size):
            value = precision_at_k(ranking, relevant, k)
            assert 0.0 <= value <= 1.0
        # precision * k (number of hits) is non-decreasing in k.
        hits = [precision_at_k(ranking, relevant, k) * k for k in range(1, size + 1)]
        assert all(b >= a - 1e-9 for a, b in zip(hits, hits[1:]))


class TestResultsTable:
    def _table(self):
        table = ResultsTable(dataset_name="unit-test", baseline="rf-svm")
        table.add(MethodResult("euclidean", {20: 0.30, 50: 0.20}))
        table.add(MethodResult("rf-svm", {20: 0.40, 50: 0.30}))
        table.add(MethodResult("lrf-2svms", {20: 0.48, 50: 0.33}))
        table.add(MethodResult("lrf-csvm", {20: 0.56, 50: 0.36}))
        return table

    def test_map_and_improvement(self):
        table = self._table()
        assert table.result("rf-svm").map_score == pytest.approx(0.35)
        improvement = table.improvement_over_baseline("lrf-csvm", 20)
        assert improvement == pytest.approx((0.56 - 0.40) / 0.40)

    def test_cutoffs_common(self):
        assert self._table().cutoffs() == (20, 50)

    def test_missing_method_raises(self):
        with pytest.raises(EvaluationError):
            self._table().result("unknown")

    def test_as_rows_structure(self):
        rows = self._table().as_rows()
        assert len(rows) == 3  # two cutoffs + MAP row
        assert "lrf-csvm_improvement" in rows[0]
        assert "euclidean_improvement" not in rows[0]

    def test_improvement_requires_positive_baseline(self):
        table = ResultsTable(dataset_name="x", baseline="rf-svm")
        table.add(MethodResult("rf-svm", {10: 0.0}))
        table.add(MethodResult("lrf-csvm", {10: 0.5}))
        with pytest.raises(EvaluationError):
            table.improvement_over_baseline("lrf-csvm", 10)


class TestReporting:
    def test_improvement_table_contains_methods_and_percentages(self):
        table = ResultsTable(dataset_name="report", baseline="rf-svm")
        table.add(MethodResult("euclidean", {20: 0.3}))
        table.add(MethodResult("rf-svm", {20: 0.4}))
        table.add(MethodResult("lrf-csvm", {20: 0.6}))
        text = render_improvement_table(table, title="Table X")
        assert "Table X" in text
        assert "RF-SVM" in text and "LRF-CSVM" in text
        assert "+50.0%" in text
        assert "MAP" in text

    def test_series_lists_all_cutoffs(self):
        table = ResultsTable(dataset_name="series")
        table.add(MethodResult("euclidean", {20: 0.3, 40: 0.25}))
        table.add(MethodResult("rf-svm", {20: 0.4, 40: 0.31}))
        text = render_series(table)
        assert "@20" in text and "@40" in text
        assert "euclidean" in text and "rf-svm" in text


class TestProtocol:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(num_queries=0)
        with pytest.raises(ConfigurationError):
            ProtocolConfig(num_labeled=1)
        with pytest.raises(ConfigurationError):
            ProtocolConfig(cutoffs=())
        with pytest.raises(ConfigurationError):
            ProtocolConfig(feedback_noise=1.2)

    def test_context_construction(self, small_dataset, small_database):
        config = ProtocolConfig(num_queries=4, num_labeled=8, cutoffs=(10, 20), seed=1)
        protocol = EvaluationProtocol(small_dataset, small_database, config)
        queries = protocol.sample_queries()
        assert queries.shape == (4,)
        context = protocol.build_context(int(queries[0]))
        assert context.num_labeled == 8
        assert context.has_both_classes
        relevant = protocol.ground_truth(int(queries[0]))
        assert relevant.shape == (small_dataset.num_images,)

    def test_feedback_noise_flips_labels(self, small_dataset, small_database):
        clean = EvaluationProtocol(
            small_dataset, small_database, ProtocolConfig(num_queries=2, num_labeled=8, cutoffs=(10,), seed=5)
        )
        noisy = EvaluationProtocol(
            small_dataset,
            small_database,
            ProtocolConfig(num_queries=2, num_labeled=8, cutoffs=(10,), feedback_noise=1.0, seed=5),
        )
        query = int(clean.sample_queries()[0])
        clean_labels = clean.build_context(query).labels
        noisy_labels = noisy.build_context(query).labels
        # With noise=1.0 every label is flipped relative to the clean ones
        # (up to the two-class guarantee adjustment on the last element).
        assert np.sum(clean_labels[:-1] != noisy_labels[:-1]) >= len(clean_labels) - 2

    def test_mismatched_dataset_and_database(self, small_dataset, small_database):
        subset = small_dataset.subset(range(24))
        with pytest.raises(EvaluationError):
            EvaluationProtocol(subset, small_database, ProtocolConfig(num_queries=1, cutoffs=(5,)))


class TestRunner:
    def test_runner_produces_table_for_all_methods(self, small_dataset, small_database):
        config = ProtocolConfig(num_queries=3, num_labeled=8, cutoffs=(10, 20), seed=2)
        runner = ExperimentRunner(small_dataset, small_database, protocol=config)
        table = runner.run(["euclidean", "rf-svm"])
        assert set(table.methods) == {"euclidean", "rf-svm"}
        assert table.cutoffs() == (10, 20)
        for method in table.methods:
            result = table.result(method)
            assert 0.0 <= result.map_score <= 1.0
            assert len(result.per_query) == 3

    def test_cutoff_larger_than_database_rejected(self, small_dataset, small_database):
        config = ProtocolConfig(num_queries=1, num_labeled=5, cutoffs=(10_000,), seed=0)
        runner = ExperimentRunner(small_dataset, small_database, protocol=config)
        with pytest.raises(EvaluationError):
            runner.run(["euclidean"])

    def test_empty_algorithm_list_rejected(self, small_dataset, small_database):
        runner = ExperimentRunner(
            small_dataset, small_database,
            protocol=ProtocolConfig(num_queries=1, num_labeled=5, cutoffs=(10,)),
        )
        with pytest.raises(EvaluationError):
            runner.run([])

    def test_runner_accepts_instances(self, small_dataset, small_database):
        from repro.feedback.euclidean import EuclideanFeedback

        runner = ExperimentRunner(
            small_dataset, small_database,
            protocol=ProtocolConfig(num_queries=2, num_labeled=6, cutoffs=(10,), seed=4),
        )
        table = runner.run({"baseline": EuclideanFeedback()})
        assert "baseline" in table.methods
