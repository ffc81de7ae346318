"""Tests for repro.utils.arrays, including hypothesis property tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.utils.arrays import (
    l2_normalize_rows,
    minmax_scale,
    pairwise_squared_distances,
    stable_entropy,
    zscore,
)


class TestZscore:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(5.0, 3.0, size=(200, 4))
        scaled, _, _ = zscore(matrix)
        np.testing.assert_allclose(scaled.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(scaled.std(axis=0), 1.0, atol=1e-10)

    def test_constant_column_maps_to_zero(self):
        matrix = np.column_stack([np.ones(10), np.arange(10, dtype=float)])
        scaled, _, _ = zscore(matrix)
        np.testing.assert_allclose(scaled[:, 0], 0.0)

    def test_reapply_statistics(self):
        matrix = np.random.default_rng(1).normal(size=(50, 3))
        _, mean, std = zscore(matrix)
        row = matrix[:1]
        scaled, _, _ = zscore(row, mean=mean, std=std)
        np.testing.assert_allclose(scaled, (row - mean) / std)


class TestMinmaxScale:
    def test_range(self):
        matrix = np.random.default_rng(2).normal(size=(40, 3)) * 10
        scaled, low, high = minmax_scale(matrix)
        assert scaled.min() >= 0.0
        assert scaled.max() <= 1.0
        np.testing.assert_allclose(low, matrix.min(axis=0))
        np.testing.assert_allclose(high, matrix.max(axis=0))


class TestL2Normalize:
    def test_unit_norm(self):
        matrix = np.random.default_rng(3).normal(size=(20, 5))
        normalized = l2_normalize_rows(matrix)
        np.testing.assert_allclose(np.linalg.norm(normalized, axis=1), 1.0)

    def test_zero_row_stays_finite(self):
        matrix = np.zeros((2, 3))
        normalized = l2_normalize_rows(matrix)
        assert np.all(np.isfinite(normalized))


class TestPairwiseSquaredDistances:
    def test_matches_naive(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(6, 3))
        b = rng.normal(size=(4, 3))
        fast = pairwise_squared_distances(a, b)
        naive = np.array([[np.sum((x - y) ** 2) for y in b] for x in a])
        np.testing.assert_allclose(fast, naive, atol=1e-10)

    def test_self_distance_zero_diagonal(self):
        a = np.random.default_rng(5).normal(size=(8, 4))
        distances = pairwise_squared_distances(a, a)
        np.testing.assert_allclose(np.diag(distances), 0.0, atol=1e-9)

    def test_row_norms_passed_in_change_nothing(self):
        from scipy import sparse

        rng = np.random.default_rng(6)
        a = rng.integers(-1, 2, size=(9, 5)).astype(np.float64)
        b = rng.normal(size=(4, 5))
        a_sq = np.sum(a * a, axis=1)
        expected = pairwise_squared_distances(a, b)
        np.testing.assert_array_equal(pairwise_squared_distances(a, b, a_sq=a_sq), expected)
        np.testing.assert_array_equal(
            pairwise_squared_distances(sparse.csr_matrix(a), b, a_sq=a_sq), expected
        )

    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
            elements=st.floats(-100, 100),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_non_negative(self, matrix):
        distances = pairwise_squared_distances(matrix, matrix)
        assert np.all(distances >= 0.0)


class TestStableEntropy:
    def test_constant_signal_zero_entropy(self):
        assert stable_entropy(np.ones(100)) == pytest.approx(0.0)

    def test_uniform_higher_than_peaked(self):
        rng = np.random.default_rng(6)
        uniform = rng.uniform(0, 1, size=4096)
        peaked = np.concatenate([np.zeros(4000), rng.uniform(0, 1, 96)])
        assert stable_entropy(uniform) > stable_entropy(peaked)

    def test_empty_input(self):
        assert stable_entropy(np.array([])) == 0.0

    def test_upper_bound_log_bins(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(size=10000)
        assert stable_entropy(values, bins=64) <= np.log(64) + 1e-9
