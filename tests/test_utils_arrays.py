"""Tests for repro.utils.arrays, including hypothesis property tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.utils import arrays
from repro.utils.arrays import pairwise_squared_distances, squared_norms, stable_entropy


_DIM = 36
#: Rows per block of ``squared_norms`` at ``_DIM`` columns.
_BLOCK = arrays._NORM_BLOCK_ENTRIES // _DIM


def _assert_formula_bytes(rows):
    expected = np.sum(rows * rows, axis=1)
    actual = squared_norms(rows)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestSquaredNorms:
    """``squared_norms`` sums row blocks; every case equals the formula's bytes."""

    @pytest.mark.parametrize(
        "num_rows",
        [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5],
        ids=["1", "block-1", "block", "block+1", "3*block+5"],
    )
    def test_float_rows_around_the_block_size(self, num_rows):
        # Mutations caught: blocks that drop the last row, and
        # ``np.einsum("ij,ij->i", block, block)``, which sums in another order.
        rows = np.random.default_rng(9).normal(size=(num_rows, _DIM)) * 7.0
        _assert_formula_bytes(rows)

    def test_integer_rows_keep_the_integer_dtype(self):
        # Mutation caught: casting to float64, or a float64 output buffer.
        rows = np.random.default_rng(10).integers(-9, 9, size=(3 * _BLOCK + 5, _DIM))
        _assert_formula_bytes(rows.astype(np.int32))

    def test_strided_views(self):
        # Mutation caught: the einsum above, on non-contiguous rows.
        rows = np.random.default_rng(11).normal(size=(2 * (3 * _BLOCK + 5), 2 * _DIM))
        _assert_formula_bytes(rows[::2, ::2])
        _assert_formula_bytes(rows[::2, :_DIM])

    @pytest.mark.parametrize("extra", [1, 5])
    def test_column_major_rows_with_one_row_over(self, extra):
        # Mutation caught: a one-row last block.  numpy sums a lone row
        # pairwise but a column-major block column by column, so this row
        # (one large square, then ones) reads differently alone.
        rows = np.random.default_rng(12).normal(size=(3 * _BLOCK + extra, _DIM))
        rows[-1] = 0.0
        rows[-1, 0] = 1e8
        rows[-1, 1:8] = 1.0
        _assert_formula_bytes(np.asfortranarray(rows))


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
