"""Tests for repro.svm.kernels, including PSD property tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import ValidationError
from repro.svm.kernels import (
    Kernel,
    LinearKernel,
    PolynomialKernel,
    RBFKernel,
    build_kernel,
    make_kernel,
)


class TestLinearKernel:
    def test_matches_dot_products(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
        np.testing.assert_allclose(LinearKernel()(a, b), a @ b.T)

    def test_diagonal(self):
        a = np.random.default_rng(1).normal(size=(6, 4))
        np.testing.assert_allclose(LinearKernel().diagonal(a), np.sum(a * a, axis=1))


class TestRBFKernel:
    def test_self_similarity_is_one(self):
        a = np.random.default_rng(2).normal(size=(5, 3))
        kernel = RBFKernel(gamma=0.5).fit(a)
        np.testing.assert_allclose(np.diag(kernel.gram(a)), 1.0)

    def test_values_in_unit_interval(self):
        a = np.random.default_rng(3).normal(size=(10, 4))
        gram = RBFKernel(gamma=1.0).fit(a).gram(a)
        assert gram.min() >= 0.0
        assert gram.max() <= 1.0 + 1e-12

    def test_distance_monotonicity(self):
        kernel = RBFKernel(gamma=1.0)
        origin = np.zeros((1, 2))
        near = np.array([[0.1, 0.0]])
        far = np.array([[2.0, 0.0]])
        assert kernel(origin, near)[0, 0] > kernel(origin, far)[0, 0]

    def test_scale_gamma_requires_fit(self):
        kernel = RBFKernel(gamma="scale")
        with pytest.raises(ValidationError):
            kernel(np.ones((2, 2)), np.ones((2, 2)))

    def test_scale_gamma_resolved_by_fit(self):
        data = np.random.default_rng(4).normal(size=(20, 6))
        kernel = RBFKernel(gamma="scale").fit(data)
        expected = 1.0 / (6 * data.var())
        assert kernel.gamma_ == pytest.approx(expected)

    def test_auto_gamma(self):
        data = np.random.default_rng(5).normal(size=(10, 4))
        kernel = RBFKernel(gamma="auto").fit(data)
        assert kernel.gamma_ == pytest.approx(0.25)

    def test_invalid_gamma(self):
        with pytest.raises(ValidationError):
            RBFKernel(gamma=-1.0)
        with pytest.raises(ValidationError):
            RBFKernel(gamma="banana")

    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=8),
            elements=st.floats(-10, 10),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_gram_positive_semidefinite(self, data):
        gram = RBFKernel(gamma=0.3).gram(data)
        eigenvalues = np.linalg.eigvalsh(gram)
        assert eigenvalues.min() >= -1e-8


class TestPolynomialKernel:
    def test_degree_one_matches_affine_linear(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        kernel = PolynomialKernel(degree=1, gamma=1.0, coef0=0.0)
        np.testing.assert_allclose(kernel(a, b), a @ b.T)

    def test_known_value(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0, 4.0]])
        kernel = PolynomialKernel(degree=2, gamma=1.0, coef0=1.0)
        assert kernel(a, b)[0, 0] == pytest.approx((11.0 + 1.0) ** 2)

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            PolynomialKernel(degree=0)
        with pytest.raises(ValidationError):
            PolynomialKernel(gamma=0.0)

    def test_diagonal_matches_gram(self):
        a = np.random.default_rng(7).normal(size=(6, 3))
        kernel = PolynomialKernel(degree=3, gamma=0.5, coef0=0.7)
        np.testing.assert_allclose(kernel.diagonal(a), np.diag(kernel.gram(a)))


class _CountingKernel(Kernel):
    """Minimal kernel with no diagonal override, counting batched calls."""

    name = "counting"

    def __init__(self):
        self.calls = 0

    def __call__(self, a, b, *, a_sq=None):
        self.calls += 1
        a = np.atleast_2d(np.asarray(a, dtype=np.float64))
        b = np.atleast_2d(np.asarray(b, dtype=np.float64))
        return (a @ b.T) ** 2


class TestBaseDiagonal:
    def test_single_batched_call(self):
        kernel = _CountingKernel()
        data = np.random.default_rng(8).normal(size=(7, 4))
        diagonal = kernel.diagonal(data)
        assert kernel.calls == 1
        expected = [kernel(row[None, :], row[None, :])[0, 0] for row in data]
        np.testing.assert_allclose(diagonal, expected)

    def test_diagonal_is_writable(self):
        diagonal = _CountingKernel().diagonal(np.ones((3, 2)))
        diagonal[0] = -1.0  # the base implementation must return a copy
        assert diagonal[0] == -1.0

    def test_large_inputs_evaluated_in_blocks(self):
        """Beyond the block size the temporary Gram stays block-bounded."""
        kernel = _CountingKernel()
        data = np.random.default_rng(9).normal(size=(1030, 2))
        diagonal = kernel.diagonal(data)
        assert kernel.calls == 3  # ceil(1030 / 512) blocks, never a full Gram
        np.testing.assert_allclose(diagonal, np.sum(data * data, axis=1) ** 2)


class TestBuildKernel:
    def test_rbf_receives_gamma(self):
        kernel = build_kernel("rbf", gamma=0.25)
        assert isinstance(kernel, RBFKernel)
        assert kernel.gamma == 0.25

    def test_poly_receives_all_hyperparameters(self):
        kernel = build_kernel("poly", gamma=2.0, degree=4, coef0=0.3)
        assert isinstance(kernel, PolynomialKernel)
        assert (kernel.gamma, kernel.degree, kernel.coef0) == (2.0, 4, 0.3)

    def test_poly_string_gamma_defaults(self):
        kernel = build_kernel("poly", gamma="scale")
        assert kernel.gamma == 1.0

    def test_linear_and_pass_through(self):
        assert isinstance(build_kernel("linear"), LinearKernel)
        instance = LinearKernel()
        assert build_kernel(instance) is instance

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            build_kernel("sigmoid")


class TestMakeKernel:
    def test_by_name(self):
        assert isinstance(make_kernel("linear"), LinearKernel)
        assert isinstance(make_kernel("rbf"), RBFKernel)
        assert isinstance(make_kernel("poly"), PolynomialKernel)

    def test_pass_through_instance(self):
        kernel = LinearKernel()
        assert make_kernel(kernel) is kernel

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            make_kernel("sigmoid")


@st.composite
def _ternary_logs(draw):
    """``(pool rows, support vectors)`` of a random ternary log.

    The pool is an images × sessions matrix with −1/0/+1 entries, biased
    towards zero like a real log; shapes include a 0-session log, all-zero
    rows (never-judged images) and a single support vector.
    """
    num_images = draw(st.integers(1, 12))
    num_sessions = draw(st.integers(0, 9))
    entry = st.sampled_from([0.0, 0.0, 0.0, 1.0, -1.0])
    pool = draw(hnp.arrays(np.float64, (num_images, num_sessions), elements=entry))
    blank = draw(st.lists(st.integers(0, num_images - 1), max_size=3))
    pool[blank] = 0.0
    picked = draw(st.lists(st.integers(0, num_images - 1), min_size=1, max_size=5))
    return pool, pool[picked]


class TestSparseLeftOperand:
    """``kernel(sparse rows, sv)`` is the dense evaluation, bit for bit.

    So is a kernel model's decision function; a linear model scores by its
    primal weight instead, within the summation error of the dense one.
    """

    KERNELS = (
        LinearKernel(),
        RBFKernel(gamma=0.37),
        PolynomialKernel(degree=3, gamma=0.5, coef0=1.0),
    )

    @given(_ternary_logs())
    @settings(max_examples=60, deadline=None)
    def test_ternary_logs_evaluate_exactly(self, log):
        from scipy import sparse

        pool, support_vectors = log
        for layout in (sparse.csr_matrix, sparse.csc_matrix, sparse.csr_array):
            rows = layout(pool)
            for kernel in self.KERNELS:
                dense = kernel(pool, support_vectors)
                result = kernel(rows, support_vectors)
                assert type(result) is np.ndarray
                assert result.shape == (pool.shape[0], support_vectors.shape[0])
                np.testing.assert_array_equal(result, dense)

    @given(_ternary_logs(), st.floats(-2.0, 2.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_decision_function_passes_sparse_rows_through(self, log, bias, seed):
        from scipy import sparse

        from repro.svm.model import SVMModel

        pool, support_vectors = log
        coefficients = np.random.default_rng(seed).normal(size=support_vectors.shape[0])
        for kernel in self.KERNELS:
            model = SVMModel(support_vectors, coefficients, bias, kernel)
            scores = model.decision_function(sparse.csr_matrix(pool))
            dense = model.decision_function(pool)
            if isinstance(kernel, LinearKernel):
                # The primal ``r . w`` sums real-valued products, which a
                # dense mat-vec and a CSR row sum may group differently:
                # each is within ``n * eps / 2`` of the exact sum.
                magnitude = np.abs(pool) @ np.abs(model.primal_weight) + abs(bias)
                bound = (pool.shape[1] + 1) * np.finfo(np.float64).eps * magnitude
                assert np.all(np.abs(scores - dense) <= bound)
            else:
                np.testing.assert_array_equal(scores, dense)

    def test_model_without_support_vectors_scores_sparse_rows(self):
        from scipy import sparse

        from repro.svm.model import SVMModel

        model = SVMModel(np.zeros((0, 4)), np.zeros(0), -0.25, LinearKernel())
        scores = model.decision_function(sparse.csr_matrix((7, 4)))
        np.testing.assert_array_equal(scores, np.full(7, -0.25))
