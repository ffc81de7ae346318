"""Tests for repro.svm.kernels, including PSD property tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import ValidationError
from repro.svm.kernels import LinearKernel, RBFKernel, build_kernel


class TestLinearKernel:
    def test_matches_dot_products(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
        np.testing.assert_allclose(LinearKernel()(a, b), a @ b.T)


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

    def test_invalid_gamma(self):
        with pytest.raises(ValidationError):
            RBFKernel(gamma=-1.0)
        with pytest.raises(ValidationError):
            RBFKernel(gamma="banana")
        # NaN and inf would fill the Gram with NaN; True would pass as 1.
        for gamma in (np.nan, np.inf, True):
            with pytest.raises(ValidationError, match="gamma must be 'scale' or a positive finite"):
                RBFKernel(gamma=gamma)

    def test_numeric_gamma_is_resolved_as_float(self):
        kernel = RBFKernel(gamma=np.float32(0.5))
        assert kernel.gamma_ == 0.5 and type(kernel.gamma_) is float

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

    def test_training_gram_is_exactly_symmetric(self):
        """``gram(x)`` equals its transpose bit for bit: with one operand,
        ``x @ x.T`` goes to numpy's symmetric product.  Catches doubling an
        operand inside ``pairwise_squared_distances`` (``x @ (2x).T`` is a
        general product, rounded differently above and below the
        diagonal), which changes SMO answers.  300 rows: with OpenBLAS
        0.3.31, products of 64 rows or fewer happened to round
        symmetrically either way."""
        x = np.random.default_rng(300).normal(size=(300, 36))
        gram = RBFKernel("scale").fit(x).gram(x)
        assert gram.tobytes() == np.ascontiguousarray(gram.T).tobytes()


class TestBuildKernel:
    def test_rbf_receives_gamma(self):
        kernel = build_kernel("rbf", gamma=0.25)
        assert isinstance(kernel, RBFKernel)
        assert kernel.gamma == 0.25

    def test_linear_and_pass_through(self):
        assert isinstance(build_kernel("linear"), LinearKernel)
        instance = LinearKernel()
        assert build_kernel(instance) is instance

    def test_unknown_name(self):
        # Only the paper's two kernels and the "scale" bandwidth exist.
        for make in (lambda: build_kernel("sigmoid"), lambda: build_kernel("poly"),
                     lambda: RBFKernel("auto")):
            with pytest.raises(ValidationError):
                make()


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

    KERNELS = (LinearKernel(), RBFKernel(gamma=0.37))

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
