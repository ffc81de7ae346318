"""Tests for the SMO solver: KKT conditions, known solutions, per-sample C."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SolverError, ValidationError
from repro.svm.kernels import LinearKernel, RBFKernel
from repro.svm.smo import SMOSolver


def _linear_gram(x):
    return x @ x.T


class TestSMOBasics:
    def test_two_point_problem_analytic(self):
        """For two opposite points the dual has a closed-form solution."""
        x = np.array([[1.0], [-1.0]])
        y = np.array([1.0, -1.0])
        result = SMOSolver().solve(_linear_gram(x), y, np.full(2, 10.0))
        # alpha1 = alpha2 = alpha; maximise 2a - 2a^2 -> a = 0.5.
        np.testing.assert_allclose(result.alphas, 0.5, atol=1e-6)
        assert result.bias == pytest.approx(0.0, abs=1e-6)
        assert result.converged

    def test_equality_constraint_satisfied(self, linearly_separable):
        features, labels = linearly_separable
        gram = _linear_gram(features)
        result = SMOSolver().solve(gram, labels, np.full(labels.shape[0], 1.0))
        assert abs(np.dot(result.alphas, labels)) < 1e-8

    def test_box_constraints_respected(self, linearly_separable):
        features, labels = linearly_separable
        bounds = np.full(labels.shape[0], 0.7)
        result = SMOSolver().solve(_linear_gram(features), labels, bounds)
        assert np.all(result.alphas >= -1e-10)
        assert np.all(result.alphas <= bounds + 1e-10)

    def test_per_sample_bounds_respected(self, linearly_separable):
        features, labels = linearly_separable
        rng = np.random.default_rng(0)
        bounds = rng.uniform(0.01, 2.0, size=labels.shape[0])
        result = SMOSolver().solve(_linear_gram(features), labels, bounds)
        assert np.all(result.alphas <= bounds + 1e-10)

    def test_kkt_conditions_hold(self, linearly_separable):
        """Free SVs sit on the margin; bounded ones are on the correct side."""
        features, labels = linearly_separable
        C = 1.0
        gram = _linear_gram(features)
        result = SMOSolver(tolerance=1e-4).solve(gram, labels, np.full(labels.shape[0], C))
        decision = gram @ (result.alphas * labels) + result.bias
        margins = labels * decision
        free = (result.alphas > 1e-6) & (result.alphas < C - 1e-6)
        at_zero = result.alphas <= 1e-6
        at_c = result.alphas >= C - 1e-6
        if free.any():
            np.testing.assert_allclose(margins[free], 1.0, atol=1e-2)
        assert np.all(margins[at_zero] >= 1.0 - 1e-2)
        assert np.all(margins[at_c] <= 1.0 + 1e-2)

    def test_separable_data_classified_perfectly(self, linearly_separable):
        features, labels = linearly_separable
        gram = _linear_gram(features)
        result = SMOSolver().solve(gram, labels, np.full(labels.shape[0], 10.0))
        decision = gram @ (result.alphas * labels) + result.bias
        assert np.all(np.sign(decision) == labels)

    def test_objective_improves_with_more_iterations(self, linearly_separable):
        features, labels = linearly_separable
        gram = RBFKernel(gamma=0.5).gram(features)
        bounds = np.full(labels.shape[0], 5.0)
        early = SMOSolver(max_iter=3).solve(gram, labels, bounds)
        final = SMOSolver(max_iter=20000).solve(gram, labels, bounds)
        assert final.objective <= early.objective + 1e-12
        assert final.converged


class TestSMOAgainstBruteForce:
    def test_matches_scipy_qp_on_small_problem(self):
        """Compare the SMO objective against a dense solver on a tiny dual."""
        from scipy import optimize

        rng = np.random.default_rng(3)
        features = rng.normal(size=(12, 2))
        labels = np.sign(features[:, 0] + 0.3 * rng.normal(size=12))
        labels[labels == 0] = 1.0
        C = 1.5
        gram = RBFKernel(gamma=1.0).gram(features)
        q_matrix = gram * np.outer(labels, labels)

        result = SMOSolver(tolerance=1e-5).solve(gram, labels, np.full(12, C))

        def objective(alpha):
            return 0.5 * alpha @ q_matrix @ alpha - alpha.sum()

        constraints = [{"type": "eq", "fun": lambda a: np.dot(a, labels)}]
        reference = optimize.minimize(
            objective,
            x0=np.full(12, C / 2),
            bounds=[(0.0, C)] * 12,
            constraints=constraints,
            method="SLSQP",
            options={"maxiter": 500, "ftol": 1e-12},
        )
        assert result.objective <= reference.fun + 1e-4


class TestSMOValidation:
    def test_single_class_rejected(self):
        gram = np.eye(3)
        with pytest.raises(SolverError):
            SMOSolver().solve(gram, np.ones(3), np.ones(3))

    def test_non_square_gram_rejected(self):
        with pytest.raises(ValidationError):
            SMOSolver().solve(np.ones((3, 2)), np.array([1.0, -1.0, 1.0]), np.ones(3))

    def test_non_positive_bounds_rejected(self):
        gram = np.eye(2)
        with pytest.raises(ValidationError):
            SMOSolver().solve(gram, np.array([1.0, -1.0]), np.array([1.0, 0.0]))

    def test_invalid_labels_rejected(self):
        with pytest.raises(ValidationError):
            SMOSolver().solve(np.eye(2), np.array([1.0, 0.5]), np.ones(2))

    def test_invalid_solver_parameters(self):
        with pytest.raises(ValidationError):
            SMOSolver(tolerance=0.0)
        with pytest.raises(ValidationError):
            SMOSolver(max_iter=0)

    def test_empty_labels_rejected(self):
        with pytest.raises(ValidationError, match="must not be empty"):
            SMOSolver().solve(np.zeros((0, 0)), np.zeros(0), np.zeros(0))

    def test_invalid_label_message_names_the_values(self):
        with pytest.raises(ValidationError, match=r"got values \[.*0\.5"):
            SMOSolver().solve(np.eye(3), np.array([1.0, -1.0, 0.5]), np.ones(3))


class TestSMONonFiniteInputs:
    """NaN or infinite inputs raise instead of solving to garbage."""

    labels = np.array([1.0, -1.0, 1.0, -1.0])

    @pytest.mark.parametrize("tolerance", [np.nan, np.inf])
    def test_tolerance(self, tolerance):
        with pytest.raises(ValidationError, match="tolerance"):
            SMOSolver(tolerance=tolerance)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_upper_bound(self, bad):
        bounds = np.array([1.0, 1.0, bad, 1.0])
        with pytest.raises(ValidationError, match="upper bounds"):
            SMOSolver().solve(np.eye(4), self.labels, bounds)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_initial_alphas(self, bad):
        start = np.array([0.5, 0.5, bad, 0.0])
        with pytest.raises(ValidationError, match="initial_alphas"):
            SMOSolver().solve(np.eye(4), self.labels, np.ones(4), initial_alphas=start)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_q_matrix(self, bad):
        q_matrix = np.eye(4)
        q_matrix[1, 2] = q_matrix[2, 1] = bad
        with pytest.raises(ValidationError, match="q_matrix"):
            SMOSolver().solve(None, self.labels, np.ones(4), q_matrix=q_matrix)

    def test_gram(self):
        gram = np.eye(4)
        gram[0, 0] = np.nan
        with pytest.raises(ValidationError, match="gram"):
            SMOSolver().solve(gram, self.labels, np.ones(4))


class TestSMOWarmStart:
    def _random_problem(self, seed, count=14):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(count, 3))
        labels = np.where(rng.random(count) > 0.5, 1.0, -1.0)
        if np.unique(labels).size < 2:
            labels[0] = -labels[0]
        gram = RBFKernel(gamma=0.7).gram(features)
        return gram, labels

    def test_warm_restart_from_solution_is_free(self):
        gram, labels = self._random_problem(0)
        bounds = np.full(labels.shape[0], 2.0)
        solver = SMOSolver()
        first = solver.solve(gram, labels, bounds)
        again = solver.solve(gram, labels, bounds, initial_alphas=first.alphas)
        assert again.iterations == 0
        np.testing.assert_allclose(again.alphas, first.alphas)

    def test_warm_start_still_feasible_from_infeasible_point(self):
        gram, labels = self._random_problem(1)
        bounds = np.full(labels.shape[0], 1.0)
        wild = np.full(labels.shape[0], 50.0)  # far outside the box
        result = SMOSolver().solve(gram, labels, bounds, initial_alphas=wild)
        assert result.converged
        assert abs(np.dot(result.alphas, labels)) < 1e-8
        assert np.all(result.alphas >= -1e-10)
        assert np.all(result.alphas <= bounds + 1e-10)

    def test_warm_start_misaligned_rejected(self):
        gram, labels = self._random_problem(2)
        with pytest.raises(ValidationError):
            SMOSolver().solve(
                gram, labels, np.ones(labels.shape[0]), initial_alphas=np.zeros(3)
            )

    def test_q_matrix_path_matches_gram_path(self):
        gram, labels = self._random_problem(3)
        bounds = np.full(labels.shape[0], 1.5)
        solver = SMOSolver()
        direct = solver.solve(gram, labels, bounds)
        via_q = solver.solve(
            None, labels, bounds, q_matrix=gram * np.outer(labels, labels)
        )
        np.testing.assert_allclose(via_q.alphas, direct.alphas)
        assert via_q.bias == pytest.approx(direct.bias)

    def test_gradient_returned_and_consistent(self):
        gram, labels = self._random_problem(4)
        bounds = np.full(labels.shape[0], 1.0)
        result = SMOSolver().solve(gram, labels, bounds)
        q_matrix = gram * np.outer(labels, labels)
        np.testing.assert_allclose(result.gradient, q_matrix @ result.alphas - 1.0)

    @given(seed=st.integers(0, 500), flips=st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_warm_start_matches_cold_after_label_flips(self, seed, flips):
        """Warm and cold starts reach the same decision function.

        This is the correctness contract of the coupled SVM's warm-started
        AO loop: after random label flips and a bound change, warm-starting
        from the previous solution must converge to the same model (the dual
        is strictly convex for an RBF Gram over distinct points).
        """
        rng = np.random.default_rng(seed)
        gram, labels = self._random_problem(seed)
        count = labels.shape[0]
        bounds = np.full(count, 1.0)
        solver = SMOSolver(tolerance=1e-6)
        base = solver.solve(gram, labels, bounds)

        flipped = labels.copy()
        flipped[rng.choice(count, size=min(flips, count), replace=False)] *= -1.0
        if np.unique(flipped).size < 2:
            flipped[0] = -flipped[0]
        new_bounds = bounds * rng.uniform(0.5, 2.0)

        cold = solver.solve(gram, flipped, new_bounds)
        warm = solver.solve(gram, flipped, new_bounds, initial_alphas=base.alphas)
        decision_cold = gram @ (cold.alphas * flipped) + cold.bias
        decision_warm = gram @ (warm.alphas * flipped) + warm.bias
        np.testing.assert_allclose(decision_warm, decision_cold, atol=1e-4)
        assert abs(np.dot(warm.alphas, flipped)) < 1e-8


class TestSMOProperties:
    @given(seed=st.integers(0, 1000), c_value=st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_constraints_always_satisfied(self, seed, c_value):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(4, 16))
        features = rng.normal(size=(count, 3))
        labels = np.where(rng.random(count) > 0.5, 1.0, -1.0)
        if np.unique(labels).size < 2:
            labels[0] = -labels[0]
        gram = RBFKernel(gamma=0.7).gram(features)
        bounds = np.full(count, c_value)
        result = SMOSolver().solve(gram, labels, bounds)
        assert abs(np.dot(result.alphas, labels)) < 1e-6
        assert np.all(result.alphas >= -1e-9)
        assert np.all(result.alphas <= c_value + 1e-9)
        assert result.objective <= 1e-9  # alpha=0 gives 0; the optimum is never worse
