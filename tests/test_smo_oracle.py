"""The SMO solver against an independent solve of the same dual.

Small duals are drawn with hypothesis (2–12 samples, per-sample ``rho * C``
boxes, rank-deficient Grams with duplicated rows and rounding-level noise,
mostly-zero rows, the ``q_matrix``-only path, warm starts including
infeasible ones) and every answer is checked against code that shares
nothing with the solver:

* ``scipy.optimize.minimize`` (SLSQP) on the same dual — objective, and the
  kernel part ``K (alpha * y)`` of the decision values, which is unique even
  when the multipliers are not;
* a KKT residual coded here from the primal margin conditions, which also
  pins the bias the solver recovers;
* a brute-force enumeration of the second-order working-set rule (Fan, Chen
  & Lin, JMLR 2005): one pair update from a drawn feasible start must move
  exactly the pair the enumeration picks, to the minimiser of the dual along
  that pair's feasible segment.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from repro.svm.kernels import LinearKernel, RBFKernel
from repro.svm.smo import SMOSolver

TOLERANCE = 1e-7


class _Dual:
    """One drawn dual problem and how it is handed to the solver."""

    def __init__(self, gram, labels, bounds, start, via_q):
        self.gram = gram
        self.labels = labels
        self.bounds = bounds
        self.start = start
        self.via_q = via_q

    def solve(self, solver):
        if self.via_q:
            return solver.solve(
                None,
                self.labels,
                self.bounds,
                initial_alphas=self.start,
                q_matrix=self.gram * np.outer(self.labels, self.labels),
            )
        return solver.solve(self.gram, self.labels, self.bounds, initial_alphas=self.start)


@st.composite
def duals(draw, *, warm=("none", "feasible", "infeasible")):
    count = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 4))
    distinct = draw(st.integers(1, count))
    rows = rng.normal(size=(distinct, dim))
    if draw(st.booleans()):  # mostly-zero rows
        rows *= rng.random(size=rows.shape) < 0.3
    # Duplicated rows make the Gram rank-deficient (and, with a linear kernel
    # in fewer dimensions than samples, it is rank-deficient anyway).
    features = rows[rng.integers(0, distinct, size=count)]
    if draw(st.sampled_from(["rbf", "linear"])) == "rbf":
        gram = RBFKernel(gamma=draw(st.sampled_from([0.1, 0.7, 3.0]))).gram(features)
    else:
        gram = LinearKernel().gram(features)
    if draw(st.booleans()):
        # Rounding-level noise, like that of a Gram computed in blocks: it can
        # leave K_ii + K_tt - 2 K_it of duplicated rows slightly negative.
        noise = rng.normal(size=gram.shape) * 1e-15 * (1.0 + np.abs(gram).max())
        gram = gram + (noise + noise.T)
    labels = np.where(rng.random(count) < 0.5, 1.0, -1.0)
    labels[rng.choice(count, size=2, replace=False)] = [1.0, -1.0]
    c_value = draw(st.sampled_from([0.05, 1.0, 10.0]))
    rho = draw(st.sampled_from([1.0, 0.5, 0.02, 1e-3]))
    # Labelled samples are boxed by C, unlabelled ones by rho * C.
    bounds = np.where(rng.random(count) < 0.5, c_value, rho * c_value)
    kind = draw(st.sampled_from(warm))
    start = None
    if kind == "feasible":
        start = SMOSolver._project_feasible(rng.random(count) * bounds, labels, bounds)
    elif kind == "infeasible":
        # Outside the box on both sides and off the equality constraint:
        # the solver's projection has to repair it.
        start = rng.uniform(-1.0, 3.0, size=count) * bounds
    return _Dual(gram, labels, bounds, start, draw(st.booleans()))


def _objective(q_matrix, alphas):
    return 0.5 * alphas @ q_matrix @ alphas - alphas.sum()


def _scipy_solve(dual):
    """The dual solved by SLSQP from a cold start, with exact derivatives."""
    q_matrix = dual.gram * np.outer(dual.labels, dual.labels)
    result = optimize.minimize(
        lambda a: _objective(q_matrix, a),
        x0=np.zeros(dual.labels.shape[0]),
        jac=lambda a: q_matrix @ a - 1.0,
        bounds=list(zip(np.zeros_like(dual.bounds), dual.bounds)),
        constraints=[
            {"type": "eq", "fun": lambda a: dual.labels @ a, "jac": lambda a: dual.labels}
        ],
        method="SLSQP",
        options={"maxiter": 1000, "ftol": 1e-15},
    )
    return np.clip(result.x, 0.0, dual.bounds)


def kkt_residual(gram, labels, bounds, alphas, bias, *, at_bound=1e-9):
    """Largest violation of the optimality conditions of ``(alphas, bias)``.

    Box and equality feasibility, and the margin conditions of the primal:
    ``y f(x) >= 1`` where ``alpha = 0``, ``y f(x) = 1`` where ``alpha`` is
    free and ``y f(x) <= 1`` where ``alpha = C``.
    """
    margins = labels * (gram @ (alphas * labels) + bias) - 1.0
    at_zero = alphas <= at_bound
    at_upper = alphas >= bounds - at_bound
    free = ~at_zero & ~at_upper
    violations = [
        np.max(-alphas, initial=0.0),
        np.max(alphas - bounds, initial=0.0),
        abs(labels @ alphas),
        np.max(-margins[at_zero], initial=0.0),
        np.max(margins[at_upper & ~at_zero], initial=0.0),
        np.max(np.abs(margins[free]), initial=0.0),
    ]
    return max(violations)


class TestAgainstScipy:
    @given(dual=duals())
    @settings(max_examples=150, deadline=None)
    def test_objective_and_decision_values(self, dual):
        result = dual.solve(SMOSolver(tolerance=TOLERANCE))
        assert result.converged
        reference = _scipy_solve(dual)
        q_matrix = dual.gram * np.outer(dual.labels, dual.labels)
        # A maximal KKT violation below the tolerance leaves an objective gap
        # of at most about tolerance * sum(C); SLSQP gets no closer.
        gap = TOLERANCE * (1.0 + dual.bounds.sum())
        assert result.objective == pytest.approx(_objective(q_matrix, reference), abs=gap)
        # The multipliers need not be unique on a rank-deficient Gram, but
        # K (alpha * y) is: the objective is strictly convex along range(Q).
        np.testing.assert_allclose(
            dual.gram @ (result.alphas * dual.labels),
            dual.gram @ (reference * dual.labels),
            atol=1e-4 * (1.0 + np.abs(dual.gram).max() * dual.bounds.sum()),
        )

    @given(dual=duals())
    @settings(max_examples=150, deadline=None)
    def test_kkt_residual_within_tolerance(self, dual):
        result = dual.solve(SMOSolver(tolerance=TOLERANCE))
        assert result.converged
        residual = kkt_residual(dual.gram, dual.labels, dual.bounds, result.alphas, result.bias)
        assert residual <= 2 * TOLERANCE + 1e-9

    @given(dual=duals(warm=("infeasible",)))
    @settings(max_examples=40, deadline=None)
    def test_infeasible_warm_start_is_projected_onto_the_feasible_set(self, dual):
        projected = SMOSolver._project_feasible(dual.start, dual.labels, dual.bounds)
        assert np.all(projected >= 0.0)
        assert np.all(projected <= dual.bounds)
        assert abs(dual.labels @ projected) <= 1e-12 * (1.0 + dual.bounds.sum())

    @given(dual=duals())
    @settings(max_examples=40, deadline=None)
    def test_gradient_is_q_alpha_minus_one(self, dual):
        result = dual.solve(SMOSolver(tolerance=TOLERANCE))
        q_matrix = dual.gram * np.outer(dual.labels, dual.labels)
        np.testing.assert_allclose(
            result.gradient, q_matrix @ result.alphas - 1.0, atol=1e-9 * (1.0 + dual.bounds.sum())
        )


def _wss2_pair(gram, labels, bounds, alphas):
    """WSS2's pair by enumeration, or ``None`` at optimality.

    ``i`` maximises ``-y_t g_t`` over the "up" set; ``j`` maximises
    ``b^2 / a`` over the "low" samples ``t`` that violate with ``i``, with
    ``b = -y_i g_i + y_t g_t`` and ``a = K_ii + K_tt - 2 K_it`` floored at
    1e-12; the first index wins a tie.  The gradient is the solver's own
    ``Q alpha - e`` product, so near-ties resolve on the same bits.
    """
    count = labels.shape[0]
    gradient = (gram * np.outer(labels, labels)) @ alphas - 1.0
    score = [-labels[t] * gradient[t] for t in range(count)]
    up = [
        t for t in range(count)
        if (labels[t] > 0 and alphas[t] < bounds[t] - 1e-12)
        or (labels[t] < 0 and alphas[t] > 1e-12)
    ]
    low = [
        t for t in range(count)
        if (labels[t] > 0 and alphas[t] > 1e-12)
        or (labels[t] < 0 and alphas[t] < bounds[t] - 1e-12)
    ]
    if not up or not low:
        return None
    i = max(up, key=lambda t: (score[t], -t))
    if score[i] - min(score[t] for t in low) < TOLERANCE:
        return None
    best, j = -np.inf, None
    for t in low:
        if score[t] < score[i]:
            b = score[i] - score[t]
            a = max(gram[i, i] + gram[t, t] - 2.0 * gram[i, t], 1e-12)
            if b * b / a > best:
                best, j = b * b / a, t
    return i, j


def _pair_step(gram, labels, bounds, alphas, i, j):
    """The minimiser of the dual along the pair's feasible segment.

    ``alpha_i += y_i t`` and ``alpha_j -= y_j t`` keep ``y' alpha``; the
    objective is quadratic in ``t`` with curvature ``K_ii + K_jj - 2 K_ij``
    (floored at 1e-12), and ``t`` is clipped to the interval the two boxes
    allow.
    """
    gradient = (gram * np.outer(labels, labels)) @ alphas - 1.0
    slope = labels[i] * gradient[i] - labels[j] * gradient[j]
    curvature = max(gram[i, i] + gram[j, j] - 2.0 * gram[i, j], 1e-12)
    low_i, high_i = sorted((-alphas[i] * labels[i], (bounds[i] - alphas[i]) * labels[i]))
    low_j, high_j = sorted((alphas[j] * labels[j], (alphas[j] - bounds[j]) * labels[j]))
    step = min(max(-slope / curvature, low_i, low_j), high_i, high_j)
    moved = alphas.copy()
    moved[i] += labels[i] * step
    moved[j] -= labels[j] * step
    return moved


class TestWorkingSetSelection:
    @given(dual=duals(warm=("feasible",)))
    @settings(max_examples=300, deadline=None)
    def test_one_update_takes_the_exact_step_on_the_enumerated_pair(self, dual):
        # The solver projects its warm start; the same projection here gives
        # the solver's own starting point.
        start = SMOSolver._project_feasible(dual.start, dual.labels, dual.bounds)
        result = dual.solve(SMOSolver(tolerance=TOLERANCE, max_iter=1))
        pair = _wss2_pair(dual.gram, dual.labels, dual.bounds, start)
        moved = set(np.flatnonzero(result.alphas != start).tolist())
        if pair is None:
            assert result.iterations == 0 and not moved
            return
        assert result.iterations == 1
        # Both multipliers move (or, when already optimal along the pair,
        # neither), to the minimiser along the pair's feasible segment.
        assert moved in (set(pair), set())
        np.testing.assert_allclose(
            result.alphas,
            _pair_step(dual.gram, dual.labels, dual.bounds, start, *pair),
            rtol=0,
            atol=1e-12 * (1.0 + dual.bounds.max()),
        )
