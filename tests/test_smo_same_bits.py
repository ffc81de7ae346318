"""The SMO loop returns the same bits as its earlier, plainer form.

``_reference_solve`` keeps the solver's earlier loop verbatim (its
``_candidate_sets``, ``_select_working_set`` and ``_update_pair``): full
candidate masks rebuilt every iteration, the WSS2 curvature recomputed from
``Q`` and numpy scalars throughout.  The production loop keeps the candidate
sets incrementally, reads the curvature from a table and the pair's scalars
as Python floats; it must perform the same IEEE operations in the same
order, so every field of the result is compared with ``==``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FeedbackRequest, SearchRequest
from repro.exceptions import SolverError, ValidationError
from repro.svm.smo import SMOResult, SMOSolver
from repro.utils.validation import check_array, check_consistent_length, check_labels

from test_pool_scoring import _load_bench_workloads
from test_smo_oracle import duals

_TAU = 1e-12
_BOUND_EPS = 1e-12


# ------------------------------------------------- the reference, verbatim
def _candidate_sets(
    positive: np.ndarray,
    negative: np.ndarray,
    alphas: np.ndarray,
    upper: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    below = alphas < upper
    above = alphas > _BOUND_EPS
    in_up = (positive & below) | (negative & above)
    in_low = (positive & above) | (negative & below)
    return in_up, in_low


def _select_working_set(
    tolerance: float,
    y: np.ndarray,
    positive: np.ndarray,
    negative: np.ndarray,
    alphas: np.ndarray,
    upper: np.ndarray,
    gradient: np.ndarray,
    q_matrix: np.ndarray,
    q_diag: np.ndarray,
) -> Optional[Tuple[int, int]]:
    minus_y_grad = -y * gradient

    in_up, in_low = _candidate_sets(positive, negative, alphas, upper)
    if not in_up.any() or not in_low.any():
        return None

    up_scores = np.where(in_up, minus_y_grad, -np.inf)
    i = int(np.argmax(up_scores))
    g_max = up_scores[i]
    low_scores = np.where(in_low, minus_y_grad, np.inf)
    g_min = float(low_scores.min())

    if g_max - g_min < tolerance:
        return None

    decrease = g_max - minus_y_grad  # "b" of the sub-problem, > 0 for candidates
    curvature = q_diag[i] + q_diag - 2.0 * y[i] * (y * q_matrix[i])
    curvature = np.where(curvature > _TAU, curvature, _TAU)
    gains = np.where(
        in_low & (minus_y_grad < g_max),
        (decrease * decrease) / curvature,
        -np.inf,
    )
    j = int(np.argmax(gains))
    return i, j


def _update_pair(
    i: int,
    j: int,
    y: np.ndarray,
    alphas: np.ndarray,
    c: np.ndarray,
    gradient: np.ndarray,
    q_matrix: np.ndarray,
    q_diag: np.ndarray,
) -> None:
    old_alpha_i = alphas[i]
    old_alpha_j = alphas[j]
    c_i, c_j = c[i], c[j]

    if y[i] != y[j]:
        quad = q_diag[i] + q_diag[j] + 2.0 * q_matrix[i, j]
        quad = max(quad, _TAU)
        delta = (-gradient[i] - gradient[j]) / quad
        diff = alphas[i] - alphas[j]
        alphas[i] += delta
        alphas[j] += delta
        if diff > 0:
            if alphas[j] < 0:
                alphas[j] = 0.0
                alphas[i] = diff
        else:
            if alphas[i] < 0:
                alphas[i] = 0.0
                alphas[j] = -diff
        if diff > c_i - c_j:
            if alphas[i] > c_i:
                alphas[i] = c_i
                alphas[j] = c_i - diff
        else:
            if alphas[j] > c_j:
                alphas[j] = c_j
                alphas[i] = c_j + diff
    else:
        quad = q_diag[i] + q_diag[j] - 2.0 * q_matrix[i, j]
        quad = max(quad, _TAU)
        delta = (gradient[i] - gradient[j]) / quad
        total = alphas[i] + alphas[j]
        alphas[i] -= delta
        alphas[j] += delta
        if total > c_i:
            if alphas[i] > c_i:
                alphas[i] = c_i
                alphas[j] = total - c_i
        else:
            if alphas[j] < 0:
                alphas[j] = 0.0
                alphas[i] = total
        if total > c_j:
            if alphas[j] > c_j:
                alphas[j] = c_j
                alphas[i] = total - c_j
        else:
            if alphas[i] < 0:
                alphas[i] = 0.0
                alphas[j] = total
    delta_i = alphas[i] - old_alpha_i
    delta_j = alphas[j] - old_alpha_j
    gradient += q_matrix[i] * delta_i + q_matrix[j] * delta_j


def _reference_solve(
    self: SMOSolver,
    gram: Optional[np.ndarray],
    labels: np.ndarray,
    upper_bounds: np.ndarray,
    *,
    initial_alphas: Optional[np.ndarray] = None,
    q_matrix: Optional[np.ndarray] = None,
) -> SMOResult:
    """The earlier ``SMOSolver._solve``, shrinking left out."""
    y = check_labels(labels)
    c = np.asarray(upper_bounds, dtype=np.float64).ravel()
    if q_matrix is not None:
        q = np.asarray(q_matrix, dtype=np.float64)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValidationError(f"q_matrix must be square, got shape {q.shape}")
        check_consistent_length(q, y, c, names=("q_matrix", "labels", "upper_bounds"))
    else:
        kernel_matrix = check_array(gram, name="gram", ndim=2)
        check_consistent_length(kernel_matrix, y, c, names=("gram", "labels", "upper_bounds"))
        if kernel_matrix.shape[0] != kernel_matrix.shape[1]:
            raise ValidationError(f"gram must be square, got shape {kernel_matrix.shape}")
        q = kernel_matrix * np.outer(y, y)
    if np.any(c <= 0):
        raise ValidationError("all upper bounds must be strictly positive")
    if np.unique(y).size < 2:
        raise SolverError("SMO requires at least one sample of each class (+1 and -1)")

    n = y.shape[0]
    q_diag = np.diag(q).copy()

    if initial_alphas is None:
        alphas = np.zeros(n)
        gradient = -np.ones(n)
    else:
        start = np.asarray(initial_alphas, dtype=np.float64).ravel()
        if start.shape[0] != n:
            raise ValidationError(
                f"initial_alphas ({start.shape[0]}) must align with labels ({n})"
            )
        alphas = self._project_feasible(start, y, c)
        gradient = q @ alphas - 1.0

    positive = y > 0
    negative = y < 0
    upper = c - _BOUND_EPS

    iterations = 0
    converged = False
    while iterations < self.max_iter:
        selection = _select_working_set(
            self.tolerance, y, positive, negative, alphas, upper, gradient, q, q_diag
        )
        if selection is None:
            converged = True
            break
        i, j = selection
        _update_pair(i, j, y, alphas, c, gradient, q, q_diag)
        iterations += 1

    bias = self._compute_bias(y, alphas, c, gradient)
    objective = float(0.5 * (alphas @ gradient - alphas.sum()))
    return SMOResult(
        alphas=alphas,
        bias=bias,
        iterations=iterations,
        converged=converged,
        objective=objective,
        gradient=gradient,
    )


# ----------------------------------------------------------------- solves
def _bits(values) -> np.ndarray:
    """The IEEE bit patterns, so that ``-0.0`` and ``0.0`` differ too."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _assert_same_bits(ours: SMOResult, reference: SMOResult) -> None:
    np.testing.assert_array_equal(_bits(ours.alphas), _bits(reference.alphas))
    np.testing.assert_array_equal(_bits(ours.gradient), _bits(reference.gradient))
    assert _bits(ours.bias) == _bits(reference.bias)
    assert _bits(ours.objective) == _bits(reference.objective)
    assert ours.iterations == reference.iterations
    assert ours.converged == reference.converged


def _both(dual, solver):
    ours = dual.solve(solver)
    if dual.via_q:
        reference = _reference_solve(
            solver,
            None,
            dual.labels,
            dual.bounds,
            initial_alphas=dual.start,
            q_matrix=dual.gram * np.outer(dual.labels, dual.labels),
        )
    else:
        reference = _reference_solve(
            solver, dual.gram, dual.labels, dual.bounds, initial_alphas=dual.start
        )
    return ours, reference


class TestSameBits:
    @given(dual=duals(), tolerance=st.sampled_from([1e-3, 1e-6, 1e-10]))
    @settings(max_examples=150, deadline=None)
    def test_every_field_equal(self, dual, tolerance):
        ours, reference = _both(dual, SMOSolver(tolerance=tolerance))
        _assert_same_bits(ours, reference)

    @given(dual=duals(), max_iter=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_equal_when_stopped_by_max_iter(self, dual, max_iter):
        ours, reference = _both(dual, SMOSolver(tolerance=1e-12, max_iter=max_iter))
        _assert_same_bits(ours, reference)

    @pytest.mark.parametrize("via_q", [False, True], ids=["gram", "q_matrix"])
    def test_argmax_ties_from_duplicate_rows(self, via_q):
        """Every row appears three times, so every score and gain is tied."""
        rng = np.random.default_rng(5)
        rows = np.repeat(rng.normal(size=(4, 2)), 3, axis=0)
        gram = rows @ rows.T
        labels = np.tile([1.0, -1.0, 1.0], 4)
        bounds = np.full(12, 0.5)
        solver = SMOSolver(tolerance=1e-9)
        if via_q:
            q_matrix = gram * np.outer(labels, labels)
            ours = solver.solve(None, labels, bounds, q_matrix=q_matrix)
            reference = _reference_solve(solver, None, labels, bounds, q_matrix=q_matrix)
        else:
            ours = solver.solve(gram, labels, bounds)
            reference = _reference_solve(solver, gram, labels, bounds)
        assert ours.iterations > 1
        _assert_same_bits(ours, reference)


# --------------------------------------------------- served path, end to end
def _serve(workloads, inputs, workdir, algorithm):
    """Indices and scores of the feedback rounds of four 3-round sessions,
    and the scoring paths those rounds took."""
    spec = workloads.SPECS["smoke"]["interactive_csvm"]
    system = workloads.build_system(spec, inputs, workdir)
    served, paths = [], set()
    try:
        for query in (int(q) for q in inputs.queries[:4]):
            response = system.front.open_session(
                SearchRequest(query=query, top_k=20, algorithm=algorithm)
            )
            for _ in range(3):
                response = system.front.submit_feedback(
                    FeedbackRequest(
                        response.session_id,
                        workloads.judge(inputs.labels, query, response),
                        top_k=20,
                    )
                )
                served.append((response.image_indices.copy(), response.result.scores.copy()))
                paths.add((response.solver_stats or {}).get("path"))
            system.front.close_session(response.session_id)
    finally:
        system.close()
    return served, paths


class TestServedSameBits:
    """Served rankings and scores do not move with the reference loop
    patched in, and neither does the number of pair updates."""

    @pytest.fixture(scope="class")
    def workloads(self):
        return _load_bench_workloads()

    @pytest.fixture(scope="class")
    def inputs(self, workloads):
        return workloads.make_inputs(100, workloads.SPECS["smoke"]["interactive_csvm"])

    @pytest.mark.parametrize("algorithm", ["rf-svm", "lrf-2svms", "lrf-csvm"])
    def test_same_rankings_scores_and_iterations(
        self, workloads, inputs, tmp_path, monkeypatch, algorithm
    ):
        iterations = []
        solve = SMOSolver._solve

        def counted(loop):
            def run(self, *args, **kwargs):
                result = loop(self, *args, **kwargs)
                iterations[-1] += result.iterations
                return result

            return run

        iterations.append(0)
        monkeypatch.setattr(SMOSolver, "_solve", counted(solve))
        ours, paths = _serve(workloads, inputs, tmp_path / "ours", algorithm)
        iterations.append(0)
        monkeypatch.setattr(SMOSolver, "_solve", counted(_reference_solve))
        reference, _ = _serve(workloads, inputs, tmp_path / "reference", algorithm)

        assert len(ours) == len(reference) == 12
        for (indices, scores), (ref_indices, ref_scores) in zip(ours, reference):
            np.testing.assert_array_equal(indices, ref_indices)
            np.testing.assert_array_equal(scores, ref_scores)
        assert iterations[0] == iterations[1] > 0
        if algorithm == "lrf-csvm":
            assert "coupled" in paths
