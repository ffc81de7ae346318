"""Sequential Minimal Optimization (SMO) solver for the SVM dual.

Solves

.. math::

    \\min_\\alpha \\; \\tfrac12 \\alpha^T Q \\alpha - e^T \\alpha
    \\quad \\text{s.t.} \\quad y^T \\alpha = 0, \\; 0 \\le \\alpha_i \\le C_i,

where ``Q_ij = y_i y_j k(x_i, x_j)``.  The per-sample upper bounds ``C_i``
are the single LIBSVM modification the coupled SVM needs: labelled samples
use ``C`` and transductive (unlabeled) samples use ``rho * C`` (Eq. 1–3 of
the paper).

The implementation follows LIBSVM:

* **second-order working-set selection (WSS2)** — ``i`` is the maximal
  violator in the "up" set; ``j`` maximises the guaranteed objective
  decrease ``b_ij^2 / a_ij`` among the "low" candidates — which typically
  needs far fewer pair updates than the classic maximal-violating-pair rule
  (~1.4–1.8× fewer in aggregate on this repo's workloads).  On degenerate
  duals — rank-deficient Gram with large ``C`` — any pair-update scheme can
  zigzag towards the ``max_iter`` cap; :class:`repro.svm.svc.SVC` raises a
  ``RuntimeWarning`` when a fit ends unconverged;
* the analytic two-variable update with clipping to the per-sample box,
  incremental gradient maintenance, and the free-support-vector rule for
  recovering the bias;
* **warm starts** — :meth:`SMOSolver.solve` accepts ``initial_alphas`` from a
  previous (similar) problem; the starting point is projected back onto the
  feasible set (box + equality constraint) and the initial gradient is
  recovered in a single matmul ``Q alpha - e`` instead of assuming
  ``alpha = 0``.  This is the workhorse of the coupled SVM's Alternating
  Optimization, where consecutive solves differ only by a few flipped
  pseudo-labels and a doubled ``rho*``;
* an optional **shrinking heuristic** — samples pinned at a bound that
  clearly satisfy their KKT condition are removed from the working set, and
  the gradient is only maintained on the active set; the full gradient is
  reconstructed and the stopping criterion re-checked over *all* samples
  before convergence is declared, so shrinking never changes the solution.

``solve`` also accepts a precomputed ``q_matrix`` (``K * y y^T``) so callers
that cache Gram matrices across solves (see
:class:`repro.svm.gram_cache.GramCache`) can skip the ``O(N^2)`` rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.exceptions import SolverError, ValidationError
from repro.obs import get_hub
from repro.utils.validation import check_array, check_consistent_length, check_labels

__all__ = ["SMOResult", "SMOSolver"]

#: Lower bound on the curvature of the two-variable sub-problem, mirroring
#: LIBSVM's TAU; keeps updates finite when the kernel is (numerically)
#: singular along the selected direction.
_TAU = 1e-12

#: Slack used when classifying multipliers as "at a bound".
_BOUND_EPS = 1e-12


@dataclass
class SMOResult:
    """Solution of the dual problem.

    Attributes
    ----------
    alphas:
        Optimal Lagrange multipliers, one per training sample.
    bias:
        Intercept ``b`` of the decision function.
    iterations:
        Number of SMO pair updates performed.
    converged:
        Whether the KKT stopping criterion was met before ``max_iter``.
    objective:
        Final value of the dual objective ``1/2 a'Qa - e'a`` (lower is better).
    gradient:
        Final gradient ``Q alpha - e`` of the dual objective; callers can
        reuse it for diagnostics or to warm-start a subsequent solve.
    """

    alphas: np.ndarray
    bias: float
    iterations: int
    converged: bool
    objective: float
    gradient: Optional[np.ndarray] = None


class SMOSolver:
    """SMO solver with per-sample box constraints.

    Parameters
    ----------
    tolerance:
        KKT violation tolerance used as the stopping criterion.
    max_iter:
        Hard cap on the number of pair updates.
    shrinking:
        Enable the LIBSVM-style shrinking heuristic.  Bound samples whose
        KKT condition is satisfied with margin are dropped from the working
        set between periodic checks; the solution is unaffected because the
        full gradient is reconstructed and the stopping criterion re-checked
        on all samples before convergence is declared.
    """

    def __init__(
        self,
        *,
        tolerance: float = 1e-3,
        max_iter: int = 20000,
        shrinking: bool = False,
    ) -> None:
        if tolerance <= 0:
            raise ValidationError(f"tolerance must be positive, got {tolerance}")
        if max_iter < 1:
            raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
        self.tolerance = float(tolerance)
        self.max_iter = int(max_iter)
        self.shrinking = bool(shrinking)

    # ------------------------------------------------------------------ API
    def solve(
        self,
        gram: Optional[np.ndarray],
        labels: np.ndarray,
        upper_bounds: np.ndarray,
        *,
        initial_alphas: Optional[np.ndarray] = None,
        q_matrix: Optional[np.ndarray] = None,
    ) -> SMOResult:
        """Solve the dual given a precomputed Gram matrix.

        Parameters
        ----------
        gram:
            ``(N, N)`` kernel matrix ``k(x_i, x_j)``.  May be ``None`` when
            ``q_matrix`` is supplied.
        labels:
            ``(N,)`` vector of ±1 labels.
        upper_bounds:
            ``(N,)`` vector of per-sample upper bounds ``C_i`` (all positive).
        initial_alphas:
            Optional warm-start point from a previous solve.  It is clipped
            to the box ``[0, C_i]`` and projected back onto the equality
            constraint ``y' alpha = 0``; the initial gradient is computed as
            ``Q alpha - e`` in one matmul.
        q_matrix:
            Optional precomputed ``K * y y^T`` matching *labels*.  The solver
            only reads from it (never writes), so callers may hand out a
            cached matrix.  When omitted it is built from *gram*.
        """
        hub = get_hub()
        if not hub.enabled:
            return self._solve(
                gram, labels, upper_bounds, initial_alphas=initial_alphas, q_matrix=q_matrix
            )
        with hub.span(
            "solver.smo.solve",
            samples=int(np.asarray(labels).size),
            warm_start=initial_alphas is not None,
        ) as span:
            result = self._solve(
                gram, labels, upper_bounds, initial_alphas=initial_alphas, q_matrix=q_matrix
            )
            span.set(
                iterations=result.iterations,
                converged=result.converged,
                objective=result.objective,
            )
        hub.count("solver.smo.solves")
        hub.count("solver.smo.iterations", result.iterations)
        if not result.converged:
            hub.count("solver.smo.unconverged")
        hub.observe("solver.smo.solve_seconds", span.duration)
        return result

    def _solve(
        self,
        gram: Optional[np.ndarray],
        labels: np.ndarray,
        upper_bounds: np.ndarray,
        *,
        initial_alphas: Optional[np.ndarray] = None,
        q_matrix: Optional[np.ndarray] = None,
    ) -> SMOResult:
        """The uninstrumented solve (see :meth:`solve` for the contract)."""
        y = check_labels(labels)
        c = np.asarray(upper_bounds, dtype=np.float64).ravel()
        if q_matrix is not None:
            q = np.asarray(q_matrix, dtype=np.float64)
            if q.ndim != 2 or q.shape[0] != q.shape[1]:
                raise ValidationError(f"q_matrix must be square, got shape {q.shape}")
            check_consistent_length(q, y, c, names=("q_matrix", "labels", "upper_bounds"))
        else:
            kernel_matrix = check_array(gram, name="gram", ndim=2)
            check_consistent_length(
                kernel_matrix, y, c, names=("gram", "labels", "upper_bounds")
            )
            if kernel_matrix.shape[0] != kernel_matrix.shape[1]:
                raise ValidationError(
                    f"gram must be square, got shape {kernel_matrix.shape}"
                )
            q = kernel_matrix * np.outer(y, y)
        if np.any(c <= 0):
            raise ValidationError("all upper bounds must be strictly positive")
        if np.unique(y).size < 2:
            raise SolverError(
                "SMO requires at least one sample of each class (+1 and -1)"
            )

        n = y.shape[0]
        q_diag = np.diag(q).copy()

        if initial_alphas is None:
            alphas = np.zeros(n)
            gradient = -np.ones(n)  # gradient of 1/2 a'Qa - e'a at alpha = 0
        else:
            start = np.asarray(initial_alphas, dtype=np.float64).ravel()
            if start.shape[0] != n:
                raise ValidationError(
                    f"initial_alphas ({start.shape[0]}) must align with labels ({n})"
                )
            alphas = self._project_feasible(start, y, c)
            gradient = q @ alphas - 1.0

        # Fixed for the whole solve: the class masks and the "below the upper
        # bound" threshold every working-set selection compares against.
        positive = y > 0
        negative = y < 0
        upper = c - _BOUND_EPS
        # The working set as a boolean mask; ``None`` (always, unless
        # shrinking has dropped something) means every sample is in it.
        active: Optional[np.ndarray] = None
        shrink_interval = min(1000, max(n, 32))
        next_shrink = shrink_interval

        iterations = 0
        converged = False
        while iterations < self.max_iter:
            selection = self._select_working_set(
                y, positive, negative, alphas, upper, gradient, q, q_diag, active
            )
            if selection is None:
                if active is None:
                    converged = True
                    break
                # The shrunk problem is solved: reconstruct the full gradient
                # and re-check optimality over every sample before stopping.
                gradient = q @ alphas - 1.0
                active = None
                selection = self._select_working_set(
                    y, positive, negative, alphas, upper, gradient, q, q_diag, active
                )
                if selection is None:
                    converged = True
                    break
            i, j = selection
            self._update_pair(i, j, y, alphas, c, gradient, q, q_diag, active)
            iterations += 1
            if self.shrinking and iterations >= next_shrink:
                active = self._shrink(
                    y, positive, negative, alphas, upper, gradient, active
                )
                next_shrink += shrink_interval

        if active is not None:
            # max_iter hit while shrunk: the inactive gradient entries are
            # stale, so rebuild before recovering the bias and objective.
            gradient = q @ alphas - 1.0

        bias = self._compute_bias(y, alphas, c, gradient)
        # With gradient = Q a - e the objective is 1/2 a'(gradient - e),
        # avoiding a second O(N^2) matmul.
        objective = float(0.5 * (alphas @ gradient - alphas.sum()))
        return SMOResult(
            alphas=alphas,
            bias=bias,
            iterations=iterations,
            converged=converged,
            objective=objective,
            gradient=gradient,
        )

    # --------------------------------------------------------------- details
    @staticmethod
    def _candidate_sets(
        positive: np.ndarray,
        negative: np.ndarray,
        alphas: np.ndarray,
        upper: np.ndarray,
        active: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The "up"/"low" candidate sets of the KKT violation certificate.

        *positive* / *negative* are the class masks ``y > 0`` / ``y < 0``
        and *upper* is ``c - _BOUND_EPS`` — constants of a solve, computed
        once by :meth:`_solve`; *active* restricts both sets to the shrunk
        working set (``None`` = every sample).
        """
        below = alphas < upper
        above = alphas > _BOUND_EPS
        in_up = (positive & below) | (negative & above)
        in_low = (positive & above) | (negative & below)
        if active is not None:
            in_up &= active
            in_low &= active
        return in_up, in_low

    @staticmethod
    def _project_feasible(alphas: np.ndarray, y: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Project a warm-start point onto ``{0 <= a <= C, y'a = 0}``.

        Clips to the box, then removes the equality residual by spreading it
        over the samples that still have room to move in the required
        direction (proportionally to that room).  Falls back to a cold start
        in the degenerate case where the residual exceeds the available room.
        """
        projected = np.clip(alphas, 0.0, c)
        residual = float(y @ projected)
        if abs(residual) <= 1e-12:
            return projected
        # Moving alpha_i by delta changes y'a by y_i * delta, so the useful
        # direction for sample i is sign(-residual * y_i).
        move_up = (y * residual) < 0
        room = np.where(move_up, c - projected, projected)
        total_room = float(room.sum())
        if total_room < abs(residual):
            return np.zeros_like(projected)
        scale = abs(residual) / total_room
        projected += np.where(move_up, room * scale, -room * scale)
        return np.clip(projected, 0.0, c)

    def _select_working_set(
        self,
        y: np.ndarray,
        positive: np.ndarray,
        negative: np.ndarray,
        alphas: np.ndarray,
        upper: np.ndarray,
        gradient: np.ndarray,
        q_matrix: np.ndarray,
        q_diag: np.ndarray,
        active: Optional[np.ndarray],
    ) -> Optional[Tuple[int, int]]:
        """LIBSVM WSS2 selection on the active set; ``None`` signals optimality.

        ``i`` is the maximal violator among the "up" candidates; ``j``
        maximises the guaranteed decrease ``b^2 / a`` of the two-variable
        sub-problem among the "low" candidates, where ``b = G_max + y_t g_t``
        and ``a = Q_ii + Q_tt - 2 y_i y_t Q_it``.
        """
        minus_y_grad = -y * gradient

        in_up, in_low = self._candidate_sets(positive, negative, alphas, upper, active)
        if not in_up.any() or not in_low.any():
            return None

        up_scores = np.where(in_up, minus_y_grad, -np.inf)
        i = int(np.argmax(up_scores))
        g_max = up_scores[i]
        low_scores = np.where(in_low, minus_y_grad, np.inf)
        g_min = float(low_scores.min())

        if g_max - g_min < self.tolerance:
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

    def _shrink(
        self,
        y: np.ndarray,
        positive: np.ndarray,
        negative: np.ndarray,
        alphas: np.ndarray,
        upper: np.ndarray,
        gradient: np.ndarray,
        active: Optional[np.ndarray],
    ) -> Optional[np.ndarray]:
        """Deactivate bound samples whose KKT condition holds with margin.

        A sample pinned at a bound belongs to only one of the up/low sets; it
        cannot participate in a violating pair when its score is more than
        ``tolerance`` inside the current ``[G_min, G_max]`` certificate, so it
        is dropped from the working set.  Convergence is still verified on
        the full set (see :meth:`solve`), keeping the heuristic exact.

        Returns the new working-set mask, ``None`` while it still holds
        every sample.
        """
        minus_y_grad = -y * gradient
        in_up, in_low = self._candidate_sets(positive, negative, alphas, upper, active)
        if not in_up.any() or not in_low.any():
            return active
        g_max = float(minus_y_grad[in_up].max())
        g_min = float(minus_y_grad[in_low].min())
        shrinkable = (in_up & ~in_low & (minus_y_grad < g_min + self.tolerance)) | (
            in_low & ~in_up & (minus_y_grad > g_max - self.tolerance)
        )
        if not shrinkable.any():
            return active
        return ~shrinkable if active is None else active & ~shrinkable

    @staticmethod
    def _update_pair(
        i: int,
        j: int,
        y: np.ndarray,
        alphas: np.ndarray,
        c: np.ndarray,
        gradient: np.ndarray,
        q_matrix: np.ndarray,
        q_diag: np.ndarray,
        active: Optional[np.ndarray],
    ) -> None:
        """Analytic two-variable update with clipping to the per-sample box."""
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
        if active is None:
            gradient += q_matrix[i] * delta_i + q_matrix[j] * delta_j
        else:
            # Only the active entries are kept fresh while shrunk; the rest
            # are reconstructed in one matmul before convergence is declared.
            gradient[active] += (
                q_matrix[i, active] * delta_i + q_matrix[j, active] * delta_j
            )

    @staticmethod
    def _compute_bias(
        y: np.ndarray,
        alphas: np.ndarray,
        c: np.ndarray,
        gradient: np.ndarray,
    ) -> float:
        """Recover the intercept from the KKT conditions.

        Free support vectors (``0 < alpha_i < C_i``) satisfy
        ``y_i f(x_i) = 1``, so ``b = y_i - sum_j alpha_j y_j k(x_j, x_i)``,
        which equals ``-y_i * gradient_i`` given how the gradient is defined.
        When no free support vector exists the midpoint of the feasible
        interval is used, mirroring LIBSVM.
        """
        y_grad = y * gradient
        free = (alphas > 1e-12) & (alphas < c - 1e-12)
        if free.any():
            return float(-y_grad[free].mean())

        upper = np.inf
        lower = -np.inf
        at_upper = alphas >= c - 1e-12
        at_lower = alphas <= 1e-12
        # KKT conditions at the bounds constrain the bias from above
        # (alpha = C with y = +1, or alpha = 0 with y = -1) and from below
        # (alpha = 0 with y = +1, or alpha = C with y = -1).
        upper_candidates = np.concatenate(
            [-y_grad[at_upper & (y > 0)], -y_grad[at_lower & (y < 0)]]
        )
        lower_candidates = np.concatenate(
            [-y_grad[at_lower & (y > 0)], -y_grad[at_upper & (y < 0)]]
        )
        if upper_candidates.size:
            upper = float(upper_candidates.min())
        if lower_candidates.size:
            lower = float(lower_candidates.max())
        if np.isfinite(upper) and np.isfinite(lower):
            return 0.5 * (upper + lower)
        if np.isfinite(upper):
            return upper
        if np.isfinite(lower):
            return lower
        return 0.0
