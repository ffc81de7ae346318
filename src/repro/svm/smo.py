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
  pseudo-labels or a raised ``rho*`` (doubled, or the jump to ``rho``).

On the problems this repo solves (n <= 80) a pair update costs numpy call
overhead, not flops, so the loop spends as few calls as it can without
changing one floating-point operation:

* the "up"/"low" candidate masks are refreshed at the two entries an update
  moves, not rebuilt;
* the WSS2 curvature row ``a_it = K_ii + K_tt - 2 K_it`` (floored at
  ``TAU``) is read from a table built once per solve, on its first
  iteration.  It is the same IEEE value as ``Q_ii + Q_tt - 2 y_i (y_t Q_it)``
  because every ±1 product and the factor 2 are exact;
* ``-y * gradient`` is written straight into two preallocated buffers that
  hold ``-inf`` / ``+inf`` outside the "up" / "low" set;
* the pair's scalars are read once as Python floats, the same IEEE doubles.

Each operation and its order is the one of the textbook form kept in
``tests/test_smo_same_bits.py``, which checks that every field of the result
is bit-identical.

``solve`` also accepts a precomputed ``q_matrix`` (``K * y y^T``) so callers
that cache Gram matrices across solves (see
:class:`repro.svm.gram_cache.GramCache`) can skip the ``O(N^2)`` rebuild.
"""

from __future__ import annotations

import math
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
        KKT violation tolerance used as the stopping criterion (positive
        and finite).
    max_iter:
        Hard cap on the number of pair updates.
    """

    def __init__(self, *, tolerance: float = 1e-3, max_iter: int = 20000) -> None:
        if not 0 < tolerance < math.inf:
            raise ValidationError(f"tolerance must be positive and finite, got {tolerance}")
        if max_iter < 1:
            raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
        self.tolerance = float(tolerance)
        self.max_iter = int(max_iter)

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
            ``(N,)`` vector of per-sample upper bounds ``C_i`` (all positive
            and finite).
        initial_alphas:
            Optional warm-start point from a previous solve.  It is clipped
            to the box ``[0, C_i]`` and projected back onto the equality
            constraint ``y' alpha = 0``; the initial gradient is computed as
            ``Q alpha - e`` in one matmul.
        q_matrix:
            Optional precomputed ``K * y y^T`` matching *labels*.  The solver
            only reads from it (never writes), so callers may hand out a
            cached matrix.  When omitted it is built from *gram*.

        Raises
        ------
        ValidationError
            For labels other than ±1, misaligned or non-square inputs, and
            NaN or infinite entries in *gram*, *q_matrix*, *upper_bounds* or
            *initial_alphas*.
        SolverError
            When *labels* lack one of the two classes.
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
        y = np.asarray(labels, dtype=np.float64).ravel()
        positive = y == 1.0
        num_positive = int(np.count_nonzero(positive))
        num_negative = int(np.count_nonzero(y == -1.0))
        if y.size == 0 or num_positive + num_negative != y.size:
            check_labels(y)  # raises, naming the offending values
        c = np.asarray(upper_bounds, dtype=np.float64).ravel()
        if q_matrix is not None:
            q = np.asarray(q_matrix, dtype=np.float64)
            if q.ndim != 2 or q.shape[0] != q.shape[1]:
                raise ValidationError(f"q_matrix must be square, got shape {q.shape}")
            check_consistent_length(q, y, c, names=("q_matrix", "labels", "upper_bounds"))
            if not np.isfinite(q).all():
                raise ValidationError("q_matrix contains NaN or infinite values")
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
        if not ((c > 0) & (c < np.inf)).all():
            raise ValidationError("all upper bounds must be finite and strictly positive")
        if not num_positive or not num_negative:
            raise SolverError(
                "SMO requires at least one sample of each class (+1 and -1)"
            )

        n = y.shape[0]
        if initial_alphas is None:
            alphas = np.zeros(n)
            gradient = -np.ones(n)  # gradient of 1/2 a'Qa - e'a at alpha = 0
        else:
            start = np.asarray(initial_alphas, dtype=np.float64).ravel()
            if start.shape[0] != n:
                raise ValidationError(
                    f"initial_alphas ({start.shape[0]}) must align with labels ({n})"
                )
            if not np.isfinite(start).all():
                raise ValidationError("initial_alphas contains NaN or infinite values")
            alphas = self._project_feasible(start, y, c)
            gradient = q @ alphas - 1.0

        iterations, converged = self._optimise(y, positive, c, q, alphas, gradient)
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
    def _optimise(
        self,
        y: np.ndarray,
        positive: np.ndarray,
        c: np.ndarray,
        q: np.ndarray,
        alphas: np.ndarray,
        gradient: np.ndarray,
    ) -> Tuple[int, bool]:
        """WSS2 pair updates, in place on *alphas* and *gradient*.

        Returns ``(iterations, converged)``.  Each iteration selects ``i`` as
        the maximal violator among the "up" candidates and ``j`` as the
        "low" candidate maximising the guaranteed decrease ``b^2 / a`` of
        the two-variable sub-problem (``b = G_max + y_t g_t``, ``a`` the
        curvature table's row ``i``), then applies the analytic update
        clipped to the per-sample box.
        """
        n = y.shape[0]
        upper = c - _BOUND_EPS
        below = alphas < upper
        above = alphas > _BOUND_EPS
        # Membership of the KKT certificate's two sets, kept up to date at
        # the two entries each update moves.
        in_up = np.where(positive, below, above)
        in_low = np.where(positive, above, below)
        num_up = int(np.count_nonzero(in_up))
        num_low = int(np.count_nonzero(in_low))
        # -y * gradient on each set; the sentinels outside it never win.
        up_scores = np.full(n, -np.inf)
        low_scores = np.full(n, np.inf)
        gains = np.empty(n)
        minus_y = -y
        tolerance = self.tolerance
        curvature = None  # built on the first iteration that needs it

        iterations = 0
        while iterations < self.max_iter:
            if not num_up or not num_low:
                return iterations, True
            np.multiply(minus_y, gradient, out=up_scores, where=in_up)
            np.multiply(minus_y, gradient, out=low_scores, where=in_low)
            i = int(up_scores.argmax())
            g_max = up_scores.item(i)
            g_min = low_scores.min()
            if g_max - g_min < tolerance:
                return iterations, True

            if curvature is None:
                diag = np.diag(q)
                curvature = (diag[:, None] + diag) - 2.0 * (q * np.outer(y, y))
                curvature = np.where(curvature > _TAU, curvature, _TAU)
                y_list, c_list, upper_list = y.tolist(), c.tolist(), upper.tolist()
                diag_list = diag.tolist()
            # "b" of the sub-problem is g_max - score; outside "low" the
            # score is +inf and the mask below drops it.
            np.subtract(g_max, low_scores, out=gains)
            np.multiply(gains, gains, out=gains)
            np.divide(gains, curvature[i], out=gains)
            j = int(np.where(low_scores < g_max, gains, -np.inf).argmax())

            # The analytic two-variable update, clipped to the box.
            a_i, a_j = alphas.item(i), alphas.item(j)
            g_i, g_j = gradient.item(i), gradient.item(j)
            c_i, c_j = c_list[i], c_list[j]
            if y_list[i] != y_list[j]:
                quad = max(diag_list[i] + diag_list[j] + 2.0 * q.item(i, j), _TAU)
                delta = (-g_i - g_j) / quad
                diff = a_i - a_j
                new_i, new_j = a_i + delta, a_j + delta
                if diff > 0:
                    if new_j < 0:
                        new_i, new_j = diff, 0.0
                elif new_i < 0:
                    new_i, new_j = 0.0, -diff
                if diff > c_i - c_j:
                    if new_i > c_i:
                        new_i, new_j = c_i, c_i - diff
                elif new_j > c_j:
                    new_i, new_j = c_j + diff, c_j
            else:
                quad = max(diag_list[i] + diag_list[j] - 2.0 * q.item(i, j), _TAU)
                delta = (g_i - g_j) / quad
                total = a_i + a_j
                new_i, new_j = a_i - delta, a_j + delta
                if total > c_i:
                    if new_i > c_i:
                        new_i, new_j = c_i, total - c_i
                elif new_j < 0:
                    new_i, new_j = total, 0.0
                if total > c_j:
                    if new_j > c_j:
                        new_i, new_j = total - c_j, c_j
                elif new_i < 0:
                    new_i, new_j = 0.0, total
            alphas[i] = new_i
            alphas[j] = new_j
            gradient += q[i] * (new_i - a_i) + q[j] * (new_j - a_j)
            iterations += 1

            for t, a_t in ((i, new_i), (j, new_j)):
                below_t = a_t < upper_list[t]
                above_t = a_t > _BOUND_EPS
                up_t, low_t = (below_t, above_t) if y_list[t] > 0 else (above_t, below_t)
                if up_t != in_up[t]:
                    in_up[t] = up_t
                    num_up += 1 if up_t else -1
                    if not up_t:
                        up_scores[t] = -np.inf
                if low_t != in_low[t]:
                    in_low[t] = low_t
                    num_low += 1 if low_t else -1
                    if not low_t:
                        low_scores[t] = np.inf
        return iterations, False

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
