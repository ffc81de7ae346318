"""The coupled support vector machine (Section 4 of the paper).

The coupled SVM learns two max-margin models — one per information modality
— that must agree on the labels of a shared pool of unlabeled samples:

.. math::

    \\min \\; \\tfrac12\\|w\\|^2 + \\tfrac12\\|u\\|^2
        + C_w \\sum_i \\xi_i + C_u \\sum_i \\eta_i
        + \\rho C_w \\sum_j \\xi'_j + \\rho C_u \\sum_j \\eta'_j

subject to the usual margin constraints on the labelled samples (with slacks
``ξ, η``) and on the unlabeled samples with shared pseudo-labels ``Y'`` (with
slacks ``ξ', η'``).  The optimisation follows the paper's Alternating
Optimization strategy:

1. fix ``Y'`` and train the two SVMs independently (a regular SVM dual with
   per-sample upper bounds ``C`` / ``ρ* C``);
2. fix the SVMs and update ``Y'`` with the Δ-bounded label-switching rule;
3. anneal only while labels move: starting from a tiny ``ρ*`` so the
   unlabeled data cannot dominate early, as in transductive SVMs, a stage
   that flipped a label doubles ``ρ* ← min(2 ρ*, ρ)``, and a flip-free
   stage jumps straight to ``ρ``.  The last stage, at ``ρ``, still
   switches labels to a fixpoint.

Step 3 departs from Figure 1, which doubles ``ρ*`` through every stage
(``1e-4`` to ``0.02`` is 9 stages, about 19 dual solves).  On the
repository's probes labels almost never move after stage 0, so the
doubling stages re-solved an unchanged labelling; skipping them cuts a fit
to 4–7 solves.  ``PAPER.md`` records the measured quality interval.

**Warm-started training pipeline.**  The training rows never change within
one :meth:`CoupledSVM.fit` — only the pseudo-labels and the unlabeled bound
``ρ* C`` do — so the loop is built on three reuse mechanisms:

* each modality's Gram matrix is computed exactly once per fit by a
  :class:`~repro.svm.gram_cache.GramCache` and every SMO solve runs against
  it (the Q-matrix is updated by sign flips when pseudo-labels change);
* the two α vectors are carried across ρ* stages and label-switching passes
  and warm-start the next solve (``initial_alphas`` of
  :meth:`~repro.svm.smo.SMOSolver.solve`), so consecutive solves — which
  differ only by a few flipped labels or a raised ρ* — converge in a
  handful of pair updates instead of from scratch.  Across an annealing
  step (a doubling, or the jump to ρ) the warm start is additionally
  *seeded*: unlabeled multipliers pinned at the old bound ``ρ* C`` are
  promoted to the new bound along exactly feasible directions (±1 pinned
  pairs move up together; unmatched ones borrow from same-sign labelled
  multipliers), which removes the bound-chasing iterations that otherwise
  dominate each stage;
* decision values on the unlabeled pool come from the cached cross-Gram
  rows, so label switching performs no kernel evaluations at all.

The per-solve SMO iteration counts and per-modality Gram/kernel counters are
recorded in :class:`CoupledSVMResult`, making the saving observable (the
counts are checked in ``tests/test_paper_fidelity.py``).  Setting
``warm_start=False`` in the config restores cold starts for comparison; the
fitted models agree within solver tolerance either way.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from repro.core.label_switching import coupled_hinge_objective, switch_labels
from repro.exceptions import ConfigurationError, SolverError, ValidationError
from repro.svm.gram_cache import GramCache
from repro.svm.kernels import RBFKernel, build_kernel
from repro.svm.model import PoolColumns
from repro.svm.smo import SMOResult, SMOSolver
from repro.svm.svc import SVC

__all__ = ["CoupledSVMConfig", "CoupledSVMResult", "CoupledSVM"]


@dataclass(frozen=True)
class CoupledSVMConfig:
    """Hyper-parameters of the coupled SVM (Eq. 1 of the paper).

    Attributes
    ----------
    C_visual:
        Soft-margin weight ``C_w`` of the visual-modality SVM.
    C_log:
        Soft-margin weight ``C_u`` of the log-modality SVM.  The default is
        much smaller than ``C_visual`` because the sparse ternary log vectors
        need a wide margin to generalise across correlated log sessions.
    rho:
        Final regularisation weight ρ of the unlabeled samples.  The paper
        leaves the threshold open ("whether existing an optimal parameter for
        the scheme is still an open question"); the default was chosen by the
        ρ ablation (``tests/test_paper_fidelity.py``) — small values keep
        the noisy pseudo-labels from dominating the labelled feedback.
    rho_start:
        Initial value ρ* of the annealing schedule (``1e-4`` in Figure 1).
        Each stage that flips a label doubles ρ* (capped at ``rho``); the
        first flip-free stage jumps to ``rho``, so a fit whose stage 0
        flips nothing visits exactly ``[rho_start, rho]``.
    delta:
        Error-control threshold Δ of the label-switching rule.
    kernel:
        Kernel of the visual modality: ``"rbf"`` (the paper's), ``"linear"``
        or a :class:`~repro.svm.kernels.Kernel` instance.
    log_kernel:
        Kernel of the log modality, from the same choices.  Defaults to
        ``"linear"``, matching the primal formulation of Section 4 where the
        log modality scores images by ``u^T r`` (one learned weight per log
        session).
    gamma:
        RBF bandwidth: ``"scale"`` or a positive finite number (see
        :class:`~repro.svm.kernels.RBFKernel`).
    max_label_iterations:
        Safety cap on label-switching passes per ρ* stage (the integer
        programme can in principle oscillate on noisy data).
    tolerance, max_iter:
        KKT tolerance and pair-update cap of the underlying SMO solver.
    warm_start:
        Carry each modality's α vector across solves (see module docstring).
        ``False`` restores cold starts — useful only for benchmarking.

    ``C_visual``, ``C_log``, ``rho``, ``rho_start`` and ``tolerance`` must
    be positive and finite, ``delta`` non-negative (``inf`` never flips a
    label), ``gamma`` as above and ``kernel`` / ``log_kernel`` one of the
    choices above; anything else, NaN included, raises
    :class:`~repro.exceptions.ConfigurationError` at construction, not at
    the first fit.
    """

    C_visual: float = 10.0
    C_log: float = 0.5
    rho: float = 0.02
    rho_start: float = 1e-4
    delta: float = 1.0
    kernel: str = "rbf"
    log_kernel: str = "linear"
    gamma: Union[float, str] = "scale"
    max_label_iterations: int = 10
    tolerance: float = 1e-3
    max_iter: int = 20000
    warm_start: bool = True

    def __post_init__(self) -> None:
        checks = (("gamma", RBFKernel), ("kernel", build_kernel), ("log_kernel", build_kernel))
        for name, check in checks:
            try:
                check(getattr(self, name))
            except ValidationError as error:
                raise ConfigurationError(f"CoupledSVMConfig.{name}: {error}") from None
        if not (0 < self.C_visual < math.inf and 0 < self.C_log < math.inf):
            raise ConfigurationError(
                "C_visual and C_log must be positive and finite, got "
                f"C_visual={self.C_visual}, C_log={self.C_log}"
            )
        if not 0 < self.rho_start <= self.rho < math.inf:
            raise ConfigurationError(
                "need 0 < rho_start <= rho < inf, got "
                f"rho_start={self.rho_start}, rho={self.rho}"
            )
        if not self.delta >= 0:
            raise ConfigurationError(f"delta must be non-negative, got {self.delta}")
        if self.max_label_iterations < 1:
            raise ConfigurationError("max_label_iterations must be >= 1")
        if not 0 < self.tolerance < math.inf:
            raise ConfigurationError(
                f"tolerance must be positive and finite, got {self.tolerance}"
            )
        if self.max_iter < 1:
            raise ConfigurationError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class CoupledSVMResult:
    """Diagnostics of one coupled-SVM fit.

    Attributes
    ----------
    pseudo_labels:
        Final pseudo-labels of the unlabeled samples.
    rho_schedule:
        The sequence of ρ* values visited by the annealing loop: doubling
        from ``rho_start`` while stages flip labels, then ``rho``.
    label_flips:
        Number of pseudo-labels flipped at each label-switching pass (a
        stage usually ends with a pass that flips nothing, so this list is
        not aligned with ``rho_schedule``; ``stage_flips`` is).
    stage_flips:
        Pseudo-labels flipped in each ρ* stage, one entry per
        ``rho_schedule`` entry; ``sum(stage_flips) == total_flips``.  A
        zero entry before the last is the flip-free stage the schedule
        jumped from.
    objective_trace:
        Coupled hinge objective on the unlabeled pool after each pass.
    solver_iterations:
        SMO pair updates of every dual solve, in execution order (the two
        modalities alternate).  Warm starts shrink every entry after the
        first pair; ``total_solver_iterations`` is the headline number.
    visual_gram_computations, log_gram_computations:
        Full training-Gram computations per modality (1 each with the
        caching pipeline).
    kernel_evaluations:
        Kernel-matrix entries evaluated during :meth:`CoupledSVM.fit`.
    """

    pseudo_labels: np.ndarray
    rho_schedule: List[float] = field(default_factory=list)
    label_flips: List[int] = field(default_factory=list)
    stage_flips: List[int] = field(default_factory=list)
    objective_trace: List[float] = field(default_factory=list)
    solver_iterations: List[int] = field(default_factory=list)
    visual_gram_computations: int = 0
    log_gram_computations: int = 0
    kernel_evaluations: int = 0

    @property
    def total_flips(self) -> int:
        """Total number of pseudo-label flips across the whole optimisation."""
        return int(sum(self.label_flips))

    @property
    def total_solver_iterations(self) -> int:
        """Total SMO pair updates across all dual solves of the fit."""
        return int(sum(self.solver_iterations))


class CoupledSVM:
    """Joint learner over visual features and user-log vectors.

    Usage: :meth:`fit` with the labelled samples of both modalities plus the
    selected unlabeled samples and their initial pseudo-labels, then
    :meth:`decision_function` with both modalities of the images to rank.
    """

    def __init__(self, config: Optional[CoupledSVMConfig] = None) -> None:
        self.config = config if config is not None else CoupledSVMConfig()
        self.visual_svm_: Optional[SVC] = None
        self.log_svm_: Optional[SVC] = None
        self.result_: Optional[CoupledSVMResult] = None

    # ------------------------------------------------------------------ API
    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has produced the two modality models."""
        return self.visual_svm_ is not None and self.log_svm_ is not None

    def fit(
        self,
        visual_labeled: np.ndarray,
        log_labeled: np.ndarray,
        labels: np.ndarray,
        visual_unlabeled: np.ndarray,
        log_unlabeled: np.ndarray,
        initial_pseudo_labels: np.ndarray,
    ) -> "CoupledSVM":
        """Run the Alternating Optimization of Eq. 1.

        Parameters
        ----------
        visual_labeled, log_labeled:
            Feature matrices of the ``N_l`` labelled samples in the visual
            and log modalities.
        labels:
            ±1 user judgements of the labelled samples.
        visual_unlabeled, log_unlabeled:
            Feature matrices of the ``N'`` unlabeled samples.
        initial_pseudo_labels:
            Initial ±1 pseudo-labels ``Y'`` of the unlabeled samples.
        """
        cfg = self.config
        x_l = np.atleast_2d(np.asarray(visual_labeled, dtype=np.float64))
        r_l = np.atleast_2d(np.asarray(log_labeled, dtype=np.float64))
        y_l = np.asarray(labels, dtype=np.float64).ravel()
        x_u = np.atleast_2d(np.asarray(visual_unlabeled, dtype=np.float64))
        r_u = np.atleast_2d(np.asarray(log_unlabeled, dtype=np.float64))
        y_u = np.asarray(initial_pseudo_labels, dtype=np.float64).ravel().copy()

        self._validate_inputs(x_l, r_l, y_l, x_u, r_u, y_u)

        # One Gram per modality for the whole fit; every solve below reuses it.
        visual_cache = GramCache(
            build_kernel(cfg.kernel, gamma=cfg.gamma), x_l, x_u
        )
        log_cache = GramCache(
            build_kernel(cfg.log_kernel, gamma=cfg.gamma), r_l, r_u
        )
        solver = SMOSolver(tolerance=cfg.tolerance, max_iter=cfg.max_iter)

        result = CoupledSVMResult(pseudo_labels=y_u)
        num_labeled = y_l.shape[0]
        y_all = np.concatenate([y_l, y_u])
        rho_star = cfg.rho_start
        solved_rho: Optional[float] = None
        visual_state: Optional[SMOResult] = None
        log_state: Optional[SMOResult] = None

        def solve_pair() -> None:
            nonlocal visual_state, log_state, solved_rho
            visual_state = self._solve_modality(
                solver, visual_cache, y_all, cfg.C_visual, rho_star,
                visual_state, solved_rho, result,
            )
            log_state = self._solve_modality(
                solver, log_cache, y_all, cfg.C_log, rho_star,
                log_state, solved_rho, result,
            )
            solved_rho = rho_star

        while True:
            result.rho_schedule.append(rho_star)
            solve_pair()
            stage_flips = 0

            # Inner label-switching loop (the Δ-bounded integer step).  A flip
            # is accepted only when it lowers the coupled hinge objective the
            # integer programme of Section 4.2 minimises; this keeps the
            # heuristic Δ-rule of Figure 1 from oscillating on degenerate
            # feedback (e.g. a single negative judgement).
            for _ in range(cfg.max_label_iterations):
                visual_decisions = visual_cache.unlabeled_decision_values(
                    visual_state.alphas, y_all, visual_state.bias
                )
                log_decisions = log_cache.unlabeled_decision_values(
                    log_state.alphas, y_all, log_state.bias
                )
                objective_before = coupled_hinge_objective(
                    visual_decisions, log_decisions, y_u,
                    c_visual=cfg.C_visual, c_log=cfg.C_log,
                )
                new_labels, flipped = switch_labels(
                    y_u, visual_decisions, log_decisions, delta=cfg.delta
                )
                objective_after = coupled_hinge_objective(
                    visual_decisions, log_decisions, new_labels,
                    c_visual=cfg.C_visual, c_log=cfg.C_log,
                )
                improved = objective_after < objective_before - 1e-12
                if not flipped.any() or not improved:
                    result.label_flips.append(0)
                    result.objective_trace.append(objective_before)
                    break
                result.label_flips.append(int(flipped.sum()))
                result.objective_trace.append(objective_after)
                stage_flips += int(flipped.sum())
                y_u = new_labels
                y_all[num_labeled:] = y_u
                solve_pair()

            result.stage_flips.append(stage_flips)
            if rho_star >= cfg.rho:
                break
            # Anneal only while labels move: a flip-free stage jumps to ρ.
            rho_star = min(2.0 * rho_star, cfg.rho) if stage_flips else cfg.rho

        # Each modality's model is its last solve, taken as it stands.
        self.visual_svm_ = self._package_model(
            visual_cache, y_all, cfg.C_visual, visual_state
        )
        self.log_svm_ = self._package_model(log_cache, y_all, cfg.C_log, log_state)

        result.pseudo_labels = y_u
        result.visual_gram_computations = visual_cache.gram_computations
        result.log_gram_computations = log_cache.gram_computations
        result.kernel_evaluations = (
            visual_cache.kernel_evaluations + log_cache.kernel_evaluations
        )
        self.result_ = result
        return self

    def decision_function(
        self,
        visual_features: np.ndarray,
        log_vectors,
        *,
        visual_sq_norms: Optional[np.ndarray] = None,
        visual_columns: Optional[PoolColumns] = None,
    ) -> np.ndarray:
        """Coupled relevance score ``f_w(x) + f_u(r)`` for each image.

        *log_vectors* holds one row per image, aligned with
        *visual_features*; it may be scipy-sparse (the pool's
        :meth:`~repro.logdb.relevance_matrix.LogSnapshot.log_rows`).  With the
        default linear log kernel the log SVM scores it by its primal weight
        ``u . r``, one ``O(nnz)`` mat-vec.
        *visual_sq_norms* optionally carries the squared row norms of
        *visual_features* (see :meth:`SVC.decision_function
        <repro.svm.svc.SVC.decision_function>`).  *visual_columns* holds
        ``K(visual_features, visual_labeled)`` from an earlier pass over the
        same pool (a :class:`~repro.svm.model.PoolColumns` built on the
        labelled rows given to :meth:`fit`); the visual SVM then evaluates
        its kernel only on the unlabeled support vectors.
        """
        visual_scores, log_scores = self.modality_decisions(
            visual_features,
            log_vectors,
            visual_sq_norms=visual_sq_norms,
            visual_columns=visual_columns,
        )
        return visual_scores + log_scores

    def modality_decisions(
        self,
        visual_features: np.ndarray,
        log_vectors,
        *,
        visual_sq_norms: Optional[np.ndarray] = None,
        visual_columns: Optional[PoolColumns] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-modality decision values ``(f_w(x), f_u(r))``.

        Arguments as in :meth:`decision_function`.
        """
        self._check_fitted()
        return (
            self.visual_svm_.decision_function(
                visual_features, squared_norms=visual_sq_norms, columns=visual_columns
            ),
            self.log_svm_.decision_function(log_vectors),
        )

    # ------------------------------------------------------------- internals
    def _solve_modality(
        self,
        solver: SMOSolver,
        cache: GramCache,
        y_all: np.ndarray,
        c_value: float,
        rho_star: float,
        previous: Optional[SMOResult],
        previous_rho: Optional[float],
        result: CoupledSVMResult,
    ) -> SMOResult:
        """One dual solve against the cached Gram, warm-started when enabled."""
        bounds = np.concatenate(
            [
                np.full(cache.num_labeled, c_value),
                np.full(cache.num_unlabeled, rho_star * c_value),
            ]
        )
        initial = None
        if self.config.warm_start and previous is not None:
            initial = previous.alphas
            if previous_rho is not None and previous_rho != rho_star:
                initial = self._seed_annealed_alphas(
                    previous.alphas,
                    y_all,
                    cache.num_labeled,
                    old_bound=previous_rho * c_value,
                    new_bound=rho_star * c_value,
                )
        state = solver.solve(
            cache.gram,
            y_all,
            bounds,
            initial_alphas=initial,
            q_matrix=cache.q_matrix(y_all),
        )
        if not state.converged:
            warnings.warn(
                f"coupled-SVM dual solve hit max_iter={self.config.max_iter} "
                f"before reaching tolerance {self.config.tolerance}; pseudo-label "
                "switching may act on inaccurate multipliers",
                RuntimeWarning,
                stacklevel=2,
            )
        result.solver_iterations.append(state.iterations)
        return state

    @staticmethod
    def _seed_annealed_alphas(
        alphas: np.ndarray,
        y_all: np.ndarray,
        num_labeled: int,
        *,
        old_bound: float,
        new_bound: float,
    ) -> np.ndarray:
        """Warm-start seed for the solve right after a ρ* annealing step.

        Unlabeled multipliers pinned at the old bound ``ρ* C`` almost always
        end up pinned at the raised bound (doubled, or ``ρ C`` after the
        jump) too, but a plain warm start makes
        the solver chase each of them there one pair update at a time.  This
        seed promotes them up front along *exactly feasible* directions, so
        ``y' α = 0`` is preserved and no projection noise is introduced:

        * pinned +1/−1 unlabeled samples are paired and both raised to the
          new bound (the SMO "up-up" direction for opposite labels);
        * unmatched pinned samples borrow the difference from same-sign
          labelled multipliers, spread proportionally to their size (the
          same-sign transfer direction), and are skipped when the labelled
          side lacks the room.

        The solver then only needs a short polishing phase instead of a full
        bound-chasing pass per stage.
        """
        seeded = alphas.copy()
        if new_bound <= old_bound:
            return seeded
        unlabeled = seeded[num_labeled:]
        labeled = seeded[:num_labeled]
        y_u = y_all[num_labeled:]
        y_l = y_all[:num_labeled]
        pinned = unlabeled >= old_bound * (1.0 - 1e-9)
        positive = np.flatnonzero(pinned & (y_u > 0))
        negative = np.flatnonzero(pinned & (y_u < 0))
        matched = min(positive.size, negative.size)
        unlabeled[positive[:matched]] = new_bound
        unlabeled[negative[:matched]] = new_bound
        for sign, remainder in ((1.0, positive[matched:]), (-1.0, negative[matched:])):
            if remainder.size == 0:
                continue
            demand = remainder.size * (new_bound - old_bound)
            donors = np.flatnonzero((y_l == sign) & (labeled > 0))
            room = labeled[donors]
            total_room = float(room.sum())
            if total_room < demand:
                continue
            unlabeled[remainder] = new_bound
            labeled[donors] -= demand * room / total_room
        return seeded

    def _package_model(
        self, cache: GramCache, y_all: np.ndarray, c_value: float, state: SMOResult
    ) -> SVC:
        """A modality's final solve as an SVC estimator, without re-solving."""
        svm = SVC(
            C=c_value,
            kernel=cache.kernel,
            tolerance=self.config.tolerance,
            max_iter=self.config.max_iter,
        )
        return svm.adopt(cache.features, y_all, state)

    @staticmethod
    def _validate_inputs(
        x_l: np.ndarray,
        r_l: np.ndarray,
        y_l: np.ndarray,
        x_u: np.ndarray,
        r_u: np.ndarray,
        y_u: np.ndarray,
    ) -> None:
        if x_l.shape[0] != y_l.shape[0] or r_l.shape[0] != y_l.shape[0]:
            raise ValidationError("labelled visual/log matrices must align with labels")
        if x_u.shape[0] != y_u.shape[0] or r_u.shape[0] != y_u.shape[0]:
            raise ValidationError(
                "unlabeled visual/log matrices must align with pseudo-labels"
            )
        if not np.all(np.isin(y_l, (-1.0, 1.0))):
            raise ValidationError("labels must be +1 or -1")
        if not np.all(np.isin(y_u, (-1.0, 1.0))):
            raise ValidationError("initial pseudo-labels must be +1 or -1")
        if np.unique(y_l).size < 2:
            raise SolverError(
                "the coupled SVM needs labelled samples of both classes; "
                "callers should fall back to a prototype ranking otherwise"
            )
        if x_u.shape[0] < 1:
            raise ValidationError("the coupled SVM needs at least one unlabeled sample")

    def _check_fitted(self) -> None:
        if not self.is_fitted:
            raise SolverError("CoupledSVM must be fitted before computing decisions")
