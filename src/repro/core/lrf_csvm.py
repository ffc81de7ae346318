"""LRF-CSVM: log-based relevance feedback by coupled SVM (Figure 1).

The practical algorithm has three stages:

1. **Unlabeled-sample selection.**  Train one SVM per modality on the
   labelled images only, score every database image by the summed decision
   value, and hand the scores to an
   :class:`~repro.core.unlabeled_selection.UnlabeledSelectionStrategy`
   (the paper's choice takes the ``N'/2`` highest- and ``N'/2``
   lowest-scoring images, pseudo-labelled +1 and −1 respectively).
2. **Coupled-SVM training.**  Run the Alternating Optimization of
   :class:`~repro.core.coupled_svm.CoupledSVM` with ρ annealing and
   Δ-bounded label switching.
3. **Retrieval.**  Rank all images by the coupled decision value
   ``f_w(x_i) + f_u(r_i)``.

Stages 1 and 3 both score the whole pool, but each modality pays for one
pass.  The log SVMs are linear and score by their primal weight ``u . r``
(one ``O(nnz)`` mat-vec, no kernel call).  On a coupled round the
selection stage's visual SVM expands over *all* labelled rows (zero
coefficients for non-support vectors) and a
:class:`~repro.svm.model.PoolColumns` holds those ``K(pool, labelled)``
blocks until the round ends; the coupled visual SVM's training rows start
with the same labelled rows, so stage 3 evaluates the kernel only on its
unlabeled support vectors.  The held blocks cost ``N x N_l`` floats for
the round.  With a session :class:`~repro.feedback.base.FeedbackMemory`
both stages share one RBF bandwidth; without one, ``gamma="scale"`` is
resolved on different rows per stage and stage 3 recomputes the labelled
columns with its own kernel.

When the feedback log is empty or uninformative the algorithm degrades
gracefully to the visual-only behaviour, and when the user supplies only one
feedback class it falls back to a prototype ranking — both situations occur
in real CBIR deployments (cold start; "everything returned was relevant").
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Union

import numpy as np

from repro.core.coupled_svm import CoupledSVM, CoupledSVMConfig, CoupledSVMResult
from repro.core.unlabeled_selection import (
    NearLabeledSelection,
    UnlabeledSelectionStrategy,
    make_selection_strategy,
)
from repro.exceptions import ValidationError
from repro.feedback.base import (
    FeedbackContext,
    FeedbackMemory,
    RelevanceFeedbackAlgorithm,
    log_vectors_informative,
)
from repro.svm.kernels import Kernel, RBFKernel, build_kernel
from repro.svm.model import PoolColumns
from repro.svm.svc import SVC
from repro.utils.rng import RandomState, ensure_rng

__all__ = ["LRFCSVM"]

#: Memory keys a coupled round writes and any other round drops.
_SOLVE_KEYS = (
    "last_solver_iterations",
    "last_label_flips",
    "last_stage_flips",
    "last_gram_builds",
    "last_kernel_evaluations",
)


class LRFCSVM(RelevanceFeedbackAlgorithm):
    """Log-based relevance feedback by coupled SVM (the paper's algorithm).

    Parameters
    ----------
    config:
        Hyper-parameters of the coupled SVM (``C_w``, ``C_u``, ρ, Δ, kernel).
    num_unlabeled:
        Number of unlabeled samples ``N'`` engaged in the transductive task.
    selection:
        Unlabeled-selection strategy (name or instance); defaults to the
        paper's near-labeled strategy.
    min_feedback_per_class:
        Minimum number of positive *and* negative judgements required before
        the transductive (unlabeled) stage is engaged.  With fewer, the
        decision boundaries used to select and pseudo-label the unlabeled
        samples are too unreliable, so the algorithm falls back to the
        ρ → 0 limit of the coupled SVM (the independent two-SVM sum).
    random_state:
        Seed used only by stochastic selection strategies.
    """

    name = "lrf-csvm"

    def __init__(
        self,
        *,
        config: Optional[CoupledSVMConfig] = None,
        num_unlabeled: int = 20,
        selection: Union[str, UnlabeledSelectionStrategy, None] = None,
        min_feedback_per_class: int = 3,
        random_state: RandomState = None,
    ) -> None:
        if num_unlabeled < 2:
            raise ValidationError(f"num_unlabeled must be >= 2, got {num_unlabeled}")
        if min_feedback_per_class < 1:
            raise ValidationError(
                f"min_feedback_per_class must be >= 1, got {min_feedback_per_class}"
            )
        self.config = config if config is not None else CoupledSVMConfig()
        self.num_unlabeled = int(num_unlabeled)
        self.min_feedback_per_class = int(min_feedback_per_class)
        if selection is None:
            self.selection: UnlabeledSelectionStrategy = NearLabeledSelection()
        elif isinstance(selection, str):
            self.selection = make_selection_strategy(selection)
        else:
            self.selection = selection
        self._rng = ensure_rng(random_state)
        #: Diagnostics of the last feedback round (None before the first call).
        self.last_result_: Optional[CoupledSVMResult] = None

    # ------------------------------------------------------------------ API
    def score(self, context: FeedbackContext) -> np.ndarray:
        memory = context.memory
        if not context.has_both_classes:
            self._remember(memory, path="fallback")
            return self._fallback_scores(context)

        database = context.database
        features = database.features
        sq_norms = database.feature_sq_norms
        labels = context.labels
        labeled_indices = context.labeled_indices
        visual_labeled = features[labeled_indices]
        # One resolved RBF bandwidth per session (carried in the session's
        # FeedbackMemory), so every round of the session — and every solve
        # inside a round — shares one kernel geometry.
        visual_gamma = self._frozen_gamma(
            context, self.config.kernel, "resolved_gamma_visual", visual_labeled
        )

        # One snapshot for the whole round: every log read below sees the
        # same R, even while concurrent sessions append to the store.
        snapshot = context.log_snapshot()
        log_labeled = None if snapshot.is_empty else snapshot.log_vectors(labeled_indices)
        if log_labeled is None or not log_vectors_informative(log_labeled):
            # Cold start or an uninformative log: the coupled formulation
            # collapses to a single-modality SVM, so behave like RF-SVM.
            scores = self._visual_only_scores(
                visual_labeled, labels, features, sq_norms, context, visual_gamma
            )
            self._remember(memory, path="visual-only")
            return scores

        # The pool's log modality stays sparse (images x sessions); only the
        # training rows above and the selected unlabeled rows below are dense.
        pool_log = snapshot.log_rows()
        log_gamma = self._frozen_gamma(
            context, self.config.log_kernel, "resolved_gamma_log", log_labeled
        )

        minority = min(int((labels > 0).sum()), int((labels < 0).sum()))
        coupled_round = minority >= self.min_feedback_per_class
        # A coupled round scores the pool against the labelled rows twice
        # (stages 1 and 3): hold those kernel columns for the round.
        visual_columns = PoolColumns(visual_labeled) if coupled_round else None

        # ---- stage 1: unlabeled-sample selection (Figure 1, part 1) -------
        combined_scores = self._selection_scores(
            visual_labeled,
            log_labeled,
            labels,
            features,
            sq_norms,
            pool_log,
            context,
            visual_gamma,
            log_gamma,
            visual_columns,
        )
        if not coupled_round:
            # Too little feedback in one class to trust pseudo-labels: use the
            # rho -> 0 limit of the coupled SVM (independent two-SVM sum).
            self._remember(memory, path="two-svm")
            return combined_scores
        unlabeled_indices, pseudo_labels = self.selection.select(
            combined_scores,
            labeled_indices,
            self.num_unlabeled,
            random_state=self._rng,
        )

        # ---- stage 2: coupled-SVM training (Figure 1, part 2) -------------
        coupled = CoupledSVM(self._coupled_config(visual_gamma, log_gamma))
        coupled.fit(
            visual_labeled,
            log_labeled,
            labels,
            features[unlabeled_indices],
            snapshot.log_vectors(unlabeled_indices),
            pseudo_labels,
        )
        self._remember(memory, path="coupled", result=coupled.result_)

        # ---- stage 3: retrieval by coupled decision (Figure 1, part 3) ----
        return coupled.decision_function(
            features,
            pool_log,
            visual_sq_norms=sq_norms,
            visual_columns=visual_columns,
        )

    # ------------------------------------------------------ gamma resolution
    def _frozen_gamma(
        self,
        context: FeedbackContext,
        kernel: Union[str, Kernel],
        key: str,
        data: np.ndarray,
    ) -> Union[float, str]:
        """The session's resolved RBF bandwidth for one modality.

        ``gamma="scale"``/``"auto"`` are data-dependent: re-resolving them
        from the (growing) labelled set at every fit gives each round a
        slightly different kernel geometry — which also blocks any
        cross-round Gram-row reuse.  With a session :class:`FeedbackMemory`
        present, the bandwidth is resolved **once per fit context** — at
        the session's first round, from that round's training rows — stored
        in ``memory.meta[key]``, and carried verbatim to every later round
        (it round-trips exactly through the JSON session stores).

        Memory-less (single-shot) contexts and numeric/non-RBF
        configurations are returned unchanged.
        """
        gamma = self.config.gamma
        if not isinstance(gamma, str) or not (
            isinstance(kernel, str) and kernel == "rbf"
        ):
            return gamma
        memory = context.memory
        if memory is None:
            return gamma
        resolved = memory.meta.get(key)
        if resolved is None:
            resolved = float(RBFKernel(gamma).fit(data).gamma_)
            memory.meta[key] = resolved
        return float(resolved)

    def _coupled_config(
        self, visual_gamma: Union[float, str], log_gamma: Union[float, str]
    ) -> CoupledSVMConfig:
        """The coupled-SVM config carrying the session's frozen bandwidths.

        When nothing was frozen the config passes through untouched; when a
        modality's bandwidth is pinned, its kernel is materialised as a
        :class:`~repro.svm.kernels.Kernel` instance so the coupled stage
        uses exactly the bandwidth the selection stage used.
        """
        cfg = self.config
        if visual_gamma == cfg.gamma and log_gamma == cfg.gamma:
            return cfg
        return replace(
            cfg,
            kernel=build_kernel(cfg.kernel, gamma=visual_gamma),
            log_kernel=build_kernel(cfg.log_kernel, gamma=log_gamma),
        )

    def _visual_only_scores(
        self,
        visual_labeled: np.ndarray,
        labels: np.ndarray,
        features: np.ndarray,
        sq_norms: np.ndarray,
        context: FeedbackContext,
        gamma: Union[float, str],
    ) -> np.ndarray:
        classifier = SVC(
            C=self.config.C_visual,
            kernel=self.config.kernel,
            gamma=gamma,
            tolerance=self.config.tolerance,
            max_iter=self.config.max_iter,
        )
        classifier.fit(
            visual_labeled,
            labels,
            initial_alphas=self._warm_alphas(context, "warm_alpha_visual"),
        )
        self._store_warm(context, visual_svm=classifier)
        return classifier.decision_function(features, squared_norms=sq_norms)

    def _selection_scores(
        self,
        visual_labeled: np.ndarray,
        log_labeled: np.ndarray,
        labels: np.ndarray,
        features: np.ndarray,
        sq_norms: np.ndarray,
        pool_log,
        context: FeedbackContext,
        visual_gamma: Union[float, str],
        log_gamma: Union[float, str],
        visual_columns: Optional[PoolColumns],
    ) -> np.ndarray:
        """Combined SVM distance used to choose the unlabeled samples.

        *sq_norms* and *pool_log* are the scored pool's squared feature
        norms and sparse log rows, both aligned with *features*;
        *visual_columns*, when given, keeps ``K(features, visual_labeled)``
        for the retrieval stage.
        """
        visual_svm = SVC(
            C=self.config.C_visual,
            kernel=self.config.kernel,
            gamma=visual_gamma,
            tolerance=self.config.tolerance,
            max_iter=self.config.max_iter,
        )
        visual_svm.fit(
            visual_labeled,
            labels,
            initial_alphas=self._warm_alphas(context, "warm_alpha_visual"),
        )
        log_svm = SVC(
            C=self.config.C_log,
            kernel=self.config.log_kernel,
            gamma=log_gamma,
            tolerance=self.config.tolerance,
            max_iter=self.config.max_iter,
        )
        log_svm.fit(
            log_labeled,
            labels,
            initial_alphas=self._warm_alphas(context, "warm_alpha_log"),
        )
        self._store_warm(context, visual_svm=visual_svm, log_svm=log_svm)
        return visual_svm.decision_function(
            features, squared_norms=sq_norms, columns=visual_columns
        ) + log_svm.decision_function(pool_log)

    # ------------------------------------------------------- session memory
    @staticmethod
    def _warm_alphas(context: FeedbackContext, key: str) -> Optional[np.ndarray]:
        """Warm-start multipliers for the current labelled set, or ``None``.

        The previous round's selection-stage multipliers are stored keyed by
        database index; images labelled since then start at α = 0, which is
        always feasible (the solver re-projects onto the equality constraint
        anyway), so a session's growing labelled set keeps seeding each
        round's solves from the last converged point.
        """
        memory = context.memory
        if memory is None:
            return None
        stored_indices = memory.get_array("warm_indices")
        stored_alphas = memory.get_array(key)
        if stored_indices is None or stored_alphas is None:
            return None
        by_index = {
            int(i): float(a) for i, a in zip(stored_indices, stored_alphas)
        }
        return np.array(
            [by_index.get(int(i), 0.0) for i in context.labeled_indices],
            dtype=np.float64,
        )

    @staticmethod
    def _store_warm(
        context: FeedbackContext,
        *,
        visual_svm: SVC,
        log_svm: Optional[SVC] = None,
    ) -> None:
        memory = context.memory
        if memory is None:
            return
        memory.set_arrays(
            warm_indices=np.asarray(context.labeled_indices, dtype=np.int64).copy(),
            warm_alpha_visual=visual_svm.result_.alphas.copy(),
        )
        if log_svm is not None:
            memory.set_arrays(warm_alpha_log=log_svm.result_.alphas.copy())
        else:
            memory.drop("warm_alpha_log")

    def _remember(
        self,
        memory: Optional[FeedbackMemory],
        *,
        path: str,
        result: Optional[CoupledSVMResult] = None,
    ) -> None:
        """Record the round's fit and diagnostics (JSON-safe in the memory).

        A round that does not reach :meth:`CoupledSVM.fit` passes no
        *result*: it clears :attr:`last_result_` and drops the previous
        fit's solve counts, so nothing reports a solve that did not happen.
        """
        self.last_result_ = result
        if memory is None:
            return
        meta = memory.meta
        meta["rounds_scored"] = int(meta.get("rounds_scored", 0)) + 1
        meta["last_path"] = path
        if result is None:
            for key in _SOLVE_KEYS:
                meta.pop(key, None)
            return
        meta["last_solver_iterations"] = int(result.total_solver_iterations)
        meta["last_label_flips"] = int(result.total_flips)
        meta["last_stage_flips"] = [int(n) for n in result.stage_flips]
        meta["last_gram_builds"] = int(
            result.visual_gram_computations + result.log_gram_computations
        )
        meta["last_kernel_evaluations"] = int(result.kernel_evaluations)
