"""Tests for the coupled SVM, label switching and unlabeled selection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coupled_svm import CoupledSVM, CoupledSVMConfig
from repro.core.label_switching import (
    compute_slacks,
    coupled_hinge_objective,
    switch_labels,
)
from repro.core.unlabeled_selection import (
    BoundaryProximitySelection,
    NearLabeledSelection,
    RandomSelection,
    make_selection_strategy,
)
from repro.exceptions import ConfigurationError, SolverError, ValidationError
from repro.svm.kernels import RBFKernel


class TestLabelSwitching:
    def test_slacks_formula(self):
        decisions = np.array([2.0, 0.5, -1.0])
        labels = np.array([1.0, 1.0, 1.0])
        np.testing.assert_allclose(compute_slacks(decisions, labels), [0.0, 0.5, 2.0])

    def test_slack_alignment_enforced(self):
        with pytest.raises(ValidationError):
            compute_slacks(np.ones(3), np.ones(2))

    def test_no_flip_when_one_modality_agrees(self):
        labels = np.array([1.0])
        visual = np.array([2.0])   # agrees strongly -> xi = 0
        log = np.array([-3.0])     # disagrees -> eta = 4
        new_labels, flipped = switch_labels(labels, visual, log, delta=1.0)
        assert not flipped.any()
        np.testing.assert_array_equal(new_labels, labels)

    def test_flip_when_both_disagree_beyond_delta(self):
        labels = np.array([1.0])
        visual = np.array([-1.0])  # xi = 2
        log = np.array([-0.5])     # eta = 1.5
        new_labels, flipped = switch_labels(labels, visual, log, delta=1.0)
        assert flipped.all()
        np.testing.assert_array_equal(new_labels, [-1.0])

    def test_no_flip_below_delta(self):
        labels = np.array([1.0])
        visual = np.array([0.9])   # xi = 0.1
        log = np.array([0.8])      # eta = 0.2
        new_labels, flipped = switch_labels(labels, visual, log, delta=1.0)
        assert not flipped.any()

    def test_negative_delta_rejected(self):
        with pytest.raises(ValidationError):
            switch_labels(np.array([1.0]), np.array([0.0]), np.array([0.0]), delta=-1.0)

    def test_invalid_labels_rejected(self):
        with pytest.raises(ValidationError):
            switch_labels(np.array([0.5]), np.array([0.0]), np.array([0.0]))

    def test_flip_never_increases_objective_for_large_delta(self):
        """With Δ ≥ 2 the rule only flips genuinely misclassified samples.

        The Figure-1 rule is a heuristic: with a small Δ it may flip samples
        both modalities *weakly agree* with (ξ, η ∈ (0, 1)), which can
        increase the hinge objective — that is exactly why the paper
        introduces Δ "to avoid overlarge change in the label set".  For
        Δ ≥ 2 a flip requires ``y (f_w + f_u) < 0`` and therefore always
        decreases the per-sample coupled hinge loss.
        """
        rng = np.random.default_rng(0)
        for _ in range(50):
            size = int(rng.integers(1, 12))
            labels = np.where(rng.random(size) > 0.5, 1.0, -1.0)
            visual = rng.normal(scale=2.0, size=size)
            log = rng.normal(scale=2.0, size=size)
            before = coupled_hinge_objective(visual, log, labels)
            new_labels, _ = switch_labels(labels, visual, log, delta=2.0)
            after = coupled_hinge_objective(visual, log, new_labels)
            assert after <= before + 1e-9

    def test_small_delta_can_flip_weakly_agreeing_samples(self):
        """Documents the heuristic nature of the Δ-rule for small Δ."""
        labels = np.array([1.0])
        visual = np.array([0.5])  # xi = 0.5 (weakly agrees)
        log = np.array([0.3])     # eta = 0.7 (weakly agrees)
        _, flipped = switch_labels(labels, visual, log, delta=1.0)
        assert flipped.all()
        _, flipped_large_delta = switch_labels(labels, visual, log, delta=2.0)
        assert not flipped_large_delta.any()

    @given(
        st.integers(1, 10),
        st.floats(0.0, 3.0),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_switch_labels_property(self, size, delta, seed):
        rng = np.random.default_rng(seed)
        labels = np.where(rng.random(size) > 0.5, 1.0, -1.0)
        visual = rng.normal(scale=2.0, size=size)
        log = rng.normal(scale=2.0, size=size)
        new_labels, flipped = switch_labels(labels, visual, log, delta=delta)
        # Output labels stay in {-1, +1} and only flipped entries changed.
        assert np.all(np.isin(new_labels, (-1.0, 1.0)))
        np.testing.assert_array_equal(new_labels[~flipped], labels[~flipped])
        np.testing.assert_array_equal(new_labels[flipped], -labels[flipped])


class TestUnlabeledSelection:
    def _scores(self):
        return np.array([5.0, 4.0, 3.0, 0.5, 0.1, -0.2, -3.0, -4.0, -5.0, 1.0])

    def test_near_labeled_picks_extremes(self):
        strategy = NearLabeledSelection()
        indices, labels = strategy.select(self._scores(), np.array([9]), 4)
        assert len(indices) == 4
        # Highest scores get +1, lowest get -1.
        assert set(indices[labels > 0]) <= {0, 1, 2}
        assert set(indices[labels < 0]) <= {6, 7, 8}

    def test_near_labeled_excludes_labeled(self):
        strategy = NearLabeledSelection()
        indices, _ = strategy.select(self._scores(), np.array([0, 8]), 4)
        assert 0 not in indices
        assert 8 not in indices

    def test_boundary_picks_small_magnitude(self):
        strategy = BoundaryProximitySelection()
        indices, labels = strategy.select(self._scores(), np.array([]), 4)
        assert set(indices) <= {3, 4, 5, 9}
        assert np.all(np.isin(labels, (-1.0, 1.0)))

    def test_random_selection_deterministic_with_seed(self):
        strategy = RandomSelection()
        first = strategy.select(self._scores(), np.array([0]), 4, random_state=3)
        second = strategy.select(self._scores(), np.array([0]), 4, random_state=3)
        np.testing.assert_array_equal(first[0], second[0])

    def test_both_classes_always_present(self):
        for name in ("near-labeled", "boundary", "random"):
            strategy = make_selection_strategy(name)
            indices, labels = strategy.select(self._scores(), np.array([]), 6, random_state=1)
            assert (labels > 0).any() and (labels < 0).any(), name

    def test_budget_capped_by_candidates(self):
        strategy = NearLabeledSelection()
        indices, _ = strategy.select(np.array([1.0, -1.0, 0.5]), np.array([2]), 10)
        assert len(indices) == 2

    def test_minimum_budget(self):
        with pytest.raises(ValidationError):
            NearLabeledSelection().select(self._scores(), np.array([]), 1)

    def test_unknown_strategy(self):
        with pytest.raises(ValidationError):
            make_selection_strategy("magic")


def _toy_coupled_problem(seed=0, labeled=16, unlabeled=10):
    """Two informative modalities whose classes agree."""
    rng = np.random.default_rng(seed)
    half = labeled // 2
    x_pos = rng.normal(loc=1.5, scale=0.7, size=(half, 3))
    x_neg = rng.normal(loc=-1.5, scale=0.7, size=(half, 3))
    r_pos = rng.normal(loc=1.0, scale=0.8, size=(half, 5))
    r_neg = rng.normal(loc=-1.0, scale=0.8, size=(half, 5))
    x_l = np.vstack([x_pos, x_neg])
    r_l = np.vstack([r_pos, r_neg])
    y_l = np.concatenate([np.ones(half), -np.ones(half)])

    u_half = unlabeled // 2
    x_u = np.vstack(
        [rng.normal(1.5, 0.7, size=(u_half, 3)), rng.normal(-1.5, 0.7, size=(u_half, 3))]
    )
    r_u = np.vstack(
        [rng.normal(1.0, 0.8, size=(u_half, 5)), rng.normal(-1.0, 0.8, size=(u_half, 5))]
    )
    true_u = np.concatenate([np.ones(u_half), -np.ones(u_half)])
    return x_l, r_l, y_l, x_u, r_u, true_u


class TestCoupledSVMConfig:
    def test_defaults_valid(self):
        config = CoupledSVMConfig()
        assert config.rho_start <= config.rho

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            CoupledSVMConfig(C_visual=0.0)
        with pytest.raises(ConfigurationError):
            CoupledSVMConfig(rho_start=0.5, rho=0.1)
        with pytest.raises(ConfigurationError):
            CoupledSVMConfig(delta=-0.5)
        with pytest.raises(ConfigurationError):
            CoupledSVMConfig(max_label_iterations=0)
        with pytest.raises(ConfigurationError):
            CoupledSVMConfig(tolerance=0.0)
        with pytest.raises(ConfigurationError):
            CoupledSVMConfig(max_iter=0)
        # Kernel settings fail at construction, not at the first coupled fit.
        for field, value in [
            ("gamma", "scales"), ("gamma", "auto"), ("gamma", -1.0), ("gamma", np.nan),
            ("gamma", np.inf), ("gamma", True), ("kernel", "poly"), ("log_kernel", "poly"),
        ]:
            with pytest.raises(ConfigurationError, match=field):
                CoupledSVMConfig(**{field: value})
        assert isinstance(CoupledSVMConfig(kernel=RBFKernel(0.5)).kernel, RBFKernel)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("C_visual", np.nan),
            ("C_visual", np.inf),
            ("C_log", np.nan),
            ("rho", np.nan),
            ("rho", np.inf),
            ("rho_start", np.nan),
            ("delta", np.nan),
            ("tolerance", np.nan),
            ("tolerance", np.inf),
        ],
    )
    def test_non_finite_parameters_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            CoupledSVMConfig(**{field: value})

    def test_infinite_delta_is_accepted_and_never_flips(self):
        assert CoupledSVMConfig(delta=np.inf).delta == np.inf
        labels = np.array([1.0, -1.0])
        _, flipped = switch_labels(labels, -100 * labels, -100 * labels, delta=np.inf)
        assert not flipped.any()


class TestCoupledSVM:
    def test_fit_and_decision(self):
        x_l, r_l, y_l, x_u, r_u, _ = _toy_coupled_problem()
        model = CoupledSVM(CoupledSVMConfig(kernel="linear", log_kernel="linear"))
        model.fit(x_l, r_l, y_l, x_u, r_u, np.ones(x_u.shape[0]))
        assert model.is_fitted
        scores = model.decision_function(x_l, r_l)
        assert scores.shape == (x_l.shape[0],)
        # Training samples should be classified mostly correctly.
        assert np.mean(np.sign(scores) == y_l) >= 0.9

    def test_label_switching_corrects_bad_pseudo_labels(self):
        x_l, r_l, y_l, x_u, r_u, true_u = _toy_coupled_problem(seed=3)
        wrong = -true_u  # start from entirely wrong pseudo-labels
        model = CoupledSVM(
            CoupledSVMConfig(kernel="linear", log_kernel="linear", rho=0.1, delta=0.5)
        )
        model.fit(x_l, r_l, y_l, x_u, r_u, wrong)
        corrected = np.mean(model.result_.pseudo_labels == true_u)
        assert corrected >= 0.7
        assert model.result_.total_flips > 0

    def test_rho_annealing_schedule(self):
        x_l, r_l, y_l, x_u, r_u, true_u = _toy_coupled_problem(seed=5)
        config = CoupledSVMConfig(rho=0.08, rho_start=0.01, kernel="linear", log_kernel="linear")
        model = CoupledSVM(config)
        model.fit(x_l, r_l, y_l, x_u, r_u, true_u)
        schedule = model.result_.rho_schedule
        assert schedule[0] == pytest.approx(0.01)
        assert schedule[-1] == pytest.approx(0.08)
        assert all(b >= a for a, b in zip(schedule, schedule[1:]))

    def test_modality_decisions_sum_to_coupled(self):
        x_l, r_l, y_l, x_u, r_u, true_u = _toy_coupled_problem(seed=7)
        model = CoupledSVM(CoupledSVMConfig(kernel="linear", log_kernel="linear"))
        model.fit(x_l, r_l, y_l, x_u, r_u, true_u)
        visual, log = model.modality_decisions(x_l, r_l)
        np.testing.assert_allclose(visual + log, model.decision_function(x_l, r_l))

    def test_requires_both_classes(self):
        x_l, r_l, y_l, x_u, r_u, true_u = _toy_coupled_problem()
        with pytest.raises(SolverError):
            CoupledSVM().fit(x_l, r_l, np.ones_like(y_l), x_u, r_u, true_u)

    def test_requires_unlabeled_samples(self):
        x_l, r_l, y_l, _, _, _ = _toy_coupled_problem()
        with pytest.raises(ValidationError):
            CoupledSVM().fit(
                x_l, r_l, y_l, np.zeros((0, 3)), np.zeros((0, 5)), np.zeros(0)
            )

    def test_misaligned_modalities_rejected(self):
        x_l, r_l, y_l, x_u, r_u, true_u = _toy_coupled_problem()
        with pytest.raises(ValidationError):
            CoupledSVM().fit(x_l, r_l[:-1], y_l, x_u, r_u, true_u)

    def test_decision_before_fit_rejected(self):
        with pytest.raises(SolverError):
            CoupledSVM().decision_function(np.ones((1, 3)), np.ones((1, 5)))

    def test_invalid_pseudo_labels_rejected(self):
        x_l, r_l, y_l, x_u, r_u, _ = _toy_coupled_problem()
        with pytest.raises(ValidationError):
            CoupledSVM().fit(x_l, r_l, y_l, x_u, r_u, np.full(x_u.shape[0], 0.5))


def _assert_anneals_while_labels_move(result, config):
    """Each stage doubles ρ* after a flip and jumps to ρ after none."""
    schedule, flips = result.rho_schedule, result.stage_flips
    assert schedule[0] == config.rho_start
    assert schedule[-1] == config.rho
    for rho_star, moved, following in zip(schedule, flips, schedule[1:]):
        assert following == (min(2.0 * rho_star, config.rho) if moved else config.rho)


class TestAnnealingSchedule:
    """ρ* doubles only while labels move; the first flip-free stage jumps to ρ."""

    CONFIG = CoupledSVMConfig(rho=0.1, delta=0.5, tolerance=1e-8)

    def _fit(self, *, seed=3, start_from_wrong):
        x_l, r_l, y_l, x_u, r_u, true_u = _toy_coupled_problem(seed=seed)
        initial = (-true_u if start_from_wrong else true_u).copy()
        return CoupledSVM(self.CONFIG).fit(x_l, r_l, y_l, x_u, r_u, initial).result_

    def test_flip_free_stage_zero_jumps_to_rho(self):
        """Mutation caught: doubling ρ* through every stage (Figure 1's
        full schedule visits ``1e-4 … 0.1`` in 11 stages)."""
        result = self._fit(start_from_wrong=False)
        assert result.stage_flips[0] == 0
        assert result.rho_schedule == [self.CONFIG.rho_start, self.CONFIG.rho]
        assert len(result.solver_iterations) == 2 * 2

    def test_flipping_stage_doubles_until_a_stage_is_flip_free(self):
        """Mutation caught: jumping to ρ after stage 0 whether or not it
        flipped (the schedule would read ``[1e-4, 0.1]``)."""
        result = self._fit(start_from_wrong=True)
        assert result.stage_flips[0] > 0
        assert result.rho_schedule[1] == 2.0 * self.CONFIG.rho_start
        assert result.stage_flips[-2] == 0
        _assert_anneals_while_labels_move(result, self.CONFIG)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("start_from_wrong", [True, False])
    def test_stage_flips_align_with_the_schedule(self, seed, start_from_wrong):
        """Mutation caught: recording flips per switching pass (a stage
        usually ends with a flip-free pass, so that list is longer than
        the schedule)."""
        result = self._fit(seed=seed, start_from_wrong=start_from_wrong)
        assert len(result.stage_flips) == len(result.rho_schedule)
        assert sum(result.stage_flips) == result.total_flips
        assert sum(result.label_flips) == result.total_flips
        _assert_anneals_while_labels_move(result, self.CONFIG)


class TestCoupledSVMWarmStart:
    """Regression contract of the warm-started, Gram-cached AO pipeline."""

    def _fit(self, warm_start, *, seed=3, tolerance=1e-8, start_from_wrong=True):
        x_l, r_l, y_l, x_u, r_u, true_u = _toy_coupled_problem(seed=seed)
        initial = (-true_u if start_from_wrong else true_u).copy()
        config = CoupledSVMConfig(
            rho=0.1, delta=0.5, warm_start=warm_start, tolerance=tolerance
        )
        model = CoupledSVM(config)
        model.fit(x_l, r_l, y_l, x_u, r_u, initial)
        return model, (x_l, r_l)

    def test_results_unchanged_by_warm_start(self):
        """Warm and cold paths agree on pseudo-labels and rankings."""
        warm, (x_l, r_l) = self._fit(True)
        cold, _ = self._fit(False)
        np.testing.assert_array_equal(
            warm.result_.pseudo_labels, cold.result_.pseudo_labels
        )
        np.testing.assert_allclose(
            warm.decision_function(x_l, r_l),
            cold.decision_function(x_l, r_l),
            atol=1e-6,
        )
        assert warm.result_.rho_schedule == cold.result_.rho_schedule
        assert warm.result_.label_flips == cold.result_.label_flips

    def test_gram_computed_once_per_modality(self):
        for warm_start in (True, False):
            model, _ = self._fit(warm_start)
            assert model.result_.visual_gram_computations == 1
            assert model.result_.log_gram_computations == 1

    def test_solver_iterations_recorded(self):
        model, _ = self._fit(True)
        iterations = model.result_.solver_iterations
        assert len(iterations) > 0
        assert all(count >= 0 for count in iterations)
        assert model.result_.total_solver_iterations == sum(iterations)
        # One solve per modality per rho* stage at minimum; packaging the
        # models solves nothing.
        assert len(iterations) >= 2 * len(model.result_.rho_schedule)

    @pytest.mark.parametrize("start_from_wrong", [True, False])
    def test_models_are_the_last_solves(self, monkeypatch, start_from_wrong):
        from repro.svm.smo import SMOSolver

        solves = []
        original = SMOSolver.solve

        def recording(solver, gram, labels, bounds, **kwargs):
            state = original(solver, gram, labels, bounds, **kwargs)
            solves.append((state, labels.copy(), bounds.copy()))
            return state

        monkeypatch.setattr(SMOSolver, "solve", recording)
        model, _ = self._fit(True, tolerance=1e-3, start_from_wrong=start_from_wrong)
        result = model.result_
        # Every solve is one of the alternating pairs: none runs afterwards.
        assert len(solves) == len(result.solver_iterations)
        assert [state.iterations for state, _, _ in solves] == result.solver_iterations
        config = model.config
        for svm, (state, labels, bounds), c_value in (
            (model.visual_svm_, solves[-2], config.C_visual),
            (model.log_svm_, solves[-1], config.C_log),
        ):
            # The last solve ran at the final rho* with the final pseudo-labels.
            np.testing.assert_array_equal(bounds[16:], config.rho * c_value)
            np.testing.assert_array_equal(labels[16:], result.pseudo_labels)
            assert svm.result_ is state
            np.testing.assert_array_equal(svm.model_.alphas, state.alphas)
            assert svm.model_.bias == state.bias
            support = np.flatnonzero(state.alphas > 1e-10)
            np.testing.assert_array_equal(svm.model_.support, support)
            np.testing.assert_array_equal(
                svm.model_.dual_coef, (state.alphas * labels)[support]
            )

    def test_warm_start_reduces_iterations(self):
        warm, _ = self._fit(True, tolerance=1e-3)
        cold, _ = self._fit(False, tolerance=1e-3)
        assert (
            warm.result_.total_solver_iterations
            < cold.result_.total_solver_iterations
        )

    def test_kernel_evaluations_counted(self):
        model, _ = self._fit(True)
        samples = model.result_.pseudo_labels.shape[0] + 16  # unlabeled + labelled
        assert model.result_.kernel_evaluations == 2 * samples * samples
