"""Tests for the SVC estimator and the SVMModel value object."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.exceptions import SolverError, ValidationError
from repro.svm.kernels import LinearKernel, RBFKernel
from repro.svm.model import SVMModel
from repro.svm.svc import SVC


class TestSVCFit:
    def test_separable_accuracy(self, linearly_separable):
        features, labels = linearly_separable
        classifier = SVC(C=1.0, kernel="linear").fit(features, labels)
        assert classifier.score(features, labels) == 1.0

    def test_rbf_solves_xor(self):
        features = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        labels = np.array([-1.0, 1.0, 1.0, -1.0])
        classifier = SVC(C=10.0, kernel="rbf", gamma=1.0).fit(features, labels)
        assert classifier.score(features, labels) == 1.0

    def test_decision_function_sign_matches_predict(self, linearly_separable):
        features, labels = linearly_separable
        classifier = SVC(C=1.0, kernel="rbf").fit(features, labels)
        decisions = classifier.decision_function(features)
        predictions = classifier.predict(features)
        np.testing.assert_array_equal(np.where(decisions >= 0, 1.0, -1.0), predictions)

    def test_support_vectors_subset_of_training(self, linearly_separable):
        features, labels = linearly_separable
        classifier = SVC(C=1.0, kernel="linear").fit(features, labels)
        assert classifier.model_.num_support_vectors <= features.shape[0]
        assert classifier.model_.num_support_vectors >= 2

    def test_C_bounds_every_alpha_and_the_gram_is_counted(self, linearly_separable):
        features, labels = linearly_separable
        classifier = SVC(C=0.5, kernel="linear").fit(features, labels)
        assert np.all(classifier.result_.alphas <= 0.5 + 1e-9)
        assert classifier.kernel_evaluations_ == features.shape[0] ** 2

    def test_prediction_on_new_points(self, linearly_separable):
        features, labels = linearly_separable
        classifier = SVC(C=1.0, kernel="rbf").fit(features, labels)
        assert classifier.predict(np.array([[3.0, 3.0]]))[0] == 1.0
        assert classifier.predict(np.array([[-3.0, -3.0]]))[0] == -1.0


class TestSVCKernelConstruction:
    def test_kernel_instance_passes_through(self):
        kernel = RBFKernel(gamma=0.3)
        assert SVC(kernel=kernel).kernel is kernel


class TestSVCDegenerateSupport:
    def test_vanishing_alphas_yield_explicit_empty_model(self):
        """Huge-norm points make the SMO updates vanish below the SV cutoff."""
        features = np.array([[1e8], [-1e8]])
        labels = np.array([1.0, -1.0])
        classifier = SVC(C=10.0, kernel="linear").fit(features, labels)
        assert classifier.model_.num_support_vectors == 0
        assert classifier.support_.size == 0
        # The empty model predicts from the bias alone.
        decisions = classifier.decision_function(np.array([[0.0], [3.0]]))
        np.testing.assert_allclose(decisions, classifier.model_.bias)
        assert classifier.predict(np.array([[1.0]])).shape == (1,)


class TestSVCWarmStartAndGram:
    def test_unconverged_fit_warns(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(30, 2))
        labels = np.where(rng.random(30) > 0.5, 1.0, -1.0)
        labels[0] = -labels[0] if np.unique(labels).size < 2 else labels[0]
        with pytest.warns(RuntimeWarning, match="max_iter"):
            SVC(C=10.0, kernel="rbf", max_iter=2).fit(features, labels)

    def test_initial_alphas_forwarded(self, linearly_separable):
        features, labels = linearly_separable
        cold = SVC(C=1.0, kernel="rbf").fit(features, labels)
        warm = SVC(C=1.0, kernel="rbf")
        warm.fit(features, labels, initial_alphas=cold.result_.alphas)
        assert warm.solver_iterations_ == 0
        np.testing.assert_allclose(
            warm.decision_function(features), cold.decision_function(features)
        )


class TestSVCValidation:
    def test_invalid_C(self):
        with pytest.raises(ValidationError):
            SVC(C=0.0)

    def test_misaligned_shapes(self):
        with pytest.raises(ValidationError):
            SVC().fit(np.ones((4, 2)), np.array([1.0, -1.0]))

    @pytest.mark.parametrize("C", [np.nan, np.inf])
    def test_non_finite_C(self, C):
        with pytest.raises(ValidationError, match="C must be positive and finite"):
            SVC(C=C)

    def test_takes_only_the_options_the_paper_uses(self):
        # No polynomial degree / coef0, no warm_start flag, no per-sample
        # weights and no precomputed Gram.
        assert list(inspect.signature(SVC).parameters) == [
            "C", "kernel", "gamma", "tolerance", "max_iter"
        ]
        assert list(inspect.signature(SVC.fit).parameters) == [
            "self", "features", "labels", "initial_alphas"
        ]

    def test_predict_before_fit(self):
        with pytest.raises(SolverError):
            SVC().predict(np.ones((1, 2)))

    def test_single_class_training_rejected(self):
        with pytest.raises(SolverError):
            SVC().fit(np.random.default_rng(0).normal(size=(5, 2)), np.ones(5))


class TestSVMModel:
    def test_decision_function_formula(self):
        kernel = LinearKernel()
        model = SVMModel(
            support_vectors=np.array([[1.0, 0.0], [0.0, 1.0]]),
            dual_coef=np.array([0.5, -0.25]),
            bias=0.1,
            kernel=kernel,
        )
        point = np.array([[2.0, 2.0]])
        expected = 0.5 * 2.0 - 0.25 * 2.0 + 0.1
        assert model.decision_function(point)[0] == pytest.approx(expected)

    def test_empty_model_returns_bias(self):
        model = SVMModel(
            support_vectors=np.zeros((0, 3)),
            dual_coef=np.zeros(0),
            bias=-0.7,
            kernel=LinearKernel(),
        )
        np.testing.assert_allclose(model.decision_function(np.ones((4, 3))), -0.7)

    def test_misaligned_dual_coef_rejected(self):
        with pytest.raises(ValidationError):
            SVMModel(
                support_vectors=np.ones((3, 2)),
                dual_coef=np.ones(2),
                bias=0.0,
                kernel=LinearKernel(),
            )
