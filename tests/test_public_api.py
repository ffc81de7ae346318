"""Tests for the top-level public API surface of :mod:`repro`."""

from __future__ import annotations

import importlib

import pytest

import repro


class TestPublicAPI:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert len(repro.__version__.split(".")) == 3

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing attribute {name}"

    def test_key_classes_importable_from_top_level(self):
        for name in (
            "CoupledSVM",
            "LRFCSVM",
            "SVC",
            "ImageDatabase",
            "LogStore",
            "ExperimentRunner",
            "build_corel_dataset",
            "collect_feedback_log",
            "RetrievalService",
            "SearchRequest",
            "FeedbackRequest",
            "SessionView",
            "SessionStore",
            "FileSessionStore",
            "ClusterConfig",
            "ClusterRouter",
            "ClusterWorker",
            "AffinityGraph",
            "KNNGraphBuilder",
            "GraphCache",
            "LabelPropagationFeedback",
        ):
            assert hasattr(repro, name)

    def test_subpackages_importable(self):
        for module in (
            "repro.core",
            "repro.svm",
            "repro.imaging",
            "repro.synth",
            "repro.datasets",
            "repro.features",
            "repro.logdb",
            "repro.cbir",
            "repro.feedback",
            "repro.evaluation",
            "repro.experiments",
            "repro.service",
            "repro.index",
            "repro.obs",
            "repro.cluster",
            "repro.utils",
            "repro.graph",
        ):
            importlib.import_module(module)

    def test_exception_hierarchy(self):
        from repro.exceptions import (
            ClusterError,
            ClusterTimeoutError,
            ConfigurationError,
            DatabaseError,
            EvaluationError,
            FeatureExtractionError,
            LogDatabaseError,
            NoWorkersError,
            ReproError,
            SessionError,
            SolverError,
            ValidationError,
            WorkerDiedError,
        )

        for error in (
            ConfigurationError,
            ValidationError,
            FeatureExtractionError,
            SolverError,
            DatabaseError,
            LogDatabaseError,
            EvaluationError,
            SessionError,
            ClusterError,
        ):
            assert issubclass(error, ReproError)
        assert issubclass(ValidationError, ValueError)
        for error in (WorkerDiedError, ClusterTimeoutError, NoWorkersError):
            assert issubclass(error, ClusterError)
        assert issubclass(ClusterTimeoutError, TimeoutError)

    def test_version_info_tuple(self):
        from repro.version import VERSION_INFO

        assert VERSION_INFO == tuple(int(x) for x in repro.__version__.split("."))
