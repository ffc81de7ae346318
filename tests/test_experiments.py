"""Tests for the experiment drivers (configs, pipeline, ablations)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.datasets.corel import CorelDatasetConfig
from repro.evaluation.protocol import ProtocolConfig
from repro.exceptions import ConfigurationError
from repro.experiments.ablations import (
    run_log_ablation,
    run_rho_ablation,
    run_selection_ablation,
)
from repro.experiments.config import BENCH_SCALE, PAPER_SCALE, SMOKE_SCALE, ExperimentConfig
from repro.experiments.corel20 import table1_config
from repro.experiments.corel50 import table2_config
from repro.experiments.pipeline import build_algorithms, build_environment, run_paper_experiment
from repro.logdb.simulation import LogSimulationConfig


def _tiny_config(num_categories=4, algorithms=("euclidean", "rf-svm")):
    """A seconds-scale experiment configuration for integration-style tests."""
    return ExperimentConfig(
        dataset=CorelDatasetConfig(
            num_categories=num_categories, images_per_category=10, image_size=32, seed=21
        ),
        log=LogSimulationConfig(num_sessions=16, images_per_session=8, seed=22),
        protocol=ProtocolConfig(num_queries=4, num_labeled=8, cutoffs=(10, 20), seed=23),
        algorithms=tuple(algorithms),
        num_unlabeled=8,
    )


class TestExperimentConfig:
    def test_paper_defaults(self):
        config = table1_config()
        assert config.dataset.num_categories == 20
        assert config.dataset.images_per_category == PAPER_SCALE["images_per_category"]
        assert config.log.num_sessions == PAPER_SCALE["num_sessions"]
        assert config.protocol.num_queries == PAPER_SCALE["num_queries"]

    def test_table2_has_50_categories(self):
        assert table2_config().dataset.num_categories == 50

    def test_scaled_preserves_structure(self):
        config = table1_config(**{k: v for k, v in BENCH_SCALE.items()})
        assert config.dataset.num_categories == 20
        assert config.dataset.images_per_category == BENCH_SCALE["images_per_category"]
        assert config.protocol.num_queries == BENCH_SCALE["num_queries"]

    def test_cutoff_vs_dataset_size_checked(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(
                dataset=CorelDatasetConfig(num_categories=2, images_per_category=3),
                protocol=ProtocolConfig(cutoffs=(100,)),
            )

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            _ = replace(_tiny_config(), num_unlabeled=1)
        with pytest.raises(ConfigurationError):
            _ = replace(_tiny_config(), svm_C=0.0)
        with pytest.raises(ConfigurationError):
            _ = replace(_tiny_config(), algorithms=())

    def test_smoke_scale_exists(self):
        assert SMOKE_SCALE["images_per_category"] < BENCH_SCALE["images_per_category"]


class TestPipeline:
    def test_build_environment(self):
        config = _tiny_config()
        dataset, database = build_environment(config)
        assert dataset.num_images == 40
        assert len(database.log_database) == 16
        assert database.features.shape == (40, 36)

    def test_build_algorithms_matches_config(self):
        config = _tiny_config(algorithms=("euclidean", "rf-svm", "lrf-2svms", "lrf-csvm"))
        algorithms = build_algorithms(config)
        assert list(algorithms) == ["euclidean", "rf-svm", "lrf-2svms", "lrf-csvm"]

    def test_run_paper_experiment_end_to_end(self):
        config = _tiny_config(algorithms=("euclidean", "rf-svm"))
        table = run_paper_experiment(config)
        assert set(table.methods) == {"euclidean", "rf-svm"}
        for method in table.methods:
            assert 0.0 <= table.result(method).map_score <= 1.0

    def test_reused_environment(self):
        config = _tiny_config()
        environment = build_environment(config)
        table = run_paper_experiment(config, environment=environment)
        assert len(table) == 2


class TestAblations:
    def test_rho_ablation_structure(self):
        config = _tiny_config(algorithms=("lrf-csvm",))
        result = run_rho_ablation(config, rho_values=(0.02, 0.2))
        assert result.parameter == "rho"
        assert result.values == (0.02, 0.2)
        assert len(result.map_scores) == 2
        assert all(0.0 <= score <= 1.0 for score in result.map_scores)
        assert result.best_value() in result.values
        assert len(result.as_rows()) == 2

    def test_selection_ablation_structure(self):
        config = _tiny_config(algorithms=("lrf-csvm",))
        result = run_selection_ablation(config, strategies=("near-labeled", "random"))
        assert result.values == ("near-labeled", "random")
        assert len(result.tables) == 2

    def test_log_ablation_includes_cold_start(self):
        config = _tiny_config(algorithms=("lrf-csvm",))
        result = run_log_ablation(config, session_counts=(0, 12), noise_rates=(0.1,))
        assert len(result.map_scores) == 2
        # Cold start (0 sessions) still produces a valid score.
        assert all(np.isfinite(score) for score in result.map_scores)
