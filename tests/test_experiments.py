"""Tests for the experiment drivers (configs, pipeline, the claims driver)."""

from __future__ import annotations

from dataclasses import replace

import json

import numpy as np
import pytest
from scipy.stats import binomtest

from repro.datasets.corel import CorelDatasetConfig
from repro.evaluation.protocol import ProtocolConfig
from repro.exceptions import ConfigurationError
from repro.experiments.claims import PAIRS, TIE, claims, sweep
from repro.experiments.config import SCALED, ExperimentConfig, table1_config, table2_config
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
        assert config.dataset.images_per_category == 100
        assert config.log.num_sessions == 150
        assert config.protocol.num_queries == 200

    def test_table2_has_50_categories(self):
        assert table2_config().dataset.num_categories == 50

    def test_scaled_preserves_structure(self):
        config = table1_config(**SCALED)
        assert config.dataset.num_categories == 20
        assert config.dataset.images_per_category == SCALED["images_per_category"]
        assert config.log.num_sessions == SCALED["num_sessions"]
        assert config.protocol.num_queries == SCALED["num_queries"]

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
            _ = replace(_tiny_config(), algorithms=())


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


@pytest.fixture(scope="module")
def tiny_lrf_csvm():
    """The LRF-CSVM-only tiny config and its environment, shared by the sweeps."""
    config = _tiny_config(algorithms=("lrf-csvm",))
    return config, build_environment(config)


def _lrf_csvm_maps(tables):
    return [table.result("lrf-csvm").map_score for table in tables]


class TestAblations:
    def test_rho_ablation_structure(self, tiny_lrf_csvm):
        config, environment = tiny_lrf_csvm
        tables = sweep(config, "rho", (0.02, 0.2), environment=environment)
        maps = _lrf_csvm_maps(tables)
        assert len(maps) == 2
        assert all(0.0 <= score <= 1.0 for score in maps)
        assert [table.methods for table in tables] == [["lrf-csvm"], ["lrf-csvm"]]

    def test_selection_ablation_structure(self, tiny_lrf_csvm):
        config, environment = tiny_lrf_csvm
        tables = sweep(config, "selection", ("near-labeled", "random"), environment=environment)
        assert len(tables) == 2

    def test_log_ablation_includes_cold_start(self, tiny_lrf_csvm):
        config, environment = tiny_lrf_csvm
        maps = _lrf_csvm_maps(sweep(config, "log_sessions", (0, 12), environment=environment))
        assert len(maps) == 2
        # Cold start (0 sessions) still produces a valid score.
        assert all(np.isfinite(score) for score in maps)

    def test_a_sweep_equals_the_replaced_config(self, tiny_lrf_csvm):
        """A sweep value is ``run_paper_experiment`` on the config with that one
        field replaced, a log axis on a log collected for the new log config."""
        config, environment = tiny_lrf_csvm
        (rho,) = _lrf_csvm_maps(sweep(config, "rho", (0.2,), environment=environment))
        varied = replace(config, coupled=replace(config.coupled, rho=0.2))
        expected = run_paper_experiment(varied, environment=environment)
        assert rho == expected.result("lrf-csvm").map_score
        (sessions,) = _lrf_csvm_maps(sweep(config, "log_sessions", (12,), environment=environment))
        varied = replace(config, log=replace(config.log, num_sessions=12))
        expected = run_paper_experiment(varied, environment=(environment[0], build_environment(varied)[1]))
        assert sessions == expected.result("lrf-csvm").map_score


class TestClaims:
    def test_paired_differences_and_sign_test_per_seed(self):
        """Each per-seed difference is the two MAPs of ``run_paper_experiment``
        on that seed's own corpus and log.  Catches swapped operands in a
        pair, a seed's log drawn at the wrong seed, and a sign test that
        counts ties: at seed 26 LRF-2SVMs and RF-SVM differ by -1.1e-16,
        float noise within ``TIE``, so the log's p is ``binomtest(2, 2)`` =
        0.5, not ``binomtest(2, 3)`` = 0.75."""
        config = _tiny_config(algorithms=("euclidean", "rf-svm", "lrf-2svms", "lrf-csvm"))
        seeds = (21, 22, 26)
        record = claims(config, seeds)
        assert [run["seed"] for run in record["per_seed"]] == list(seeds)
        expected = [
            run_paper_experiment(
                replace(
                    config,
                    dataset=replace(config.dataset, seed=seed),
                    log=replace(config.log, seed=seed + 1),
                )
            )
            for seed in seeds
        ]
        summary = record["summary"]["base"]
        assert list(summary) == [f"{a} - {b}" for a, b in PAIRS]
        for a, b in PAIRS:
            stats = summary[f"{a} - {b}"]
            diffs = [t.result(a).map_score - t.result(b).map_score for t in expected]
            assert stats["diffs"] == diffs
            wins, losses = sum(d > TIE for d in diffs), sum(d < -TIE for d in diffs)
            assert (stats["wins"], stats["losses"]) == (wins, losses)
            assert stats["median"] == float(np.median(diffs))
            assert (stats["min"], stats["max"]) == (min(diffs), max(diffs))
            assert stats["p"] == binomtest(wins, wins + losses).pvalue
            per_query = np.subtract(
                [np.mean(list(c.values())) for t in expected for c in t.result(a).per_query],
                [np.mean(list(c.values())) for t in expected for c in t.result(b).per_query],
            )
            assert stats["query_wins"] == int((per_query > 0).sum())
            assert stats["query_losses"] == int((per_query < 0).sum())
        log = summary["lrf-2svms - rf-svm"]
        assert -TIE < log["diffs"][2] < 0.0
        assert (log["wins"], log["losses"], log["p"]) == (2, 0, 0.5)
        assert json.loads(json.dumps(record)) == record
