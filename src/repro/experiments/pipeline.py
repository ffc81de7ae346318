"""Shared experiment pipeline: corpus → features → log → evaluation."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cbir.database import ImageDatabase
from repro.core.lrf_csvm import LRFCSVM
from repro.datasets.corel import build_corel_dataset
from repro.datasets.dataset import ImageDataset
from repro.evaluation.results import ResultsTable
from repro.evaluation.runner import ExperimentRunner
from repro.experiments.config import ExperimentConfig
from repro.feedback.base import RelevanceFeedbackAlgorithm
from repro.feedback.registry import make_algorithm
from repro.logdb.simulation import collect_feedback_log

__all__ = [
    "build_environment",
    "build_algorithms",
    "run_paper_experiment",
]


def build_environment(
    config: ExperimentConfig, *, show_progress: bool = False
) -> Tuple[ImageDataset, ImageDatabase]:
    """Render the corpus, extract features and simulate the feedback log."""
    dataset = build_corel_dataset(config.dataset, show_progress=show_progress)
    log = collect_feedback_log(dataset, config.log)
    return dataset, ImageDatabase(dataset, log_database=log)


def build_algorithms(config: ExperimentConfig) -> Dict[str, RelevanceFeedbackAlgorithm]:
    """Instantiate the schemes named in ``config.algorithms``.

    LRF-CSVM takes the config's coupled-SVM settings, ``N'`` and selection
    strategy, seeded by the protocol; every other scheme its registry
    defaults.
    """
    catalogue: Dict[str, RelevanceFeedbackAlgorithm] = {}
    for name in config.algorithms:
        if name == "lrf-csvm":
            catalogue[name] = LRFCSVM(
                config=config.coupled,
                num_unlabeled=config.num_unlabeled,
                selection=config.selection,
                random_state=config.protocol.seed,
            )
        else:
            catalogue[name] = make_algorithm(name)
    return catalogue


def run_paper_experiment(
    config: ExperimentConfig,
    *,
    show_progress: bool = False,
    environment: Optional[Tuple[ImageDataset, ImageDatabase]] = None,
) -> ResultsTable:
    """Run one full table/figure experiment and return the results table.

    Parameters
    ----------
    config:
        The experiment configuration.
    show_progress:
        Print progress lines for feature extraction and evaluation.
    environment:
        Optional pre-built ``(dataset, database)`` pair —
        :func:`repro.experiments.claims.sweep` reuses one across many
        configurations.
    """
    if environment is None:
        environment = build_environment(config, show_progress=show_progress)
    dataset, database = environment
    runner = ExperimentRunner(dataset, database, protocol=config.protocol)
    return runner.run(build_algorithms(config), show_progress=show_progress)
