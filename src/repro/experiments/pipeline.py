"""Shared experiment pipeline: corpus → features → log → service → evaluation."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cbir.database import ImageDatabase
from repro.core.coupled_svm import CoupledSVMConfig
from repro.core.lrf_csvm import LRFCSVM
from repro.datasets.corel import build_corel_dataset
from repro.datasets.dataset import ImageDataset
from repro.evaluation.results import ResultsTable
from repro.evaluation.runner import ExperimentRunner
from repro.experiments.config import ExperimentConfig
from repro.feedback.base import RelevanceFeedbackAlgorithm
from repro.feedback.euclidean import EuclideanFeedback
from repro.feedback.lrf_2svms import LRF2SVMs
from repro.feedback.rf_svm import RFSVM
from repro.logdb.simulation import collect_feedback_log
from repro.service.service import RetrievalService

__all__ = [
    "build_environment",
    "build_service",
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


def build_service(
    config: ExperimentConfig,
    *,
    environment: Optional[Tuple[ImageDataset, ImageDatabase]] = None,
    log_policy: str = "off",
    show_progress: bool = False,
) -> RetrievalService:
    """Build the retrieval service an experiment's simulated users hit.

    The evaluation default is ``log_policy="off"`` — the controlled
    comparison must not grow the very log it evaluates; pass ``"on_close"``
    to study the paper's log-accumulation loop instead.
    """
    if environment is None:
        _, database = build_environment(config, show_progress=show_progress)
    else:
        _, database = environment
    return RetrievalService(database, log_policy=log_policy)


def build_algorithms(config: ExperimentConfig) -> Dict[str, RelevanceFeedbackAlgorithm]:
    """Instantiate the schemes named in ``config.algorithms`` with its parameters."""
    catalogue: Dict[str, RelevanceFeedbackAlgorithm] = {}
    for name in config.algorithms:
        if name == "euclidean":
            catalogue[name] = EuclideanFeedback()
        elif name == "rf-svm":
            catalogue[name] = RFSVM(C=config.svm_C)
        elif name == "lrf-2svms":
            catalogue[name] = LRF2SVMs(C_visual=config.svm_C, C_log=config.svm_C_log)
        elif name == "lrf-csvm":
            catalogue[name] = LRFCSVM(
                config=config.coupled,
                num_unlabeled=config.num_unlabeled,
                random_state=config.protocol.seed,
            )
        elif name == "lrf-graph":
            from repro.graph.feedback import LabelPropagationFeedback

            catalogue[name] = LabelPropagationFeedback(**dict(config.graph_params))
        else:
            from repro.feedback.registry import make_algorithm

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
        Optional pre-built ``(dataset, database)`` pair — the ablation
        drivers reuse one environment across many configurations.
    """
    if environment is None:
        dataset, database = build_environment(config, show_progress=show_progress)
    else:
        dataset, database = environment
    service = build_service(config, environment=(dataset, database))
    runner = ExperimentRunner(
        dataset, database, protocol=config.protocol, service=service
    )
    return runner.run(build_algorithms(config), show_progress=show_progress)
