"""Configuration of one end-to-end paper experiment, and the table builders.

The paper-scale protocol (2 000–5 000 images, 150 log sessions, 200 queries)
is what :func:`table1_config` and :func:`table2_config` build by default.
Every measured claim of this repo also runs at one scaled size,
:data:`SCALED`, which keeps every code path identical while shrinking the
workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.core.coupled_svm import CoupledSVMConfig
from repro.datasets.corel import CorelDatasetConfig
from repro.exceptions import ConfigurationError
from repro.evaluation.protocol import ProtocolConfig
from repro.logdb.simulation import LogSimulationConfig

__all__ = ["ExperimentConfig", "SCALED", "table1_config", "table2_config"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run one of the paper's experiments end to end.

    Attributes
    ----------
    dataset:
        Synthetic corpus configuration (categories, images, resolution).
    log:
        Feedback-log collection campaign configuration.
    protocol:
        Evaluation protocol configuration (queries, labelled images, cutoffs).
    coupled:
        Coupled-SVM hyper-parameters used by LRF-CSVM.
    num_unlabeled:
        Number of unlabeled samples ``N'`` engaged by LRF-CSVM.
    selection:
        LRF-CSVM's unlabeled-selection strategy (``"near-labeled"``,
        ``"boundary"`` or ``"random"``).
    algorithms:
        The schemes to evaluate, in table column order.  Every scheme but
        LRF-CSVM runs with its registry defaults.
    """

    dataset: CorelDatasetConfig = field(default_factory=CorelDatasetConfig)
    log: LogSimulationConfig = field(default_factory=LogSimulationConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    coupled: CoupledSVMConfig = field(default_factory=CoupledSVMConfig)
    num_unlabeled: int = 20
    selection: str = "near-labeled"
    algorithms: Tuple[str, ...] = ("euclidean", "rf-svm", "lrf-2svms", "lrf-csvm")

    def __post_init__(self) -> None:
        if self.num_unlabeled < 2:
            raise ConfigurationError(f"num_unlabeled must be >= 2, got {self.num_unlabeled}")
        if not self.algorithms:
            raise ConfigurationError("algorithms must not be empty")
        max_cutoff = max(self.protocol.cutoffs)
        if max_cutoff > self.dataset.total_images:
            raise ConfigurationError(
                f"the largest cutoff ({max_cutoff}) exceeds the dataset size "
                f"({self.dataset.total_images})"
            )


#: The scaled size of every measured claim (scaled Table 1 in ``PAPER.md``,
#: the paper-fidelity fixtures): a run of seconds per seed.
SCALED = {
    "images_per_category": 30,
    "num_sessions": 90,
    "num_queries": 30,
}


def _table_config(
    num_categories: int,
    images_per_category: int,
    num_sessions: int,
    num_queries: int,
    seed: int,
) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=CorelDatasetConfig(
            num_categories=num_categories, images_per_category=images_per_category, seed=seed
        ),
        log=LogSimulationConfig(num_sessions=num_sessions, seed=seed + 1),
        protocol=ProtocolConfig(num_queries=num_queries),
    )


def table1_config(
    *,
    images_per_category: int = 100,
    num_sessions: int = 150,
    num_queries: int = 200,
    seed: int = 7,
) -> ExperimentConfig:
    """Build the Table 1 / Figure 3 configuration (20 categories).

    The defaults reproduce the paper-scale protocol; ``table1_config(**SCALED)``
    is the scaled one.  The dataset is drawn at *seed*, its log at ``seed + 1``.
    """
    return _table_config(20, images_per_category, num_sessions, num_queries, seed)


def table2_config(
    *,
    images_per_category: int = 100,
    num_sessions: int = 150,
    num_queries: int = 200,
    seed: int = 11,
) -> ExperimentConfig:
    """Build the Table 2 / Figure 4 configuration (50 categories)."""
    return _table_config(50, images_per_category, num_sessions, num_queries, seed)
