"""Configuration of one end-to-end paper experiment.

The paper-scale protocol (2 000–5 000 images, 150 log sessions, 200 queries)
takes minutes on a laptop; tests and quick benches use scaled-down variants
that keep every code path identical while shrinking the workload.  The
``scale`` presets encapsulate both.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.core.coupled_svm import CoupledSVMConfig
from repro.datasets.corel import CorelDatasetConfig
from repro.exceptions import ConfigurationError
from repro.evaluation.protocol import ProtocolConfig
from repro.logdb.simulation import LogSimulationConfig

__all__ = ["ExperimentConfig", "PAPER_SCALE", "SMOKE_SCALE", "BENCH_SCALE"]


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
    svm_C:
        Soft-margin parameter of the visual SVMs (RF-SVM and the visual half
        of LRF-2SVMs).
    svm_C_log:
        Soft-margin parameter of the log SVM in LRF-2SVMs.
    algorithms:
        The schemes to evaluate, in table column order.
    """

    dataset: CorelDatasetConfig = field(default_factory=CorelDatasetConfig)
    log: LogSimulationConfig = field(default_factory=LogSimulationConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    coupled: CoupledSVMConfig = field(default_factory=CoupledSVMConfig)
    num_unlabeled: int = 20
    svm_C: float = 10.0
    svm_C_log: float = 0.5
    algorithms: Tuple[str, ...] = ("euclidean", "rf-svm", "lrf-2svms", "lrf-csvm")

    def __post_init__(self) -> None:
        if self.num_unlabeled < 2:
            raise ConfigurationError(f"num_unlabeled must be >= 2, got {self.num_unlabeled}")
        if self.svm_C <= 0:
            raise ConfigurationError(f"svm_C must be positive, got {self.svm_C}")
        if self.svm_C_log <= 0:
            raise ConfigurationError(f"svm_C_log must be positive, got {self.svm_C_log}")
        if not self.algorithms:
            raise ConfigurationError("algorithms must not be empty")
        max_cutoff = max(self.protocol.cutoffs)
        if max_cutoff > self.dataset.total_images:
            raise ConfigurationError(
                f"the largest cutoff ({max_cutoff}) exceeds the dataset size "
                f"({self.dataset.total_images})"
            )

    # ---------------------------------------------------------------- presets
    def scaled(
        self,
        *,
        images_per_category: Optional[int] = None,
        num_queries: Optional[int] = None,
        num_sessions: Optional[int] = None,
    ) -> "ExperimentConfig":
        """Return a copy with a smaller workload but identical structure."""
        dataset = self.dataset
        if images_per_category is not None:
            dataset = replace(dataset, images_per_category=images_per_category)
        log = self.log
        if num_sessions is not None:
            log = replace(log, num_sessions=num_sessions)
        protocol = self.protocol
        if num_queries is not None:
            protocol = replace(protocol, num_queries=num_queries)
        return replace(self, dataset=dataset, log=log, protocol=protocol)


#: Paper-scale preset: 100 images per category, 150 log sessions, 200 queries.
PAPER_SCALE = {
    "images_per_category": 100,
    "num_sessions": 150,
    "num_queries": 200,
}

#: Scaled preset (``--quick`` runs, paper-fidelity tests): small enough
#: for a run of seconds while still exercising every stage at a
#: statistically meaningful size.
BENCH_SCALE = {
    "images_per_category": 30,
    "num_sessions": 60,
    "num_queries": 30,
}

#: Smoke-test preset used by the integration tests.
SMOKE_SCALE = {
    "images_per_category": 12,
    "num_sessions": 20,
    "num_queries": 6,
}
