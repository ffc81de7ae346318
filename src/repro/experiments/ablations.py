"""Ablation studies for the design choices discussed in Sections 5 and 6.5.

* **ρ sweep** — the paper notes "the choice of parameter ρ is also important
  for the scheme. Whether existing an optimal parameter ... is still an open
  question"; :func:`run_rho_ablation` sweeps ρ and reports MAP.
* **Unlabeled-selection strategy** — the paper reports that the
  active-learning-style boundary strategy "did not achieve promising
  improvements" compared to the near-labeled strategy;
  :func:`run_selection_ablation` compares near-labeled / boundary / random.
* **Log size and noise** — Section 6.3 argues the algorithm should work even
  with limited and noisy logs; :func:`run_log_ablation` sweeps the number of
  log sessions and the judgement-noise rate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cbir.database import ImageDatabase
from repro.core.lrf_csvm import LRFCSVM
from repro.datasets.dataset import ImageDataset
from repro.evaluation.results import ResultsTable
from repro.evaluation.runner import ExperimentRunner
from repro.experiments.config import ExperimentConfig
from repro.experiments.pipeline import build_environment
from repro.logdb.simulation import LogSimulationConfig, collect_feedback_log

__all__ = [
    "AblationResult",
    "run_rho_ablation",
    "run_selection_ablation",
    "run_log_ablation",
]


@dataclass(frozen=True)
class AblationResult:
    """Outcome of one ablation sweep.

    Attributes
    ----------
    parameter:
        Name of the swept parameter (``"rho"``, ``"selection"``, ...).
    values:
        The parameter values visited, in sweep order.
    map_scores:
        MAP of LRF-CSVM for each parameter value (aligned with *values*).
    tables:
        The full results table for each parameter value.
    """

    parameter: str
    values: Tuple[object, ...]
    map_scores: Tuple[float, ...]
    tables: Tuple[ResultsTable, ...]

    def best_value(self) -> object:
        """Parameter value with the highest MAP."""
        best_index = max(range(len(self.map_scores)), key=lambda i: self.map_scores[i])
        return self.values[best_index]

    def as_rows(self) -> List[Dict[str, object]]:
        """One row per swept value: ``{parameter, map}``."""
        return [
            {self.parameter: value, "map": score}
            for value, score in zip(self.values, self.map_scores)
        ]


def _evaluate_lrf_csvm(
    dataset: ImageDataset,
    database: ImageDatabase,
    config: ExperimentConfig,
    algorithm: LRFCSVM,
) -> ResultsTable:
    runner = ExperimentRunner(dataset, database, protocol=config.protocol)
    return runner.run({"lrf-csvm": algorithm})


def run_rho_ablation(
    config: ExperimentConfig,
    rho_values: Sequence[float] = (0.05, 0.1, 0.25, 0.5, 1.0),
    *,
    environment: Optional[Tuple[ImageDataset, ImageDatabase]] = None,
) -> AblationResult:
    """Sweep the unlabeled-data weight ρ of the coupled SVM."""
    dataset, database = environment or build_environment(config)
    tables: List[ResultsTable] = []
    scores: List[float] = []
    for rho in rho_values:
        coupled = replace(config.coupled, rho=float(rho))
        algorithm = LRFCSVM(
            config=coupled,
            num_unlabeled=config.num_unlabeled,
            random_state=config.protocol.seed,
        )
        table = _evaluate_lrf_csvm(dataset, database, config, algorithm)
        tables.append(table)
        scores.append(table.result("lrf-csvm").map_score)
    return AblationResult(
        parameter="rho",
        values=tuple(rho_values),
        map_scores=tuple(scores),
        tables=tuple(tables),
    )


def run_selection_ablation(
    config: ExperimentConfig,
    strategies: Sequence[str] = ("near-labeled", "boundary", "random"),
    *,
    environment: Optional[Tuple[ImageDataset, ImageDatabase]] = None,
) -> AblationResult:
    """Compare unlabeled-sample selection strategies for LRF-CSVM."""
    dataset, database = environment or build_environment(config)
    tables: List[ResultsTable] = []
    scores: List[float] = []
    for strategy in strategies:
        algorithm = LRFCSVM(
            config=config.coupled,
            num_unlabeled=config.num_unlabeled,
            selection=strategy,
            random_state=config.protocol.seed,
        )
        table = _evaluate_lrf_csvm(dataset, database, config, algorithm)
        tables.append(table)
        scores.append(table.result("lrf-csvm").map_score)
    return AblationResult(
        parameter="selection",
        values=tuple(strategies),
        map_scores=tuple(scores),
        tables=tuple(tables),
    )


def run_log_ablation(
    config: ExperimentConfig,
    session_counts: Sequence[int] = (0, 25, 75, 150),
    noise_rates: Sequence[float] = (0.1,),
    *,
    dataset: Optional[ImageDataset] = None,
) -> AblationResult:
    """Sweep the number of log sessions (and noise rate) available to LRF-CSVM.

    The dataset (and its features) is built once; only the log-collection
    campaign is re-simulated for every swept configuration.
    """
    from repro.datasets.corel import build_corel_dataset

    base_dataset = dataset if dataset is not None else build_corel_dataset(config.dataset)
    values: List[Tuple[int, float]] = []
    tables: List[ResultsTable] = []
    scores: List[float] = []
    for noise in noise_rates:
        for sessions in session_counts:
            log_config = LogSimulationConfig(
                num_sessions=int(sessions),
                images_per_session=config.log.images_per_session,
                noise_rate=float(noise),
                seed=config.log.seed,
            )
            log = collect_feedback_log(base_dataset, log_config)
            database = ImageDatabase(base_dataset, log_database=log)
            algorithm = LRFCSVM(
                config=config.coupled,
                num_unlabeled=config.num_unlabeled,
                random_state=config.protocol.seed,
            )
            table = _evaluate_lrf_csvm(base_dataset, database, config, algorithm)
            values.append((int(sessions), float(noise)))
            tables.append(table)
            scores.append(table.result("lrf-csvm").map_score)
    return AblationResult(
        parameter="log_sessions_noise",
        values=tuple(values),
        map_scores=tuple(scores),
        tables=tuple(tables),
    )
