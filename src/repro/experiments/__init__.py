"""Experiment drivers reproducing every table and figure of the paper.

* :mod:`~repro.experiments.corel20` — Table 1 / Figure 3 (20-Category set).
* :mod:`~repro.experiments.corel50` — Table 2 / Figure 4 (50-Category set).
* :mod:`~repro.experiments.ablations` — the design-choice studies discussed
  in Sections 5 and 6.5 (ρ, unlabeled-selection strategy, log size/noise).

Each driver exposes a configuration builder plus a ``run_*`` function that
returns the populated :class:`~repro.evaluation.results.ResultsTable`; the
paper-fidelity tests and the ``python -m repro.experiments.corel20`` entry
points both go through the same code path.
"""

from __future__ import annotations

from repro.experiments.ablations import (
    AblationResult,
    run_log_ablation,
    run_rho_ablation,
    run_selection_ablation,
)
from repro.experiments.config import ExperimentConfig, PAPER_SCALE, SMOKE_SCALE
from repro.experiments.corel20 import run_corel20_experiment, table1_config
from repro.experiments.corel50 import run_corel50_experiment, table2_config
from repro.experiments.pipeline import build_environment, run_paper_experiment

__all__ = [
    "ExperimentConfig",
    "PAPER_SCALE",
    "SMOKE_SCALE",
    "build_environment",
    "run_paper_experiment",
    "table1_config",
    "run_corel20_experiment",
    "table2_config",
    "run_corel50_experiment",
    "AblationResult",
    "run_rho_ablation",
    "run_selection_ablation",
    "run_log_ablation",
]
