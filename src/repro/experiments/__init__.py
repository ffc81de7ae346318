"""Experiment drivers reproducing the paper's tables and ablations.

* :mod:`~repro.experiments.config` — :class:`ExperimentConfig`, the Table 1
  (20-Category) and Table 2 (50-Category) builders and the one scaled size.
* :mod:`~repro.experiments.pipeline` — corpus → features → log → evaluation
  of one config (:func:`run_paper_experiment`).
* :mod:`~repro.experiments.claims` — ``python -m repro.experiments.claims``:
  every scheme over several seeds, the paired differences of Tables 1–2
  with their spread and a sign test, and one-axis sweeps (ρ, Δ, N′, the
  number of labels, the log's size and noise, the unlabeled selection)
  that each replace one config field.  The package does not import it, so
  ``python -m`` loads it once.

The paper-fidelity tests and the command line go through the same code.
"""

from __future__ import annotations

from repro.experiments.config import SCALED, ExperimentConfig, table1_config, table2_config
from repro.experiments.pipeline import build_environment, run_paper_experiment

__all__ = [
    "ExperimentConfig",
    "SCALED",
    "table1_config",
    "table2_config",
    "build_environment",
    "run_paper_experiment",
]
