"""Table 1 / Figure 3: the 20-Category experiment.

Run from the command line with::

    python -m repro.experiments.corel20            # paper scale
    python -m repro.experiments.corel20 --quick    # scaled-down sanity run
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro.datasets.corel import CorelDatasetConfig
from repro.evaluation.reporting import render_improvement_table, render_series
from repro.evaluation.results import ResultsTable
from repro.experiments.config import BENCH_SCALE, PAPER_SCALE, ExperimentConfig
from repro.experiments.pipeline import run_paper_experiment
from repro.logdb.simulation import LogSimulationConfig

__all__ = ["table1_config", "run_corel20_experiment"]


def table1_config(
    *,
    images_per_category: int = 100,
    num_sessions: int = 150,
    num_queries: int = 200,
    seed: int = 7,
) -> ExperimentConfig:
    """Build the Table 1 / Figure 3 configuration (20 categories).

    The defaults reproduce the paper-scale protocol; the keyword arguments
    let tests and benches shrink the workload without changing its shape.
    """
    base = ExperimentConfig(
        dataset=CorelDatasetConfig(num_categories=20, seed=seed),
        log=LogSimulationConfig(num_sessions=num_sessions, seed=seed + 1),
    )
    return base.scaled(
        images_per_category=images_per_category,
        num_queries=num_queries,
        num_sessions=num_sessions,
    )


def run_corel20_experiment(
    config: Optional[ExperimentConfig] = None, *, show_progress: bool = False
) -> ResultsTable:
    """Run the 20-Category experiment and return its results table."""
    cfg = config if config is not None else table1_config()
    return run_paper_experiment(cfg, show_progress=show_progress)


def _main() -> None:
    parser = argparse.ArgumentParser(description="Reproduce Table 1 / Figure 3 (20-Category)")
    parser.add_argument(
        "--quick", action="store_true",
        help="run a scaled-down version (minutes instead of tens of minutes)",
    )
    args = parser.parse_args()
    scale = BENCH_SCALE if args.quick else PAPER_SCALE
    config = table1_config(
        images_per_category=scale["images_per_category"],
        num_sessions=scale["num_sessions"],
        num_queries=scale["num_queries"],
    )
    table = run_corel20_experiment(config, show_progress=True)
    print(render_improvement_table(table, title="Table 1 — 20-Category dataset"))
    print()
    print(render_series(table, title="Figure 3 — AP vs. number of images returned"))


if __name__ == "__main__":
    _main()
