"""Compare all four retrieval schemes over many queries (a mini Table 1).

This example runs the paper's evaluation protocol — the same one the
paper-fidelity tests and ``python -m repro.experiments.claims`` use — at a
small scale and prints the Table-1-style comparison with improvement
percentages over the RF-SVM baseline, plus the Figure-3-style series.

Run with::

    python examples/log_based_retrieval_comparison.py
"""

from __future__ import annotations

from repro import render_improvement_table, render_series
from repro.datasets.corel import CorelDatasetConfig
from repro.evaluation.protocol import ProtocolConfig
from repro.experiments.config import ExperimentConfig
from repro.experiments.pipeline import run_paper_experiment
from repro.logdb.simulation import LogSimulationConfig


def main() -> None:
    config = ExperimentConfig(
        dataset=CorelDatasetConfig(
            num_categories=15, images_per_category=30, image_size=44, seed=5
        ),
        log=LogSimulationConfig(num_sessions=75, images_per_session=20, seed=6),
        protocol=ProtocolConfig(num_queries=20, num_labeled=20, cutoffs=(20, 40, 60, 80, 100), seed=7),
        num_unlabeled=20,
    )
    print(
        f"Evaluating {len(config.algorithms)} schemes on "
        f"{config.dataset.total_images} images, {config.log.num_sessions} log sessions, "
        f"{config.protocol.num_queries} queries ...\n"
    )
    table = run_paper_experiment(config, show_progress=True)

    print()
    print(render_improvement_table(table, title="Mini Table 1 — average precision by scheme"))
    print()
    print(render_series(table, title="Mini Figure 3 — AP vs. number of images returned"))
    print()
    improvement = table.improvement_over_baseline("lrf-csvm")
    print(f"LRF-CSVM improves MAP over RF-SVM by {improvement:+.1%} on this workload.")


if __name__ == "__main__":
    main()
