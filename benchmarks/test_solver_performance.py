"""Solver-performance benchmarks for the warm-started training pipeline.

Measures what the Gram-caching + warm-start refactor of the coupled SVM
actually buys on the Corel-20 benchmark workload, and asserts the headline
invariants so regressions are caught in CI:

* each modality's training Gram is computed exactly once per
  :meth:`CoupledSVM.fit` (``visual_gram_computations == 1`` etc.);
* the warm-started path performs ≥3× fewer total SMO iterations than the
  cold-start path (``warm_start=False``) aggregated over a bundle of
  feedback rounds;
* kernel-evaluation work is ≥5× below what per-solve Gram rebuilds (the
  pre-caching behaviour) would have cost;
* warm and cold paths produce identical rankings (scores within 1e-6 at a
  tight solver tolerance).

The measured numbers are emitted to ``BENCH_solver.json`` under the
git-ignored ``benchmarks/out/``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cbir.query import Query
from repro.cbir.search import SearchEngine
from repro.core.coupled_svm import CoupledSVM, CoupledSVMConfig
from repro.core.unlabeled_selection import NearLabeledSelection
from repro.datasets.splits import relevance_labels
from repro.svm.svc import SVC

#: Feedback rounds aggregated by the iteration-reduction assertion.
BENCH_QUERY_INDICES = (0, 1, 2, 3, 4, 5, 6, 7)

#: Where the benchmark artifact is written (git-ignored ``benchmarks/out/``).
ARTIFACT_PATH = Path(__file__).resolve().parent / "out" / "BENCH_solver.json"


@pytest.fixture(scope="module")
def coupled_workloads(corel20_environment):
    """Coupled-SVM fit inputs for several Corel-20 feedback rounds.

    Replays the LRF-CSVM pipeline up to the coupled stage: initial search,
    top-20 relevance judgements, selection-stage SVMs, and the near-labeled
    unlabeled selection — yielding exactly the arrays ``CoupledSVM.fit``
    receives in production.
    """
    dataset, database = corel20_environment
    engine = SearchEngine(database)
    features = database.features
    # A small corpus: densify once, explicitly, for the benchmark's slicing.
    log_matrix = database.log_database.relevance_matrix().toarray().T.copy()
    config = CoupledSVMConfig()

    workloads = []
    for query_index in BENCH_QUERY_INDICES:
        initial = engine.search(Query(query_index=query_index), top_k=20)
        labels = relevance_labels(dataset, query_index, initial.image_indices)
        if np.unique(labels).size < 2:
            labels[-1] = -labels[-1]
        labeled_indices = initial.image_indices
        visual_labeled = features[labeled_indices]
        log_labeled = log_matrix[labeled_indices]
        visual_svm = SVC(
            C=config.C_visual, kernel=config.kernel, gamma=config.gamma
        ).fit(visual_labeled, labels)
        log_svm = SVC(C=config.C_log, kernel=config.log_kernel).fit(
            log_labeled, labels
        )
        scores = visual_svm.decision_function(features) + log_svm.decision_function(
            log_matrix
        )
        unlabeled_indices, pseudo_labels = NearLabeledSelection().select(
            scores, labeled_indices, 20
        )
        workloads.append(
            {
                "query_index": query_index,
                "visual_labeled": visual_labeled,
                "log_labeled": log_labeled,
                "labels": labels,
                "visual_unlabeled": features[unlabeled_indices],
                "log_unlabeled": log_matrix[unlabeled_indices],
                "pseudo_labels": pseudo_labels,
                "features": features,
                "log_matrix": log_matrix,
            }
        )
    return workloads


def _fit(workload, config):
    model = CoupledSVM(config)
    start = time.perf_counter()
    model.fit(
        workload["visual_labeled"],
        workload["log_labeled"],
        workload["labels"],
        workload["visual_unlabeled"],
        workload["log_unlabeled"],
        workload["pseudo_labels"].copy(),
    )
    elapsed = time.perf_counter() - start
    return model, elapsed


def test_warm_start_iteration_and_kernel_reduction(coupled_workloads):
    """Warm path: ≥3× fewer SMO iterations, one Gram per modality per fit,
    ≥5× less kernel work than per-solve rebuilds; emits BENCH_solver.json."""
    per_query = []
    total_warm = 0
    total_cold = 0
    for workload in coupled_workloads:
        warm_model, warm_seconds = _fit(workload, CoupledSVMConfig(warm_start=True))
        cold_model, cold_seconds = _fit(workload, CoupledSVMConfig(warm_start=False))
        warm = warm_model.result_
        cold = cold_model.result_

        # The Gram-once invariant holds on both paths (caching is orthogonal
        # to warm starting).
        for result in (warm, cold):
            assert result.visual_gram_computations == 1
            assert result.log_gram_computations == 1

        # Kernel-evaluation work: the cache evaluates each modality's Gram
        # once; the pre-caching pipeline rebuilt both Grams for every AO
        # solve-pair.  solver_iterations carries 2 entries per AO pair plus
        # the two final packaging fits (which the old pipeline's last
        # in-loop training already covered), so those are excluded.
        samples = warm.pseudo_labels.shape[0] + workload["labels"].shape[0]
        per_solve_rebuild = samples * samples
        solve_pairs = (len(warm.solver_iterations) - 2) // 2
        rebuild_equivalent = solve_pairs * 2 * per_solve_rebuild
        assert warm.kernel_evaluations * 5 <= rebuild_equivalent

        total_warm += warm.total_solver_iterations
        total_cold += cold.total_solver_iterations
        per_query.append(
            {
                "query_index": workload["query_index"],
                "warm_iterations": warm.total_solver_iterations,
                "cold_iterations": cold.total_solver_iterations,
                "warm_seconds": warm_seconds,
                "cold_seconds": cold_seconds,
                "kernel_evaluations": warm.kernel_evaluations,
                "rebuild_equivalent_kernel_evaluations": rebuild_equivalent,
                "label_flips": warm.total_flips,
                "solves": len(warm.solver_iterations),
            }
        )

    ratio = total_cold / max(total_warm, 1)
    assert ratio >= 3.0, (
        f"warm-start pipeline must save >=3x SMO iterations, got {ratio:.2f} "
        f"({total_warm} warm vs {total_cold} cold)"
    )

    artifact = {
        "workload": "corel20-bench",
        "queries": list(BENCH_QUERY_INDICES),
        "total_warm_iterations": total_warm,
        "total_cold_iterations": total_cold,
        "iteration_ratio": round(ratio, 3),
        "warm_seconds_total": round(sum(q["warm_seconds"] for q in per_query), 4),
        "cold_seconds_total": round(sum(q["cold_seconds"] for q in per_query), 4),
        "per_query": per_query,
    }
    ARTIFACT_PATH.write_text(json.dumps(artifact, indent=2) + "\n")


def test_warm_start_rankings_identical(coupled_workloads):
    """At tight solver tolerance the two paths rank the database identically."""
    for workload in coupled_workloads[:2]:
        warm_model, _ = _fit(
            workload, CoupledSVMConfig(warm_start=True, tolerance=1e-8)
        )
        cold_model, _ = _fit(
            workload, CoupledSVMConfig(warm_start=False, tolerance=1e-8)
        )
        np.testing.assert_array_equal(
            warm_model.result_.pseudo_labels, cold_model.result_.pseudo_labels
        )
        warm_scores = warm_model.decision_function(
            workload["features"], workload["log_matrix"]
        )
        cold_scores = cold_model.decision_function(
            workload["features"], workload["log_matrix"]
        )
        np.testing.assert_allclose(warm_scores, cold_scores, atol=1e-6)


@pytest.mark.benchmark(group="solver-coupled-fit-warm")
def test_coupled_fit_warm_wallclock(benchmark, coupled_workloads):
    workload = coupled_workloads[0]
    model = benchmark(lambda: _fit(workload, CoupledSVMConfig(warm_start=True))[0])
    assert model.result_.visual_gram_computations == 1


@pytest.mark.benchmark(group="solver-coupled-fit-cold")
def test_coupled_fit_cold_wallclock(benchmark, coupled_workloads):
    workload = coupled_workloads[0]
    model = benchmark(lambda: _fit(workload, CoupledSVMConfig(warm_start=False))[0])
    assert model.result_.visual_gram_computations == 1
