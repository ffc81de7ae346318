"""Index-serving benchmarks: recall@20 and queries/sec per ANN backend.

Measures what the ``repro.index`` subsystem buys at serving time on an
enlarged synthetic pool (far beyond what a rendered corpus could afford)
and asserts the headline invariants so regressions are caught in CI:

* **IVF** reaches ≥ 0.9 recall@20 against the exact brute-force oracle
  while answering ≥ 5× more queries/sec on the benchmark pool;
* the candidate-pruned LRF-CSVM feedback round at exhaustive index settings
  reproduces the exact-path top-20 image-for-image.

KD-tree is exercised on a separate low-dimensional pool — branch-and-bound
pruning is a low-d technique, and benchmarking it where it structurally
cannot win would say nothing about the implementation.

The measured numbers are emitted to ``BENCH_index.json`` under the
git-ignored ``benchmarks/out/`` (alongside ``BENCH_solver.json``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cbir.database import ImageDatabase
from repro.cbir.query import Query
from repro.cbir.search import SearchEngine
from repro.core.lrf_csvm import LRFCSVM
from repro.datasets.corel import CorelDatasetConfig, build_corel_dataset
from repro.datasets.pool import GaussianPoolConfig, make_gaussian_pool
from repro.datasets.splits import relevance_labels
from repro.feedback.base import FeedbackContext
from repro.index import BruteForceIndex, IVFIndex, KDTreeIndex, LSHIndex
from repro.logdb.simulation import LogSimulationConfig, collect_feedback_log

#: Where the benchmark artifact is written (git-ignored ``benchmarks/out/``).
ARTIFACT_PATH = Path(__file__).resolve().parent / "out" / "BENCH_index.json"

#: Recall cutoff of the quality assertions.
RECALL_K = 20

#: The main benchmark pool: large enough that a dense scan visibly hurts.
POOL_CONFIG = GaussianPoolConfig(
    num_vectors=100_000, dim=16, num_clusters=96, cluster_std=0.15, num_queries=100, seed=17
)

#: Low-dimensional pool where the KD-tree's pruning is structurally effective.
LOW_DIM_POOL_CONFIG = GaussianPoolConfig(
    num_vectors=20_000, dim=6, num_clusters=48, cluster_std=0.2, num_queries=50, seed=23
)


def _measure(index, vectors, queries, oracle_indices=None):
    """Build + search timings, qps and recall@20 for one backend."""
    start = time.perf_counter()
    index.build(vectors)
    build_seconds = time.perf_counter() - start
    # One warm-up pass, then the measured pass.
    index.search(queries[:4], RECALL_K)
    start = time.perf_counter()
    _, indices = index.search(queries, RECALL_K)
    search_seconds = time.perf_counter() - start
    record = {
        "build_seconds": round(build_seconds, 4),
        "search_seconds": round(search_seconds, 4),
        "queries_per_second": round(queries.shape[0] / search_seconds, 1),
    }
    if oracle_indices is None:
        record["recall_at_20"] = 1.0
    else:
        hits = sum(
            len(set(row.tolist()) & set(truth.tolist()))
            for row, truth in zip(indices, oracle_indices)
        )
        record["recall_at_20"] = round(hits / oracle_indices.size, 4)
    return record, indices


@pytest.fixture(scope="module")
def artifact():
    """Collects every section; written to BENCH_index.json on teardown."""
    document = {}
    yield document
    ARTIFACT_PATH.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def test_ivf_and_lsh_vs_brute_force(artifact):
    """IVF must reach ≥0.9 recall@20 at ≥5× the brute-force queries/sec."""
    vectors, queries = make_gaussian_pool(POOL_CONFIG)
    brute, oracle_indices = _measure(BruteForceIndex(), vectors, queries)
    ivf, _ = _measure(
        IVFIndex(n_clusters=128, n_probe=4, kmeans_iters=8, train_size=20_000, seed=29),
        vectors,
        queries,
        oracle_indices,
    )
    lsh, _ = _measure(
        LSHIndex(num_tables=8, num_bits=14, seed=29), vectors, queries, oracle_indices
    )
    ivf["speedup_vs_brute_force"] = round(
        ivf["queries_per_second"] / brute["queries_per_second"], 2
    )
    lsh["speedup_vs_brute_force"] = round(
        lsh["queries_per_second"] / brute["queries_per_second"], 2
    )
    artifact["pool"] = {
        "num_vectors": POOL_CONFIG.num_vectors,
        "dim": POOL_CONFIG.dim,
        "num_clusters": POOL_CONFIG.num_clusters,
        "num_queries": POOL_CONFIG.num_queries,
        "recall_cutoff": RECALL_K,
    }
    artifact["backends"] = {"brute-force": brute, "ivf": ivf, "lsh": lsh}

    assert ivf["recall_at_20"] >= 0.9, (
        f"IVF recall@20 must stay >= 0.9, got {ivf['recall_at_20']}"
    )
    assert ivf["speedup_vs_brute_force"] >= 5.0, (
        f"IVF must answer >=5x the brute-force queries/sec, got "
        f"{ivf['speedup_vs_brute_force']}x "
        f"({ivf['queries_per_second']} vs {brute['queries_per_second']} qps)"
    )


def test_kd_tree_low_dimensional_pool(artifact):
    """KD-tree is exact; record its qps where pruning can actually work."""
    vectors, queries = make_gaussian_pool(LOW_DIM_POOL_CONFIG)
    brute, oracle_indices = _measure(BruteForceIndex(), vectors, queries)
    kd, kd_indices = _measure(KDTreeIndex(leaf_size=40), vectors, queries, oracle_indices)
    kd["speedup_vs_brute_force"] = round(
        kd["queries_per_second"] / brute["queries_per_second"], 2
    )
    artifact["low_dim_pool"] = {
        "num_vectors": LOW_DIM_POOL_CONFIG.num_vectors,
        "dim": LOW_DIM_POOL_CONFIG.dim,
        "num_queries": LOW_DIM_POOL_CONFIG.num_queries,
        "backends": {"brute-force": brute, "kd-tree": kd},
    }
    # Exactness, not just recall: the rankings are identical.
    np.testing.assert_array_equal(kd_indices, oracle_indices)
    assert kd["recall_at_20"] == 1.0


class _FullPoolPruned(LRFCSVM):
    """Keeps the restricted-pool scoring machinery engaged at full coverage.

    Production short-circuits full coverage to the zero-copy exact path, so
    the bit-for-bit reproduction below would otherwise never execute the
    candidate mapping / restricted fit / score scatter it is meant to pin.
    """

    def _candidate_set(self, context):
        return self._probe_candidates(context)


def test_candidate_pruned_feedback_reproduces_exact_top20(artifact):
    """Exhaustive-settings pruned LRF-CSVM == exact LRF-CSVM, top-20-for-top-20."""
    dataset = build_corel_dataset(
        CorelDatasetConfig(num_categories=10, images_per_category=15, image_size=32, seed=3)
    )
    log = collect_feedback_log(
        dataset,
        LogSimulationConfig(num_sessions=40, images_per_session=10, noise_rate=0.1, seed=9),
    )
    database = ImageDatabase(dataset, log_database=log)
    engine = SearchEngine(database)

    matches = []
    for query_index in (0, 17, 60):
        initial = engine.search(Query(query_index=query_index), top_k=20)
        labels = relevance_labels(dataset, query_index, initial.image_indices)
        if np.unique(labels).size < 2:
            labels[-1] = -labels[-1]
        context = FeedbackContext(
            database=database,
            query=Query(query_index=query_index),
            labeled_indices=initial.image_indices,
            labels=labels,
        )
        exact = LRFCSVM(random_state=7).rank(context, top_k=20)
        database.build_index("ivf", n_clusters=8, n_probe=8, seed=5)
        try:
            pruned = _FullPoolPruned(
                random_state=7, candidate_size=database.num_images
            ).rank(context, top_k=20)
        finally:
            database.detach_index()
        identical = bool(np.array_equal(pruned.image_indices, exact.image_indices))
        matches.append({"query_index": query_index, "top20_identical": identical})
        np.testing.assert_array_equal(pruned.image_indices, exact.image_indices)
        np.testing.assert_allclose(pruned.scores, exact.scores)

    artifact["feedback_candidate_pruning"] = {
        "index": "ivf (n_probe = n_clusters, exhaustive)",
        "candidate_size": database.num_images,
        "queries": matches,
    }
