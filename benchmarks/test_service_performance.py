"""Retrieval-service benchmarks: session throughput and micro-batching.

Measures what the session-oriented service buys on the 100k-vector pool and
asserts the headline invariants so regressions are caught in CI:

* **micro-batched first-round search** — opening 64 concurrent sessions
  through :meth:`RetrievalService.open_sessions` (one
  ``VectorIndex.batch_search`` flush) is ≥3× faster than dispatching the
  same 64 sessions one :meth:`open_session` call at a time, and produces
  identical rankings;
* **interleaved feedback rounds** — 64 sessions advancing round-robin
  through the service report sessions/sec and p50 per-round latency.

The measured numbers are emitted to ``BENCH_service.json`` under the
git-ignored ``benchmarks/out/`` (alongside ``BENCH_solver.json`` /
``BENCH_index.json``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cbir.database import ImageDatabase
from repro.datasets.pool import GaussianPoolConfig, make_pool_dataset
from repro.service import FeedbackRequest, RetrievalService, SearchRequest

#: Where the benchmark artifact is written (git-ignored ``benchmarks/out/``).
ARTIFACT_PATH = Path(__file__).resolve().parent / "out" / "BENCH_service.json"

#: Concurrent sessions driven through the service.
NUM_SESSIONS = 64

#: Initial-ranking size (the paper's top-20 labelling budget).
TOP_K = 20

#: The 100k serving pool — same scale as the index benchmark's main pool,
#: at the corpus' composite-feature dimensionality (36).
POOL_CONFIG = GaussianPoolConfig(
    num_vectors=100_000, dim=36, num_clusters=96, cluster_std=0.15,
    num_queries=NUM_SESSIONS, seed=41,
)

#: Minimum accepted speedup of one batched open_sessions() flush over
#: per-session open_session() dispatch.
MIN_BATCH_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def pool_database():
    """The 100k pool wrapped as a database with an exact index attached."""
    dataset, queries = make_pool_dataset(POOL_CONFIG, name="service-pool-100k")
    database = ImageDatabase(dataset)
    database.build_index("brute-force")
    return database, queries


def _requests(database, queries, algorithm):
    transformed = database.transform_external_features(queries)
    return [
        SearchRequest(query=vector, top_k=TOP_K, algorithm=algorithm)
        for vector in transformed[:NUM_SESSIONS]
    ]


def _alternating_judgements(image_indices):
    """Synthetic ±1 judgements (rank-alternating) for throughput runs."""
    return {int(index): (1 if rank % 2 == 0 else -1)
            for rank, index in enumerate(image_indices)}


def _best_of(runs, body):
    """Best wall-clock of *runs* executions (robust to suite-level noise)."""
    best_seconds, last_result = float("inf"), None
    for _ in range(runs):
        start = time.perf_counter()
        last_result = body()
        best_seconds = min(best_seconds, time.perf_counter() - start)
    return best_seconds, last_result


def test_micro_batched_first_round_speedup_and_session_throughput(pool_database):
    """open_sessions() ≥3× over per-session dispatch on the 100k pool, with
    identical rankings; interleaved feedback rounds measured end-to-end."""
    database, queries = pool_database

    def per_query_wave():
        service = RetrievalService(database, log_policy="off")
        return [
            service.open_session(r)
            for r in _requests(database, queries, "rf-svm")
        ]

    def batched_wave():
        service = RetrievalService(database, log_policy="off")
        return service, service.open_sessions(_requests(database, queries, "rf-svm"))

    batched_wave()  # warm-up: page in the pool and the allocator pools
    per_query_seconds, solo_responses = _best_of(3, per_query_wave)
    batched_seconds, (service, responses) = _best_of(3, batched_wave)

    assert len(responses) == NUM_SESSIONS
    for solo, batched in zip(solo_responses, responses):
        np.testing.assert_array_equal(solo.image_indices, batched.image_indices)

    speedup = per_query_seconds / batched_seconds
    assert speedup >= MIN_BATCH_SPEEDUP, (
        f"micro-batched first-round search is only {speedup:.2f}x faster than "
        f"per-query dispatch (required {MIN_BATCH_SPEEDUP}x)"
    )

    # -- interleaved feedback rounds round-robin across all sessions -------
    round_latencies = []
    wave_start = time.perf_counter()
    current = {r.session_id: r for r in responses}
    for _ in range(2):
        for response in responses:
            session_id = response.session_id
            judgements = _alternating_judgements(
                current[session_id].image_indices[:TOP_K]
            )
            tick = time.perf_counter()
            refined = service.submit_feedback(
                FeedbackRequest(
                    session_id=session_id, judgements=judgements, top_k=TOP_K
                )
            )
            round_latencies.append(time.perf_counter() - tick)
            current[session_id] = refined
    service.close_sessions([r.session_id for r in responses])
    wave_seconds = time.perf_counter() - wave_start

    sessions_per_sec = NUM_SESSIONS / wave_seconds
    p50_round_ms = float(np.percentile(np.array(round_latencies) * 1e3, 50))

    artifact = {
        "pool": {
            "num_vectors": POOL_CONFIG.num_vectors,
            "dim": POOL_CONFIG.dim,
            "num_clusters": POOL_CONFIG.num_clusters,
        },
        "num_sessions": NUM_SESSIONS,
        "top_k": TOP_K,
        "feedback_rounds_per_session": 2,
        "first_round": {
            "per_query_seconds": per_query_seconds,
            "batched_seconds": batched_seconds,
            "speedup": speedup,
            "min_required_speedup": MIN_BATCH_SPEEDUP,
        },
        "interleaved": {
            "sessions_per_sec": sessions_per_sec,
            "p50_feedback_round_ms": p50_round_ms,
            "total_seconds": wave_seconds,
        },
    }
    ARTIFACT_PATH.write_text(json.dumps(artifact, indent=2) + "\n")
    print(
        f"\nservice[100k pool]: batched first-round {speedup:.2f}x over "
        f"per-query; {sessions_per_sec:.2f} sessions/sec, "
        f"p50 feedback round {p50_round_ms:.1f} ms"
    )
