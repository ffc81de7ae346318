"""Parallel-serving benchmark: wave throughput vs serial dispatch.

Measures what :class:`ParallelScheduler`-backed wave serving buys over the
naive single-threaded baseline on the 100k×36 pool and asserts the headline
invariants so regressions are caught in CI:

* **session throughput** — serving 64 complete sessions (open → 2 feedback
  rounds → close) as waves through a ``scheduler="parallel"`` service is
  ≥2× faster than dispatching the same 64 sessions one call at a time
  through a serial service;
* **bit-identity** — every session's per-round rankings and every log
  record produced by the parallel run are identical to the serial run
  (parallel serving is a wall-clock optimisation, never a result change).

The wave win is batching + lock-free read sharing and holds on any machine;
the thread pool's additional solver fan-out scales with cores (NumPy
releases the GIL in the dense kernels), so the artifact also records
``cpu_count``/``max_workers`` — compare ``BENCH_parallel.json`` across
hosts to see the scaling.  Results land under the git-ignored
``benchmarks/out/`` alongside ``BENCH_solver.json`` / ``BENCH_index.json`` /
``BENCH_service.json``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cbir.database import ImageDatabase
from repro.datasets.pool import GaussianPoolConfig, make_pool_dataset
from repro.service import FeedbackRequest, RetrievalService, SearchRequest

#: Where the benchmark artifact is written (git-ignored ``benchmarks/out/``).
ARTIFACT_PATH = Path(__file__).resolve().parent / "out" / "BENCH_parallel.json"

#: Concurrent sessions served per wave.
NUM_SESSIONS = 64

#: Initial-ranking size (the paper's top-20 labelling budget).
TOP_K = 20

#: Feedback rounds per session.
NUM_ROUNDS = 2

#: The 100k serving pool at the corpus' composite-feature dimensionality.
POOL_CONFIG = GaussianPoolConfig(
    num_vectors=100_000, dim=36, num_clusters=96, cluster_std=0.15,
    num_queries=NUM_SESSIONS, seed=43,
)

#: Minimum accepted end-to-end session-throughput speedup of parallel wave
#: serving over single-threaded per-session dispatch.
MIN_SPEEDUP = 2.0


@pytest.fixture(scope="module")
def pool():
    """The 100k pool (dataset + query vectors), built once for the module."""
    return make_pool_dataset(POOL_CONFIG, name="parallel-pool-100k")


def _database(pool):
    """A fresh database + exact index (fresh log) for one measured run."""
    dataset, _ = pool
    database = ImageDatabase(dataset)
    database.build_index("brute-force")
    return database


def _requests(database, queries):
    transformed = database.transform_external_features(queries)
    return [
        SearchRequest(query=vector, top_k=TOP_K, algorithm="euclidean")
        for vector in transformed[:NUM_SESSIONS]
    ]


def _alternating_judgements(image_indices):
    """Synthetic ±1 judgements (rank-alternating), deterministic per ranking."""
    return {int(index): (1 if rank % 2 == 0 else -1)
            for rank, index in enumerate(image_indices)}


def _log_records(database):
    """The grown log as comparable (query_index, judgements) tuples."""
    return [
        (session.query_index, json.dumps(dict(session.judgements), sort_keys=True))
        for session in database.log_database.sessions
    ]


def _serve_serial(pool):
    """Baseline: one session at a time, one call at a time (no waves)."""
    dataset, queries = pool
    database = _database(pool)
    service = RetrievalService(database, log_policy="on_close")
    rankings = []
    for request in _requests(database, queries):
        response = service.open_session(request)
        per_round = [np.asarray(response.image_indices).copy()]
        for _ in range(NUM_ROUNDS):
            response = service.submit_feedback(
                FeedbackRequest(
                    session_id=response.session_id,
                    judgements=_alternating_judgements(response.image_indices),
                    top_k=TOP_K,
                )
            )
            per_round.append(np.asarray(response.image_indices).copy())
        service.close_session(response.session_id)
        rankings.append(per_round)
    return rankings, _log_records(database)


def _serve_parallel(pool):
    """Wave serving on the parallel scheduler (batched flushes + thread pool)."""
    dataset, queries = pool
    database = _database(pool)
    service = RetrievalService(
        database, log_policy="on_close", scheduler="parallel"
    )
    responses = service.open_sessions(_requests(database, queries))
    rankings = [[np.asarray(r.image_indices).copy()] for r in responses]
    for _ in range(NUM_ROUNDS):
        responses = service.submit_feedback_batch(
            [
                FeedbackRequest(
                    session_id=response.session_id,
                    judgements=_alternating_judgements(response.image_indices),
                    top_k=TOP_K,
                )
                for response in responses
            ]
        )
        for position, response in enumerate(responses):
            rankings[position].append(np.asarray(response.image_indices).copy())
    service.close_sessions([r.session_id for r in responses])
    service.shutdown()
    return rankings, _log_records(database)


def _best_of(runs, body):
    """Best wall-clock of *runs* executions (robust to suite-level noise)."""
    best_seconds, last_result = float("inf"), None
    for _ in range(runs):
        start = time.perf_counter()
        last_result = body()
        best_seconds = min(best_seconds, time.perf_counter() - start)
    return best_seconds, last_result


def test_parallel_wave_serving_speedup_and_bit_identity(pool):
    """Parallel wave serving ≥2× over serial dispatch on the 100k pool,
    with bit-identical per-session rankings and log records."""
    _serve_parallel(pool)  # warm-up: page the pool in, spin the pool up
    serial_seconds, (serial_rankings, serial_log) = _best_of(2, lambda: _serve_serial(pool))
    parallel_seconds, (parallel_rankings, parallel_log) = _best_of(
        2, lambda: _serve_parallel(pool)
    )

    # -- bit-identity: rankings per session per round, log record stream ---
    assert len(parallel_rankings) == NUM_SESSIONS
    for serial_session, parallel_session in zip(serial_rankings, parallel_rankings):
        for serial_round, parallel_round in zip(serial_session, parallel_session):
            np.testing.assert_array_equal(serial_round, parallel_round)
    assert serial_log == parallel_log
    assert len(parallel_log) == NUM_SESSIONS * NUM_ROUNDS

    speedup = serial_seconds / parallel_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"parallel wave serving is only {speedup:.2f}x faster than serial "
        f"dispatch (required {MIN_SPEEDUP}x)"
    )

    sessions_per_sec_serial = NUM_SESSIONS / serial_seconds
    sessions_per_sec_parallel = NUM_SESSIONS / parallel_seconds

    artifact = {
        "pool": {
            "num_vectors": POOL_CONFIG.num_vectors,
            "dim": POOL_CONFIG.dim,
            "num_clusters": POOL_CONFIG.num_clusters,
        },
        "num_sessions": NUM_SESSIONS,
        "top_k": TOP_K,
        "feedback_rounds_per_session": NUM_ROUNDS,
        "cpu_count": os.cpu_count(),
        "max_workers": os.cpu_count(),
        "serial_dispatch": {
            "seconds": serial_seconds,
            "sessions_per_sec": sessions_per_sec_serial,
        },
        "parallel_waves": {
            "seconds": parallel_seconds,
            "sessions_per_sec": sessions_per_sec_parallel,
        },
        "speedup": speedup,
        "min_required_speedup": MIN_SPEEDUP,
        "bit_identical": True,
    }
    ARTIFACT_PATH.write_text(json.dumps(artifact, indent=2) + "\n")
    print(
        f"\nparallel service[100k pool]: {sessions_per_sec_parallel:.2f} "
        f"sessions/sec vs {sessions_per_sec_serial:.2f} serial "
        f"({speedup:.2f}x, workers={os.cpu_count()})"
    )
