"""Observability overhead benchmark: disabled ≤2%, enabled fully wired.

Two questions are answered on the PR 3 service-benchmark workload (64
concurrent sessions, 100k-vector pool, two interleaved feedback rounds,
``per_round`` logging):

* **How much does dormant instrumentation cost?**  The disabled-mode cost
  of every instrumented call site is a ``get_hub()`` plus an attribute
  check (or a shared null-instrument method).  We measure that per-event
  cost directly with a tight loop, count the workload's hub events by
  running it once with every hub entry point wrapped, and assert

      events × per_event_cost  ≤  2% × workload_seconds

  — a deterministic bound on the true disabled overhead that does not
  depend on run-to-run timer noise (an A/B wall-clock comparison of two
  identical binaries cannot resolve 2% reliably in CI; the analytic bound
  is *conservative*, because the enabled run visits strictly more hub
  calls than the disabled fast path executes).

* **Does enabling observability change behaviour?**  The same workload
  runs with the hub enabled and an in-memory exporter: rankings must be
  bit-identical to the disabled run, every layer (service, solver,
  index, logdb) must record nonzero metrics, and every feedback
  round must yield a complete span tree (``service.round`` under
  ``service.feedback_batch``, with solver spans beneath).

Measured numbers land in ``BENCH_obs.json`` under the git-ignored
``benchmarks/out/`` and are folded into ``BENCH_summary.json`` there by the
benchmarks conftest.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.cbir.database import ImageDatabase
from repro.datasets.pool import GaussianPoolConfig, make_pool_dataset
from repro.obs import InMemoryExporter, build_span_tree
from repro.service import FeedbackRequest, RetrievalService, SearchRequest

#: Where the benchmark artifact is written (git-ignored ``benchmarks/out/``).
ARTIFACT_PATH = Path(__file__).resolve().parent / "out" / "BENCH_obs.json"

#: Concurrent sessions driven through the service (the PR 3 wave size).
NUM_SESSIONS = 64

#: Initial-ranking size (the paper's top-20 labelling budget).
TOP_K = 20

#: Feedback rounds per session.
NUM_ROUNDS = 2

#: The 100k serving pool — the same scale the PR 3 service benchmark uses.
POOL_CONFIG = GaussianPoolConfig(
    num_vectors=100_000, dim=36, num_clusters=96, cluster_std=0.15,
    num_queries=NUM_SESSIONS, seed=41,
)

#: Maximum accepted disabled-mode overhead (fraction of workload time).
MAX_DISABLED_OVERHEAD = 0.02

#: Tight-loop iterations for the per-event cost measurement.
CALIBRATION_CALLS = 200_000


@pytest.fixture(scope="module")
def pool_database():
    """The 100k pool wrapped as a database with an exact index attached."""
    dataset, queries = make_pool_dataset(POOL_CONFIG, name="obs-pool-100k")
    database = ImageDatabase(dataset)
    database.build_index("brute-force")
    return database, queries


def _alternating_judgements(image_indices):
    return {int(index): (1 if rank % 2 == 0 else -1)
            for rank, index in enumerate(image_indices)}


def _run_workload(database, queries):
    """The PR 3 workload: one open wave, NUM_ROUNDS interleaved feedback
    rounds (``per_round`` logging), one close wave; returns rankings."""
    transformed = database.transform_external_features(queries)
    service = RetrievalService(database, log_policy="per_round")
    responses = service.open_sessions(
        [
            SearchRequest(query=vector, top_k=TOP_K, algorithm="rf-svm")
            for vector in transformed[:NUM_SESSIONS]
        ]
    )
    rankings = [[np.asarray(r.image_indices).copy() for r in responses]]
    current = responses
    for _ in range(NUM_ROUNDS):
        batch = [
            FeedbackRequest(
                session_id=r.session_id,
                judgements=_alternating_judgements(r.image_indices[:TOP_K]),
                top_k=TOP_K,
            )
            for r in current
        ]
        current = service.submit_feedback_batch(batch)
        rankings.append([np.asarray(r.image_indices).copy() for r in current])
    service.close_sessions([r.session_id for r in current])
    service.shutdown()
    return rankings


def _best_of(runs, body):
    best_seconds, last_result = float("inf"), None
    for _ in range(runs):
        start = time.perf_counter()
        last_result = body()
        best_seconds = min(best_seconds, time.perf_counter() - start)
    return best_seconds, last_result


def _per_event_disabled_cost():
    """Seconds per instrumented call site with the hub disabled — the
    worst of the counter, histogram and span fast paths."""
    obs.disable()
    get_hub = obs.get_hub
    costs = []
    for op in (
        lambda hub: hub.count("bench.noop"),
        lambda hub: hub.observe("bench.noop", 0.0),
        lambda hub: hub.span("bench.noop"),
    ):
        start = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            op(get_hub())
        costs.append((time.perf_counter() - start) / CALIBRATION_CALLS)
    return max(costs)


def _count_hub_events(database, queries):
    """Run the workload once with every hub entry point wrapped; returns
    (calls, rankings).  An upper bound on the disabled run's event count:
    disabled call sites early-out before reaching most of these calls."""
    hub = obs.configure()
    calls = {"n": 0}
    for name in ("count", "observe", "set_gauge", "span", "timer"):
        original = getattr(hub, name)

        def wrapped(*args, _original=original, **kwargs):
            calls["n"] += 1
            return _original(*args, **kwargs)

        setattr(hub, name, wrapped)
    try:
        rankings = _run_workload(database, queries)
    finally:
        obs.disable()
    return calls["n"], rankings


def test_disabled_overhead_within_two_percent(pool_database):
    """events × per-event disabled cost ≤ 2% of the workload wall-clock."""
    database, queries = pool_database

    obs.disable()
    _run_workload(database, queries)  # warm-up: page in pool + allocators
    disabled_seconds, disabled_rankings = _best_of(
        3, lambda: _run_workload(database, queries)
    )

    per_event_seconds = _per_event_disabled_cost()
    num_events, counted_rankings = _count_hub_events(database, queries)

    estimated_overhead_seconds = num_events * per_event_seconds
    overhead_fraction = estimated_overhead_seconds / disabled_seconds
    assert overhead_fraction <= MAX_DISABLED_OVERHEAD, (
        f"disabled observability costs {overhead_fraction:.4%} of the service "
        f"workload ({num_events} hub events × {per_event_seconds * 1e9:.0f} ns "
        f"against {disabled_seconds:.3f}s); required ≤ "
        f"{MAX_DISABLED_OVERHEAD:.0%}"
    )

    # The instrumented-and-counted run must rank identically too (rf-svm is
    # log-independent, so the growing per_round log cannot perturb it).
    for round_disabled, round_counted in zip(disabled_rankings, counted_rankings):
        for a, b in zip(round_disabled, round_counted):
            np.testing.assert_array_equal(a, b)

    # ---- enabled run: full wiring, bit-identical rankings ----------------
    exporter = InMemoryExporter()
    hub = obs.configure(exporters=[exporter])
    try:
        enabled_seconds, enabled_rankings = _best_of(
            1, lambda: _run_workload(database, queries)
        )
        snapshot = hub.metrics.snapshot()
    finally:
        obs.disable()

    for round_disabled, round_enabled in zip(disabled_rankings, enabled_rankings):
        for a, b in zip(round_disabled, round_enabled):
            np.testing.assert_array_equal(a, b)

    # Nonzero metrics in every instrumented layer.
    def total(name):
        state = snapshot.get(name, {})
        return state.get("value", state.get("count", 0))

    layer_totals = {
        "service": total("service.rounds_scored"),
        "solver": total("solver.smo.solves"),
        "index": total("index.queries"),
        "logdb": total("logdb.sessions_appended"),
    }
    assert all(v > 0 for v in layer_totals.values()), (
        f"every layer must record under the enabled hub: {layer_totals}"
    )
    assert layer_totals["service"] == NUM_SESSIONS * NUM_ROUNDS
    assert layer_totals["logdb"] == NUM_SESSIONS * NUM_ROUNDS

    # Complete span tree per feedback round: every service.round sits under
    # a service.feedback_batch and contains at least one solver solve.
    spans = exporter.spans
    children = {}
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    round_spans = [s for s in spans if s.name == "service.round"]
    assert len(round_spans) == NUM_SESSIONS * NUM_ROUNDS
    for span in round_spans:
        assert by_id[span.parent_id].name == "service.feedback_batch"
        assert any(
            child.name == "solver.smo.solve" for child in children.get(span.span_id, [])
        ), "each feedback round's span must contain its SMO solve"
    assert build_span_tree(spans), "exported spans must reassemble into trees"

    artifact = {
        "pool": {
            "num_vectors": POOL_CONFIG.num_vectors,
            "dim": POOL_CONFIG.dim,
        },
        "num_sessions": NUM_SESSIONS,
        "feedback_rounds_per_session": NUM_ROUNDS,
        "disabled": {
            "workload_seconds": disabled_seconds,
            "hub_events": num_events,
            "per_event_ns": per_event_seconds * 1e9,
            "estimated_overhead_seconds": estimated_overhead_seconds,
            "overhead_fraction": overhead_fraction,
            "max_allowed_fraction": MAX_DISABLED_OVERHEAD,
        },
        "enabled": {
            "workload_seconds": enabled_seconds,
            "spans_exported": len(spans),
            "round_spans": len(round_spans),
            "layer_totals": layer_totals,
            "rankings_bit_identical": True,
        },
    }
    ARTIFACT_PATH.write_text(json.dumps(artifact, indent=2) + "\n")
    print(
        f"\nobs[100k pool]: disabled overhead {overhead_fraction:.4%} "
        f"({num_events} events x {per_event_seconds * 1e9:.0f} ns over "
        f"{disabled_seconds:.2f}s); enabled run exported {len(spans)} spans, "
        f"rankings bit-identical"
    )
