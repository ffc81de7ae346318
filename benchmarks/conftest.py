"""Shared fixtures for the benchmark harness.

Every table/figure benchmark reuses the same scaled-down (but structurally
identical) environments so that one pytest-benchmark session regenerates all
of the paper's results in a few minutes.  The paper-scale protocol can be run
with ``python -m repro.experiments.corel20`` / ``corel50``.

Environments are session-scoped: corpus rendering and feature extraction are
paid once, and the benchmarked body is the evaluation protocol itself.

Every artifact is written under ``benchmarks/out/`` (git-ignored), so a
test run never modifies a tracked file; the ``BENCH_*.json`` at the
repository root are the numbers recorded by earlier PRs.  At session end
the individual ``BENCH_*.json`` artifacts in ``benchmarks/out/`` —
``BENCH_solver`` / ``BENCH_index`` / ``BENCH_service`` / ``BENCH_logdb`` /
``BENCH_obs`` (the observability
overhead numbers from ``test_obs_overhead.py``) / ``BENCH_cluster`` (the
multi-process soak from ``test_cluster_soak.py``) / ``BENCH_graph`` (the
graph-feedback cost/quality numbers from
``test_graph_performance.py``) — are folded into one
machine-readable ratchet file, ``BENCH_summary.json`` (see
:func:`pytest_sessionfinish`), so the perf trajectory across PRs can be
consumed by tooling without globbing.

Long-running multi-process benchmarks carry the ``soak`` marker; deselect
them with ``-m "not soak"`` when iterating on something else.  Soak tests
additionally run under a per-test wall-clock guard (see
:func:`pytest_runtest_call`): a wedged multi-process run fails loudly with
a :class:`TimeoutError` instead of stalling the whole session.  The guard
budget is ``REPRO_SOAK_TIMEOUT`` seconds (default 900) — raise it when
running the full-scale soak (``REPRO_SOAK_FULL=1``), which drives a bigger
pool, more clients and the extra chaos phase.
"""

from __future__ import annotations

import json
import os
import signal
import threading
from pathlib import Path

import pytest

from repro.experiments.config import BENCH_SCALE, ExperimentConfig
from repro.experiments.corel20 import table1_config
from repro.experiments.corel50 import table2_config
from repro.experiments.pipeline import build_environment

#: Where benchmarks drop their ``BENCH_*.json`` artifacts (git-ignored).
ARTIFACT_DIR = Path(__file__).resolve().parent / "out"

#: The aggregated ratchet file.
SUMMARY_PATH = ARTIFACT_DIR / "BENCH_summary.json"

#: Number of evaluation queries used by the benchmark runs.  Large enough for
#: stable orderings, small enough for pytest-benchmark wall-clock budgets.
BENCH_QUERIES = 30


def _bench_table1_config() -> ExperimentConfig:
    return table1_config(
        images_per_category=BENCH_SCALE["images_per_category"],
        num_sessions=90,
        num_queries=BENCH_QUERIES,
    )


def _bench_table2_config() -> ExperimentConfig:
    return table2_config(
        images_per_category=20,
        num_sessions=120,
        num_queries=BENCH_QUERIES,
    )


@pytest.fixture(scope="session")
def corel20_config() -> ExperimentConfig:
    """Scaled Table-1/Figure-3 configuration (20 categories)."""
    return _bench_table1_config()


@pytest.fixture(scope="session")
def corel50_config() -> ExperimentConfig:
    """Scaled Table-2/Figure-4 configuration (50 categories)."""
    return _bench_table2_config()


@pytest.fixture(scope="session")
def corel20_environment(corel20_config):
    """Rendered 20-category corpus + simulated log (built once per session)."""
    return build_environment(corel20_config)


@pytest.fixture(scope="session")
def corel50_environment(corel50_config):
    """Rendered 50-category corpus + simulated log (built once per session)."""
    return build_environment(corel50_config)


#: Per-test wall-clock ceiling (seconds) for ``soak``-marked tests.
SOAK_TIMEOUT_SECONDS = float(os.environ.get("REPRO_SOAK_TIMEOUT", "900"))


def pytest_configure(config):
    """Create the artifact directory; register the benchmark-local markers."""
    ARTIFACT_DIR.mkdir(exist_ok=True)
    config.addinivalue_line(
        "markers",
        "soak: long-running multi-process soak benchmark "
        '(deselect with -m "not soak")',
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Arm a SIGALRM watchdog around every ``soak``-marked test.

    A multi-process soak that deadlocks (a wedged queue, an orphaned
    worker holding a lock) would otherwise hang the entire tier-1 run
    with no diagnostic.  The alarm turns the hang into an ordinary test
    failure carrying the test's own stack trace.  Skipped silently where
    SIGALRM cannot work (non-main thread, platforms without it).
    """
    usable = (
        item.get_closest_marker("soak") is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _timed_out(signum, frame):
        raise TimeoutError(
            f"soak test exceeded REPRO_SOAK_TIMEOUT="
            f"{SOAK_TIMEOUT_SECONDS:.0f}s wall-clock guard"
        )

    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(max(int(SOAK_TIMEOUT_SECONDS), 1))
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def pytest_sessionfinish(session, exitstatus):
    """Fold every ``BENCH_*.json`` artifact into ``BENCH_summary.json``.

    Keyed by artifact stem (``BENCH_solver`` → warm-start solver, …), with
    each artifact's own JSON embedded verbatim, so the perf trajectory is
    one machine-readable document.  Unreadable artifacts are skipped rather
    than failing the run; the summary is rewritten deterministically
    (sorted keys) so it only churns when a benchmark's numbers do.
    """
    artifacts = {}
    for path in sorted(ARTIFACT_DIR.glob("BENCH_*.json")):
        if path == SUMMARY_PATH:
            continue
        try:
            artifacts[path.stem] = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
    if not artifacts:
        return
    summary = {"version": 1, "artifacts": artifacts}
    SUMMARY_PATH.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
