"""Log-append hot path: incremental matrix maintenance vs rebuild-per-append.

Before the logdb v2 redesign, ``LogDatabase`` invalidated its cached
relevance matrix on every append, so the serving pattern "append a session,
read R" (exactly what ``log_policy='per_round'`` plus log-based scoring
does) rebuilt the matrix from session zero each round — O(total log) Python
work per append.  The façade now grows the cached CSR matrix by just the
appended suffix (:meth:`RelevanceMatrix.append_sessions`), which turns the
same pattern into O(new judgements) Python work plus one C-level
concatenation.

Asserted invariants (CI):

* appending ``N_SESSIONS`` sessions with a matrix read after every append
  is **≥10× faster** than the rebuild-per-append baseline at N = 2 000;
* the incrementally-grown matrix is **bit-identical** to a from-scratch
  :meth:`RelevanceMatrix.from_sessions` build — same CSR ``data`` /
  ``indices`` / ``indptr``, same dense values.

The artifact also records the file-backed store's batched shipping
throughput (unasserted context).  Results land in ``BENCH_logdb.json`` under
the git-ignored ``benchmarks/out/`` alongside the other ``BENCH_*.json``
artifacts, and the benchmarks conftest folds them all into
``BENCH_summary.json`` there.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import List

import numpy as np

from repro.logdb import FileLogStore, LogDatabase, LogSession, RelevanceMatrix

#: Where the benchmark artifact is written (git-ignored ``benchmarks/out/``).
ARTIFACT_PATH = Path(__file__).resolve().parent / "out" / "BENCH_logdb.json"

#: Appended sessions (the acceptance criterion pins N = 2 000).
N_SESSIONS = 2_000

#: Corpus size and judgements per session (the paper's top-20 labelling,
#: scaled down so the rebuild baseline finishes in CI time).
NUM_IMAGES = 5_000
JUDGEMENTS_PER_SESSION = 6

#: Minimum accepted speedup of incremental maintenance over rebuilds.
MIN_SPEEDUP = 10.0

#: Sessions shipped per batch in the file-store throughput measurement.
FILE_BATCHES = 50
FILE_BATCH_SIZE = 20


def _make_sessions(count: int, *, seed: int = 3) -> List[LogSession]:
    rng = np.random.default_rng(seed)
    sessions = []
    for _ in range(count):
        shown = rng.choice(NUM_IMAGES, size=JUDGEMENTS_PER_SESSION, replace=False)
        sessions.append(
            LogSession(
                judgements={int(i): int(rng.choice([-1, 1])) for i in shown},
                query_index=int(shown[0]),
            )
        )
    return sessions


def _run_incremental(sessions: List[LogSession]) -> tuple[float, RelevanceMatrix]:
    """Append + read R per session through the v2 façade (incremental)."""
    log = LogDatabase(NUM_IMAGES)
    start = time.perf_counter()
    for session in sessions:
        log.record_session(session)
        matrix = log.relevance_matrix()
    elapsed = time.perf_counter() - start
    return elapsed, matrix


def _run_rebuild(sessions: List[LogSession]) -> tuple[float, RelevanceMatrix]:
    """The pre-v2 behaviour: every append invalidates, every read rebuilds."""
    recorded: List[LogSession] = []
    start = time.perf_counter()
    for session in sessions:
        recorded.append(session.with_session_id(len(recorded)))
        matrix = RelevanceMatrix.from_sessions(recorded, num_images=NUM_IMAGES)
    elapsed = time.perf_counter() - start
    return elapsed, matrix


def test_incremental_append_vs_rebuild_per_append():
    sessions = _make_sessions(N_SESSIONS)

    incremental_seconds, incremental = _run_incremental(sessions)
    rebuild_seconds, rebuilt = _run_rebuild(sessions)
    speedup = rebuild_seconds / max(incremental_seconds, 1e-12)

    # ---- bit-identity: incremental growth == from-scratch build ----------
    reference = RelevanceMatrix.from_sessions(
        [s.with_session_id(i) for i, s in enumerate(sessions)],
        num_images=NUM_IMAGES,
    )
    for grown in (incremental, rebuilt):
        a, b = grown.tocsr(), reference.tocsr()
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.indptr, b.indptr)
    assert incremental.shape == (N_SESSIONS, NUM_IMAGES)

    # ---- file-store shipping throughput (context, not asserted) ----------
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        store = FileLogStore(Path(tmp) / "log", num_images=NUM_IMAGES)
        batches = _make_sessions(FILE_BATCHES * FILE_BATCH_SIZE, seed=5)
        start = time.perf_counter()
        for i in range(FILE_BATCHES):
            store.extend(batches[i * FILE_BATCH_SIZE : (i + 1) * FILE_BATCH_SIZE])
        file_seconds = time.perf_counter() - start
        file_sessions_per_second = len(batches) / file_seconds
        assert len(store) == len(batches)

    artifact = {
        "n_sessions": N_SESSIONS,
        "num_images": NUM_IMAGES,
        "judgements_per_session": JUDGEMENTS_PER_SESSION,
        "incremental_seconds": round(incremental_seconds, 4),
        "rebuild_seconds": round(rebuild_seconds, 4),
        "speedup": round(speedup, 2),
        "min_speedup_asserted": MIN_SPEEDUP,
        "appends_per_second_incremental": round(
            N_SESSIONS / incremental_seconds, 1
        ),
        "file_store_sessions_per_second": round(file_sessions_per_second, 1),
        "file_store_batch_size": FILE_BATCH_SIZE,
        "bit_identical_to_from_sessions": True,
    }
    ARTIFACT_PATH.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")

    print()
    print(f"Log-append hot path ({N_SESSIONS} sessions, {NUM_IMAGES}-image pool)")
    print(
        f"  incremental: {incremental_seconds:.3f}s   "
        f"rebuild-per-append: {rebuild_seconds:.3f}s   speedup: {speedup:.1f}x"
    )
    print(
        f"  file-store shipping: {file_sessions_per_second:.0f} sessions/s "
        f"(batches of {FILE_BATCH_SIZE})"
    )

    assert speedup >= MIN_SPEEDUP, (
        f"incremental maintenance must be >={MIN_SPEEDUP}x faster than "
        f"rebuild-per-append, got {speedup:.1f}x "
        f"({incremental_seconds:.3f}s vs {rebuild_seconds:.3f}s)"
    )
