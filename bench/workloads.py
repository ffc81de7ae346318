"""Workload generator, system construction and closed-loop client drivers.

Everything the system under test receives is generated here from the seed
with numpy only: a labelled Gaussian-mixture pool, the query sequence and a
seed feedback log.  The system itself is assembled only through the public
serving surface (``ImageDataset``, ``ImageDatabase``, ``RetrievalService``,
``ClusterRouter``/``ClusterConfig``, the file stores and the DTOs).

Every workload is a **closed loop**: a client sends its next call only after
the previous one returned.  A run serves a fixed number of sessions first
(``Spec.fixed_sessions`` per client — the set quality, digests and traced
counts are computed on, so they repeat exactly) and then keeps serving whole
sessions until the requested number of seconds has passed.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import (
    ClusterConfig,
    ClusterRouter,
    FeedbackRequest,
    FileLogStore,
    FileSessionStore,
    ImageDatabase,
    ImageDataset,
    LogSession,
    RetrievalService,
    SearchRequest,
)

TOP_K = 20
NUM_CATEGORIES = 96
DIMENSION = 36
#: Within-category standard deviation around unit-normal category centres;
#: puts the first-round precision@20 of a 20k pool near 0.3.
CATEGORY_STD = 1.7
SEED_LOG_JUDGEMENTS = 20
SEED_LOG_NOISE = 0.10
#: Queries held back from the measured sequence for warm-up sessions.
WARMUP_QUERIES = 16
PHASES = ("open", "round", "close")


@dataclass(frozen=True)
class Spec:
    """One workload at one scale."""

    name: str
    pool: int
    backend: str  # "memory" | "file" | "cluster"
    log_policy: Optional[str]  # None = the service default (on_close)
    algorithms: Tuple[str, ...]  # cycled per session
    rounds: int
    clients: int
    wave: int  # 0 = per-call sessions, otherwise sessions per wave call
    fixed_sessions: int  # per client; waves when ``wave`` is set
    seed_log: int

    @property
    def grows_log(self) -> bool:
        return self.log_policy is None

    @property
    def learns(self) -> bool:
        return self.algorithms != ("euclidean",)


_CLUSTER_ALGOS = ("rf-svm", "lrf-2svms", "lrf-csvm", "lrf-graph")

SPECS: Dict[str, Dict[str, Spec]] = {
    "full": {
        spec.name: spec
        for spec in (
            Spec("interactive_csvm", 20_000, "memory", "off", ("lrf-csvm",), 3, 1, 0, 24, 200),
            Spec("wave_search", 100_000, "memory", None, ("euclidean",), 1, 1, 32, 40, 200),
            Spec("log_growth", 20_000, "file", None, ("lrf-2svms",), 2, 1, 0, 30, 200),
            Spec("cluster_mixed", 20_000, "cluster", None, _CLUSTER_ALGOS, 3, 2, 0, 16, 200),
        )
    },
    "smoke": {
        spec.name: spec
        for spec in (
            Spec("interactive_csvm", 2_000, "memory", "off", ("lrf-csvm",), 3, 1, 0, 4, 40),
            Spec("wave_search", 2_000, "memory", None, ("euclidean",), 1, 1, 4, 2, 40),
            Spec("log_growth", 2_000, "file", None, ("lrf-2svms",), 2, 1, 0, 4, 40),
            Spec("cluster_mixed", 2_000, "cluster", None, _CLUSTER_ALGOS, 3, 2, 0, 4, 40),
        )
    },
}
WORKLOADS = tuple(SPECS["full"])


# ------------------------------------------------------------------ generator
@dataclass(frozen=True)
class Inputs:
    """Everything generated from the seed for one workload."""

    features: np.ndarray
    labels: np.ndarray
    queries: np.ndarray  # measured query sequence (distinct pool indices)
    warmup_queries: np.ndarray
    seed_log: Tuple[Tuple[int, Tuple[int, ...], Tuple[int, ...]], ...]

    def digest(self) -> str:
        """Content hash of the generated inputs (pool, queries, seed log)."""
        h = hashlib.sha256()
        for array in (self.features, self.labels, self.queries, self.warmup_queries):
            h.update(np.ascontiguousarray(array).tobytes())
        h.update(repr(self.seed_log).encode())
        return h.hexdigest()[:16]


def make_inputs(seed: int, spec: Spec) -> Inputs:
    """Generate the pool, query sequence and seed log: a pure function of
    ``(seed, spec.pool, spec.seed_log)``."""
    rng = np.random.default_rng(int(seed))
    centres = rng.normal(size=(NUM_CATEGORIES, DIMENSION))
    labels = rng.integers(0, NUM_CATEGORIES, size=spec.pool)
    features = rng.normal(size=(spec.pool, DIMENSION))
    features *= CATEGORY_STD
    features += centres[labels]
    order = rng.permutation(spec.pool)
    queries, warmup = order[:-WARMUP_QUERIES], order[-WARMUP_QUERIES:]

    # Seed log: each session is a past user who queried one image, saw its
    # Euclidean top-20 and judged it by category, erring 10% of the time.
    log_queries = rng.integers(0, spec.pool, size=spec.seed_log)
    squared = np.einsum("ij,ij->i", features, features)
    seed_log = []
    for query in log_queries:
        # One pool-length vector at a time: large temporaries cost more in
        # page faults than the arithmetic does.
        distances = squared - 2.0 * (features @ features[query])
        shown = np.sort(np.argpartition(distances, SEED_LOG_JUDGEMENTS)[:SEED_LOG_JUDGEMENTS])
        truth = np.where(labels[shown] == labels[query], 1, -1)
        flips = rng.random(SEED_LOG_JUDGEMENTS) < SEED_LOG_NOISE
        judged = np.where(flips, -truth, truth)
        seed_log.append(
            (int(query), tuple(int(i) for i in shown), tuple(int(v) for v in judged))
        )
    return Inputs(features, labels, queries, warmup, tuple(seed_log))


# --------------------------------------------------------------------- system
class System:
    """The assembled system under test plus the handles checks need."""

    def __init__(self, front, database, log_store, router=None) -> None:
        self.front = front  # RetrievalService or ClusterRouter
        self.database = database
        self.log_store = log_store  # the LogStore the serving path appends to
        self.router = router
        self.ready_log_length = len(log_store)

    def close(self) -> None:
        if self.router is not None:
            self.router.stop()
        else:
            self.front.shutdown()


def build_system(spec: Spec, inputs: Inputs, workdir: Path) -> System:
    """Ingest the generated inputs and return a ready (warmed-up) system."""
    dataset = ImageDataset(
        images=[None] * spec.pool,
        labels=inputs.labels,
        category_names=tuple(f"category-{i}" for i in range(NUM_CATEGORIES)),
        features=inputs.features,
        name=f"bench-{spec.name}",
    )
    seed_sessions = [
        LogSession(judgements=dict(zip(shown, judged)), query_index=query)
        for query, shown, judged in inputs.seed_log
    ]
    router = None
    if spec.backend == "memory":
        database = ImageDatabase(dataset)
        database.build_index("brute-force")
        database.log_database.extend(seed_sessions)
        log_store = database.log_database.store
        kwargs = {} if spec.log_policy is None else {"log_policy": spec.log_policy}
        front = RetrievalService(database, **kwargs)
    else:
        log_store = FileLogStore(workdir / "log", num_images=spec.pool)
        log_store.extend(seed_sessions)
        database = ImageDatabase(dataset, log_database=log_store)
        database.build_index("brute-force")
        if spec.backend == "file":
            front = RetrievalService(
                database, store=FileSessionStore(workdir / "sessions")
            )
        else:
            # Workers fork after the database is built and warmed up in this
            # process, so the pool, the index and the lazily-built visual
            # graph are shared copy-on-write instead of rebuilt per worker.
            warm = RetrievalService(database, log_policy="off")
            _warm_up(System(warm, database, log_store), spec, inputs)
            warm.shutdown()
            front = router = ClusterRouter(
                lambda: database,
                ClusterConfig(
                    session_dir=workdir / "sessions",
                    log_dir=workdir / "log",
                    num_workers=min(2, os.cpu_count() or 1),
                ),
            )
    system = System(front, database, log_store, router)
    try:
        _warm_up(system, spec, inputs)
    except BaseException:
        system.close()
        raise
    return system


def _routed_id(router, base: str, worker: Optional[int]) -> str:
    """*base*, salted until the router's rendezvous hash sends it to *worker*."""
    if worker is None:
        return base
    return next(
        candidate
        for candidate in (f"{base}-{salt}" for salt in range(256))
        if router.worker_for(candidate) == worker
    )


def _warm_up(system: System, spec: Spec, inputs: Inputs) -> None:
    """One discarded session per algorithm (per cluster worker), so lazy
    graph builds, first densifications and BLAS start-up are not timed."""
    front = system.front
    workers = system.router.alive_worker_ids if system.router else [None]
    for position, algorithm in enumerate(spec.algorithms):
        query = int(inputs.warmup_queries[position % WARMUP_QUERIES])
        for worker in workers:
            session_id = _routed_id(system.router, f"warm-{algorithm}", worker)
            response = front.open_session(
                SearchRequest(
                    query=query, top_k=TOP_K, algorithm=algorithm, session_id=session_id
                )
            )
            front.submit_feedback(
                FeedbackRequest(
                    session_id, judge(inputs.labels, query, response), top_k=TOP_K
                )
            )
            front.discard_session(session_id)


def judge(labels: np.ndarray, query: int, response) -> Dict[int, int]:
    """Ground-truth judgements of a response's ranking (the paper's §6.4
    protocol): +1 for images of the query's category, -1 otherwise."""
    category = labels[query]
    return {
        int(i): (1 if labels[i] == category else -1) for i in response.image_indices
    }


# -------------------------------------------------------------------- clients
@dataclass
class SessionLog:
    """What one session returned: (round_index, top-k indices) per response."""

    session_id: str
    query: int
    algorithm: str
    responses: List[Tuple[int, np.ndarray]] = field(default_factory=list)
    closed: bool = False


class Recorder:
    """Per-client call accounting: latency of successes, counts of failures."""

    def __init__(self) -> None:
        self.latency_ms: Dict[str, List[float]] = {phase: [] for phase in PHASES}
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.sessions: List[SessionLog] = []

    def call(self, phase: str, fn: Callable, *args):
        """Time ``fn(*args)``; a raised call is counted as failed, records no
        latency sample and returns ``None``."""
        self.attempted[phase] += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the loop must outlive any one bad call
            self.failed[phase] += 1
            print(f"bench: {phase} call failed: {type(exc).__name__}: {exc}", flush=True)
            return None
        self.latency_ms[phase].append((time.perf_counter() - start) * 1e3)
        return result


def _serve(front, spec: Spec, inputs: Inputs, rec: Recorder, logs: List[SessionLog]) -> None:
    """Open → rounds → close for one wave of sessions (one timed call per
    step); a per-call session is a wave of one through the per-call API."""
    if spec.wave:
        open_, round_, close_ = (
            front.open_sessions, front.submit_feedback_batch, front.close_sessions
        )
    else:
        def open_(requests):
            return [front.open_session(requests[0])]

        def round_(requests):
            return [front.submit_feedback(requests[0])]

        def close_(session_ids):
            return [front.close_session(session_ids[0])]

    responses = rec.call(
        "open",
        open_,
        [
            SearchRequest(
                query=log.query, top_k=TOP_K, algorithm=log.algorithm,
                session_id=log.session_id,
            )
            for log in logs
        ],
    )
    for _ in range(spec.rounds):
        if responses is None:
            return
        for log, response in zip(logs, responses):
            log.responses.append((response.round_index, response.image_indices))
        responses = rec.call(
            "round",
            round_,
            [
                FeedbackRequest(
                    log.session_id, judge(inputs.labels, log.query, response), top_k=TOP_K
                )
                for log, response in zip(logs, responses)
            ],
        )
    if responses is None:
        return
    for log, response in zip(logs, responses):
        log.responses.append((response.round_index, response.image_indices))
    closed = rec.call("close", close_, [log.session_id for log in logs]) is not None
    for log in logs:
        log.closed = closed


def _client_loop(
    system: System, spec: Spec, inputs: Inputs, client: int, rec: Recorder,
    deadline: float, min_rounds: int, inject_bad_call: bool,
) -> None:
    front = system.front
    own_queries = inputs.queries[client :: spec.clients]
    width = max(1, spec.wave)
    # In a cluster each client's sessions are routed to one home worker.
    # Left to the hash, two clients queue on one worker at random moments and
    # open_ms_p50 sits between two modes (20% apart from run to run).
    home = None
    if system.router is not None:
        workers = system.router.alive_worker_ids
        home = workers[client % len(workers)]
    unit = 0  # sessions, or waves
    while (
        unit < spec.fixed_sessions
        or time.perf_counter() < deadline
        or len(rec.latency_ms["round"]) < min_rounds
    ):
        logs = []
        for number in range(unit * width, (unit + 1) * width):
            logs.append(
                SessionLog(
                    session_id=_routed_id(system.router, f"c{client}-{number:06d}", home),
                    query=int(own_queries[number % own_queries.shape[0]]),
                    algorithm=spec.algorithms[number % len(spec.algorithms)],
                )
            )
        _serve(front, spec, inputs, rec, logs)
        rec.sessions.extend(logs)
        if inject_bad_call and unit == 0:
            rec.call(
                "round",
                front.submit_feedback,
                FeedbackRequest("no-such-session", {0: 1}, top_k=TOP_K),
            )
        unit += 1


@dataclass
class RunResult:
    """Raw outcome of one measured phase, before metrics and checks."""

    spec: Spec
    window: Tuple[float, float]  # perf_counter at start / end of the phase
    recorders: List[Recorder]

    @property
    def wall_s(self) -> float:
        return self.window[1] - self.window[0]

    @property
    def sessions(self) -> List[SessionLog]:
        return [log for rec in self.recorders for log in rec.sessions]

    @property
    def fixed_set(self) -> List[SessionLog]:
        """The sessions every run of this spec serves, whatever its length."""
        count = self.spec.fixed_sessions * max(1, self.spec.wave)
        return [log for rec in self.recorders for log in rec.sessions[:count]]

    def latencies(self, phase: str) -> List[float]:
        return [ms for rec in self.recorders for ms in rec.latency_ms[phase]]

    def count(self, what: str, phase: Optional[str] = None) -> int:
        phases = PHASES if phase is None else (phase,)
        return sum(getattr(rec, what)[p] for rec in self.recorders for p in phases)

    @property
    def completed(self) -> int:
        return sum(log.closed for log in self.sessions)


def run_clients(
    system: System, spec: Spec, inputs: Inputs, seconds: float,
    *, min_round_samples: int = 0, inject_bad_call: bool = False,
) -> RunResult:
    """Drive the closed loop: ``spec.clients`` threads, each serving
    ``spec.fixed_sessions`` units and then whole units until *seconds* passed
    and the clients together hold *min_round_samples* round latencies."""
    recorders = [Recorder() for _ in range(spec.clients)]
    start = time.perf_counter()
    deadline = start + seconds
    with ThreadPoolExecutor(max_workers=spec.clients, thread_name_prefix="bench-client") as pool:
        futures = [
            pool.submit(
                _client_loop, system, spec, inputs, client, rec, deadline,
                -(-min_round_samples // spec.clients), inject_bad_call and client == 0,
            )
            for client, rec in enumerate(recorders)
        ]
        for future in futures:
            future.result()  # a client that died of a bug fails the run
    return RunResult(spec, (start, time.perf_counter()), recorders)


# --------------------------------------------------------------------- checks
def precision_at_k(labels: np.ndarray, query: int, indices: np.ndarray) -> float:
    return float(np.mean(labels[indices] == labels[query]))


def quality(result: RunResult, inputs: Inputs) -> Tuple[float, float]:
    """Mean (initial, final) precision@20 over the fixed session set."""
    done = [log for log in result.fixed_set if log.closed]
    if not done:
        return 0.0, 0.0
    initial = [precision_at_k(inputs.labels, s.query, s.responses[0][1]) for s in done]
    final = [precision_at_k(inputs.labels, s.query, s.responses[-1][1]) for s in done]
    return float(np.mean(initial)), float(np.mean(final))


def ranking_digest(result: RunResult) -> str:
    """Hash of the fixed set's final rankings, in session order."""
    h = hashlib.sha256()
    for log in result.fixed_set:
        h.update(log.session_id.encode())
        for _, indices in log.responses:
            h.update(np.asarray(indices, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def check_outputs(
    result: RunResult, inputs: Inputs, system: System, *, expect_failures: int = 0
) -> List[str]:
    """Every correctness check of one run; returns the violated ones."""
    spec = result.spec
    problems: List[str] = []
    if result.count("failed") != expect_failures:
        problems.append(
            f"{result.count('failed')} calls failed (expected {expect_failures})"
        )
    for log in result.sessions:
        if not log.closed:
            continue
        for expected_round, (round_index, indices) in enumerate(log.responses):
            valid = (
                round_index == expected_round
                and indices.shape[0] == TOP_K
                and np.unique(indices).shape[0] == TOP_K
                and indices.min() >= 0
                and indices.max() < spec.pool
            )
            if not valid:
                problems.append(
                    f"{log.session_id}: response {expected_round} is not "
                    f"{TOP_K} distinct in-range indices at round {expected_round}"
                )
        if len(log.responses) != spec.rounds + 1:
            problems.append(f"{log.session_id}: {len(log.responses)} responses")

    initial, final = quality(result, inputs)
    if spec.learns and final < initial:
        problems.append(f"precision@20 fell with feedback: {initial:.4f} -> {final:.4f}")

    if spec.wave:
        # Reference ranking of each wave's first query, by plain numpy over
        # the database's (normalised) features; compared on the sorted
        # distances so a float-roundoff tie cannot fail a correct result.
        pool = system.database.features
        squared = np.einsum("ij,ij->i", pool, pool)
        for log in result.sessions[:: spec.wave]:
            if not log.responses:
                continue
            distances = squared - 2.0 * (pool @ pool[log.query])
            expected = np.argsort(distances, kind="stable")[:TOP_K]
            got = log.responses[0][1]
            if not np.allclose(distances[got], distances[expected], rtol=0, atol=1e-9):
                problems.append(f"{log.session_id}: round-0 ranking differs from numpy argsort")

    if spec.grows_log:
        # on_close: every round of every closed session is one log record.
        records = system.log_store.scan(start=system.ready_log_length)
        closed = [log for log in result.sessions if log.closed]
        expected = Counter()
        for log in closed:
            expected[log.query] += spec.rounds
        logged = Counter(record.query_index for record in records)
        if len(records) != spec.rounds * len(closed) or logged != expected:
            problems.append(
                f"log holds {len(records)} new records for {len(closed)} closed "
                f"sessions x {spec.rounds} rounds, or a query's count is off"
            )
    elif len(system.log_store) != system.ready_log_length:
        problems.append("log grew under log_policy='off'")
    return problems
