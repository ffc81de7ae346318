"""Cluster serving: one logical service over N worker processes.

This demo stands up a :class:`~repro.cluster.ClusterRouter` over a small
worker fleet, drives concurrent per-call clients through it, then
SIGKILLs one worker mid-traffic to show the failure semantics: the dead
worker's sessions re-route to survivors (rendezvous hashing over the
alive set), in-flight rounds reconcile against the shared on-disk
stores, and the feedback log still ends up with exactly one record per
round — nothing lost, nothing duplicated.

Compare with ``examples/parallel_service.py`` (threads in one process);
the ``cluster_mixed`` workload of ``bench/run.py`` measures this tier end
to end.  Topology and protocol: ``docs/cluster.md``.

Run with::

    python examples/cluster_serving.py
"""

from __future__ import annotations

import collections
import tempfile
import threading
import time
from pathlib import Path

from repro import FeedbackRequest
from repro.cbir.database import ImageDatabase
from repro.cluster import ClusterConfig, ClusterRouter
from repro.datasets.pool import GaussianPoolConfig, make_pool_dataset
from repro.logdb import FileLogStore

NUM_WORKERS = 3
NUM_CLIENT_THREADS = 6
SESSIONS_PER_THREAD = 2
NUM_ROUNDS = 2
TOP_K = 10


def drive_session(router, query_index):
    """One complete session through the router: open → rounds → close."""
    response = router.open_session(query_index, top_k=TOP_K,
                                   algorithm="euclidean")
    for _ in range(NUM_ROUNDS):
        judgements = {
            int(i): (1 if rank % 2 == 0 else -1)
            for rank, i in enumerate(response.image_indices)
        }
        response = router.submit_feedback(
            FeedbackRequest(session_id=response.session_id,
                            judgements=judgements, top_k=TOP_K)
        )
    router.close_session(response.session_id)


def main() -> None:
    print("Building the serving pool (shared copy-on-write by the fleet) ...")
    built, _ = make_pool_dataset(
        GaussianPoolConfig(num_vectors=5_000, dim=12, num_clusters=24,
                           num_queries=4, seed=7),
        name="cluster-demo-pool",
    )
    database = ImageDatabase(built)
    database.build_index("brute-force")

    with tempfile.TemporaryDirectory() as tmp:
        config = ClusterConfig(
            session_dir=Path(tmp) / "sessions",
            log_dir=Path(tmp) / "log",
            num_workers=NUM_WORKERS,
            default_algorithm="euclidean",
            coalesce_window=0.003,
        )
        total = NUM_CLIENT_THREADS * SESSIONS_PER_THREAD
        with ClusterRouter(lambda: database, config) as router:
            print(f"{NUM_WORKERS} workers up: {router.alive_worker_ids}")

            def client(thread_index: int) -> None:
                for s in range(SESSIONS_PER_THREAD):
                    drive_session(router, thread_index * SESSIONS_PER_THREAD + s)

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(NUM_CLIENT_THREADS)
            ]
            victim = router.alive_worker_ids[0]
            chaos = threading.Timer(0.05, router.kill_worker, args=(victim,))
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            chaos.start()
            for thread in threads:
                thread.join()
            chaos.join()
            seconds = time.perf_counter() - start

            deadline = time.time() + 5.0
            while victim in router.alive_worker_ids and time.time() < deadline:
                time.sleep(0.02)  # let the monitor notice the corpse
            print(
                f"killed worker {victim} mid-traffic; "
                f"survivors: {router.alive_worker_ids}"
            )
            print(
                f"{total} sessions x {NUM_ROUNDS} rounds in {seconds:.2f}s "
                f"({total / seconds:.1f} sessions/sec) — every session "
                "completed"
            )

        counts = collections.Counter(
            record.query_index
            for record in FileLogStore(config.log_dir).scan()
        )
        assert counts == {q: NUM_ROUNDS for q in range(total)}, counts
        print(
            f"log audit: {len(counts)} sessions, each with exactly "
            f"{NUM_ROUNDS} records — zero lost, zero duplicated"
        )


if __name__ == "__main__":
    main()
