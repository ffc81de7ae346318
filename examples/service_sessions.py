"""Concurrent feedback sessions through the retrieval service.

This example shows the session-oriented API: several simulated users open
sessions against one shared database (their first-round searches are served
by a single batched index pass), interleave feedback rounds, persist one
session to disk mid-flight and resume it in a "fresh process", and finally
close their sessions — which is the moment their rounds join the shared
feedback log and start helping future users.

Run with::

    python examples/service_sessions.py
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro import (
    CorelDatasetConfig,
    FeedbackRequest,
    FileSessionStore,
    ImageDatabase,
    RetrievalService,
    SearchRequest,
    build_corel_dataset,
    collect_feedback_log,
)
from repro.datasets.splits import relevance_ground_truth

NUM_USERS = 6
TOP_K = 15
NUM_ROUNDS = 2


def judge(dataset, query_index, image_indices):
    relevant = relevance_ground_truth(dataset, int(query_index))
    return {int(i): (1 if relevant[int(i)] else -1) for i in image_indices}


def precision(indices, relevant) -> float:
    return float(np.mean(relevant[indices[:TOP_K]]))


def main() -> None:
    print("Building the corpus, features and an initial feedback log ...")
    dataset = build_corel_dataset(
        CorelDatasetConfig(num_categories=10, images_per_category=15, seed=11)
    )
    log = collect_feedback_log(dataset)
    database = ImageDatabase(dataset, log_database=log)

    service = RetrievalService(database, log_policy="on_close")

    # ---- a wave of users opens sessions: ONE batched first-round search --
    queries = [user * 15 for user in range(NUM_USERS)]  # one per category
    responses = service.open_sessions(
        [SearchRequest(query=q, top_k=TOP_K, algorithm="lrf-csvm") for q in queries]
    )
    print(f"\nOpened {len(responses)} sessions in one batched search")

    # ---- interleaved feedback rounds ------------------------------------
    current = responses
    for round_number in range(1, NUM_ROUNDS + 1):
        requests = [
            FeedbackRequest(
                session_id=r.session_id,
                judgements=judge(dataset, q, r.image_indices),
                top_k=TOP_K,
            )
            for q, r in zip(queries, current)
        ]
        current = service.submit_feedback_batch(requests)
        mean_precision = np.mean([
            precision(r.image_indices, relevance_ground_truth(dataset, q))
            for q, r in zip(queries, current)
        ])
        print(f"round {round_number}: mean precision@{TOP_K} = {mean_precision:.3f}")

    # ---- persist one session, resume it in a "fresh process" ------------
    with tempfile.TemporaryDirectory() as tmp:
        store = FileSessionStore(tmp)
        keeper = service.store.get(current[0].session_id)
        store.put(keeper)
        resumed_service = RetrievalService(
            database, store=FileSessionStore(tmp), log_policy="off"
        )
        extra = resumed_service.submit_feedback(
            keeper.session_id,
            judge(dataset, queries[0], current[0].image_indices[:5]),
        )
        print(f"\nResumed session {keeper.session_id} from disk: "
              f"round {extra.round_index} ranked {len(extra.image_indices)} images")

    # ---- closing is what grows the shared log ---------------------------
    before = len(database.log_database)
    service.close_sessions([r.session_id for r in responses])
    grown = len(database.log_database) - before
    print(f"\nClosed {NUM_USERS} sessions; the shared log grew by {grown} "
          f"log sessions (now {len(database.log_database)}).")


if __name__ == "__main__":
    main()
