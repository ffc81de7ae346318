"""An interactive-style CBIR session: query, iterate feedback, accumulate log.

This example mirrors how the paper's CBIR system is actually used (and how
its feedback log was collected): a user issues a query, judges the returned
images round after round, and when the session closes every round is
recorded into the log database — so the system gets better for *future*
users as the log grows.

The "user" here is simulated from category ground truth with a little noise,
exactly like :mod:`repro.logdb.simulation` does for the log campaign.

Run with::

    python examples/interactive_retrieval_session.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    CorelDatasetConfig,
    ImageDatabase,
    LogSimulationConfig,
    RetrievalService,
    SimulatedUser,
    build_corel_dataset,
    collect_feedback_log,
)
from repro.datasets.splits import relevance_ground_truth

NUM_ROUNDS = 3
TOP_K = 15


def precision(result, relevant) -> float:
    return float(np.mean(relevant[result.image_indices[:TOP_K]]))


def main() -> None:
    print("Building the corpus, features and an initial feedback log ...")
    dataset = build_corel_dataset(
        CorelDatasetConfig(num_categories=10, images_per_category=25, image_size=40, seed=19)
    )
    log = collect_feedback_log(
        dataset, LogSimulationConfig(num_sessions=50, images_per_session=15, seed=20)
    )
    database = ImageDatabase(dataset, log_database=log)

    # The service refines with the paper's LRF-CSVM and logs every completed
    # round when the session closes.
    service = RetrievalService(database, log_policy="on_close")
    user = SimulatedUser(dataset, noise_rate=0.05, random_state=21)

    query_index = int(dataset.indices_of_category(3)[0])
    relevant = relevance_ground_truth(dataset, query_index)
    print(f"\nQuery: image {query_index} "
          f"(category '{dataset.category_name_of(query_index)}')")

    sessions_before = len(database.log_database)
    result = service.open_session(query_index, top_k=TOP_K, algorithm="lrf-csvm")
    session_id = result.session_id
    print(f"  round 0 (no learning)     P@{TOP_K} = {precision(result, relevant):.2f}")

    judged: set[int] = set()
    for round_index in range(1, NUM_ROUNDS + 1):
        # The user judges the newly shown images (skipping ones already judged).
        to_judge = [int(i) for i in result.image_indices if int(i) not in judged][:TOP_K]
        judgements = user.judge(query_index, to_judge)
        judged.update(judgements)
        result = service.submit_feedback(
            session_id, judgements, top_k=database.num_images
        )
        print(f"  round {round_index} (LRF-CSVM)        P@{TOP_K} = {precision(result, relevant):.2f} "
              f"({len(judged)} images judged so far)")

    service.close_session(session_id)
    recorded = len(database.log_database) - sessions_before
    print(f"\nThe log database grew by {recorded} sessions during this query "
          f"(now {len(database.log_database)} total) — future queries benefit from them.")


if __name__ == "__main__":
    main()
