"""Quickstart: build a corpus, run a feedback round with every scheme.

This example walks through the full public API in a couple of minutes:

1. render a small synthetic COREL-like corpus and extract the 36-d features;
2. simulate a user-feedback log (the long-term resource the paper exploits);
3. run one relevance-feedback round for a query with each of the paper's
   four retrieval schemes and compare their top-20 precision.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    CorelDatasetConfig,
    EuclideanFeedback,
    FeedbackContext,
    ImageDatabase,
    LRF2SVMs,
    LRFCSVM,
    LogSimulationConfig,
    Query,
    RFSVM,
    SearchEngine,
    build_corel_dataset,
    collect_feedback_log,
)
from repro.datasets.splits import relevance_ground_truth, relevance_labels


def main() -> None:
    # 1. A small 10-category corpus (the paper uses 20 and 50 categories of
    #    100 images each; this quickstart keeps it to ~1 minute of CPU).
    print("Rendering the synthetic corpus and extracting features ...")
    dataset = build_corel_dataset(
        CorelDatasetConfig(num_categories=10, images_per_category=25, image_size=40, seed=7)
    )
    print(f"  {dataset.num_images} images, {dataset.num_categories} categories, "
          f"{dataset.features.shape[1]}-d features")

    # 2. Simulate the user-feedback log: 60 historical feedback sessions.
    print("Simulating the user-feedback log ...")
    log = collect_feedback_log(
        dataset, LogSimulationConfig(num_sessions=60, images_per_session=15, seed=11)
    )
    matrix = log.snapshot().matrix
    coverage = len(set(matrix.tocsr().indices)) / matrix.num_images
    print(f"  {matrix.num_sessions} sessions, {matrix.nnz} judgements, "
          f"coverage {coverage:.0%}")

    database = ImageDatabase(dataset, log_database=log)

    # 3. One relevance-feedback round for a query image.
    query_index = 0
    query = Query(query_index=query_index)
    search = SearchEngine(database)
    initial = search.search(query, top_k=15)
    labels = relevance_labels(dataset, query_index, initial.image_indices)
    if np.unique(labels).size < 2:
        labels[-1] = -labels[-1]
    context = FeedbackContext(
        database=database,
        query=query,
        labeled_indices=initial.image_indices,
        labels=labels,
    )
    relevant = relevance_ground_truth(dataset, query_index)

    schemes = {
        "Euclidean (no learning)": EuclideanFeedback(),
        "RF-SVM (visual only)": RFSVM(C=10.0),
        "LRF-2SVMs (visual + log, independent)": LRF2SVMs(),
        "LRF-CSVM (coupled SVM, the paper)": LRFCSVM(num_unlabeled=16, random_state=3),
    }

    print(f"\nQuery image {query_index} (category '{dataset.category_name_of(query_index)}'), "
          "precision of the top-20 after one feedback round:")
    for name, scheme in schemes.items():
        ranking = scheme.rank(context, top_k=20)
        precision = float(np.mean(relevant[ranking.image_indices]))
        print(f"  {name:<42} P@20 = {precision:.2f}")


if __name__ == "__main__":
    main()
