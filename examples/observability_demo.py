"""Observability in action: metrics snapshot + one round's span tree.

This demo switches the process-wide :mod:`repro.obs` hub on (it is off —
and effectively free — by default), drives a small ``on_close`` workload
through a :class:`RetrievalService`, and prints what the instrumentation
saw:

* the full metrics snapshot — solver iterations, index candidates
  scanned, log append latency, lock waits — rendered by
  :func:`repro.obs.render_snapshot`;
* the complete span tree of one feedback round's wave: the
  ``service.feedback_batch`` span, its per-session ``service.round``
  children, and the SMO solves beneath.

The metric catalogue and span taxonomy are documented in
``docs/observability.md``.

Run with::

    python examples/observability_demo.py
"""

from __future__ import annotations

from repro import (
    CorelDatasetConfig,
    FeedbackRequest,
    ImageDatabase,
    RetrievalService,
    SearchRequest,
    build_corel_dataset,
    collect_feedback_log,
)
from repro.obs import (
    InMemoryExporter,
    build_span_tree,
    configure,
    disable,
    format_span_tree,
    render_snapshot,
)

NUM_SESSIONS = 6
NUM_ROUNDS = 2
TOP_K = 12


def judge(dataset, query_index, image_indices):
    category = dataset.category_of(int(query_index))
    return {
        int(i): (1 if dataset.category_of(int(i)) == category else -1)
        for i in image_indices
    }


def main() -> None:
    dataset = build_corel_dataset(
        CorelDatasetConfig(num_categories=5, images_per_category=12, seed=3)
    )
    log = collect_feedback_log(dataset)
    database = ImageDatabase(dataset, log_database=log)
    database.build_index("brute-force")

    # ---- switch observability on (one call; layers pick it up live) ------
    exporter = InMemoryExporter()
    configure(exporters=[exporter])
    try:
        service = RetrievalService(
            database,
            default_algorithm="lrf-csvm",
            log_policy="on_close",
        )
        responses = service.open_sessions(
            [SearchRequest(query=i, top_k=TOP_K) for i in range(NUM_SESSIONS)]
        )
        for _ in range(NUM_ROUNDS):
            responses = service.submit_feedback_batch(
                [
                    FeedbackRequest(
                        session_id=response.session_id,
                        judgements=judge(dataset, i, response.image_indices),
                        top_k=TOP_K,
                    )
                    for i, response in enumerate(responses)
                ]
            )
        last = responses[0]
        service.close_sessions([r.session_id for r in responses])

        print("=" * 72)
        print("metrics snapshot (render_snapshot):")
        print("=" * 72)
        print(render_snapshot())

        # ---- one feedback round's span tree ------------------------------
        batch_spans = [
            s for s in exporter.spans if s.name == "service.feedback_batch"
        ]
        last_batch = batch_spans[-1]
        tree_spans = [
            s
            for s in exporter.spans
            if s.trace_id == last_batch.trace_id
        ]
        print()
        print("=" * 72)
        print(f"span tree of the last feedback wave (trace {last_batch.trace_id}):")
        print("=" * 72)
        print(format_span_tree(tree_spans))
        print()
        print(
            f"{len(exporter.spans)} spans exported across "
            f"{len(build_span_tree(exporter.spans))} traces; last round's "
            f"solver stats: {last.solver_stats}"
        )
    finally:
        disable()  # back to the free default


if __name__ == "__main__":
    main()
