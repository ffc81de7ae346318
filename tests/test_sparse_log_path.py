"""The log modality stays sparse from store to score — and changes nothing.

Served-path equivalence for the log-aware strategies: rankings through
:class:`~repro.service.RetrievalService` must equal what a reference that
densifies ``R`` produces, and scores must agree within the summation error.
The reference lives only here (the dense path was deleted from ``src/``):
it swaps the snapshot's two sparse accessors for the pool-sized dense array
the strategies used to read.

The log SVM scores the pool by its primal weight, ``r @ w + b``: the
sparse path sums each row's nonzero products in stored order (pinned bit
for bit below to a sequential sum written out in this file), while the
dense reference's matrix-vector product may group the same products
differently.  Every other number — training rows, solves, the visual
modality — is identical on both paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cbir.database import ImageDatabase
from repro.graph import GraphCache, fuse_with_log, propagate_labels
from repro.graph.feedback import LabelPropagationFeedback
from repro.logdb import FileLogStore, InMemoryLogStore, LogSnapshot
from repro.logdb.simulation import LogSimulationConfig, collect_feedback_log
from repro.service import RetrievalService, SearchRequest
from repro.svm import SVC

LOG_CONFIG = LogSimulationConfig(
    num_sessions=30, images_per_session=10, noise_rate=0.1, seed=9
)

#: Served configurations: (algorithm, params, path the last round must
#: have taken — so the test cannot pass by falling back).
SERVED = {
    "lrf-2svms": ("lrf-2svms", {}, None),
    "lrf-csvm": ("lrf-csvm", {"min_feedback_per_class": 1}, "coupled"),
}

QUERIES = (0, 13, 26, 39)

#: Judgements per served round, and the most unlabeled rows any served
#: configuration adds (``LRFCSVM``'s default ``num_unlabeled``).
JUDGED_PER_ROUND = 8
MAX_UNLABELED = 20


def _log_score_bound(num_sessions: int) -> float:
    """Largest gap two summation orders of one log score can show.

    A log score sums at most ``num_sessions`` products ``r_ik w_k`` with
    ``|r_ik| <= 1`` and ``|w_k| <= C_log * n_train`` (every multiplier is at
    most ``C_log``); each order is within ``n * u`` of the exact sum of
    those magnitudes, ``u = eps / 2``.
    """
    c_log = 0.5  # CoupledSVMConfig().C_log, also LRF2SVMs' default
    weight = c_log * (JUDGED_PER_ROUND + MAX_UNLABELED)
    return num_sessions * np.finfo(np.float64).eps * num_sessions * weight


def _make_store(kind, tmp_path, num_images):
    if kind == "memory":
        return InMemoryLogStore(num_images)
    return FileLogStore(tmp_path / "log", num_images=num_images)


def _category_judgements(dataset, query_index, image_indices):
    category = dataset.category_of(int(query_index))
    return {
        int(i): (1 if dataset.category_of(int(i)) == category else -1)
        for i in image_indices
    }


def _serve(dataset, store, served):
    """Drive closed-loop sessions; the log grows at every close.

    Returns one ``(indices, scores, memory meta)`` triple per feedback
    round, scores covering the whole pool.
    """
    algorithm, params, _ = SERVED[served]
    log = collect_feedback_log(dataset, LOG_CONFIG, store=store)
    database = ImageDatabase(dataset, log_database=log)
    service = RetrievalService(database, log_policy="on_close")
    rounds = []
    for query in QUERIES:
        response = service.open_session(
            SearchRequest(
                query=query,
                top_k=dataset.num_images,
                algorithm=algorithm,
                algorithm_params=params,
            )
        )
        session_id = response.session_id
        for _ in range(2):
            judgements = _category_judgements(
                dataset, query, response.image_indices[:JUDGED_PER_ROUND]
            )
            response = service.submit_feedback(session_id, judgements)
            meta = dict(service.store.get(session_id).memory.meta)
            rounds.append((response.image_indices, response.scores, meta))
        service.close_session(session_id)
    assert len(log) > LOG_CONFIG.num_sessions  # the log really grew
    return rounds, len(log)


def _use_dense_reference(monkeypatch):
    """Swap the snapshot's sparse accessors for the deleted dense ones.

    Returns the list that collects one entry per full-pool (``log_rows``)
    read, so callers can tell the log modality was actually scored.
    """
    pool_reads = []

    def dense_pool(snapshot):
        return snapshot.matrix.toarray().T.copy()

    def dense_rows(snapshot):
        pool_reads.append(snapshot.version)
        return dense_pool(snapshot)

    monkeypatch.setattr(LogSnapshot, "log_rows", dense_rows)
    monkeypatch.setattr(
        LogSnapshot,
        "log_vectors",
        lambda snapshot, indices: dense_pool(snapshot)[np.asarray(indices)],
    )
    return pool_reads


@pytest.mark.parametrize("store_kind", ["memory", "file"])
@pytest.mark.parametrize("served", sorted(SERVED))
def test_served_rankings_and_scores_equal_the_dense_reference(
    small_dataset, tmp_path, monkeypatch, served, store_kind
):
    sparse_rounds, num_sessions = _serve(
        small_dataset,
        _make_store(store_kind, tmp_path / "sparse", small_dataset.num_images),
        served,
    )
    with monkeypatch.context() as patch:
        pool_reads = _use_dense_reference(patch)
        dense_rounds, _ = _serve(
            small_dataset,
            _make_store(store_kind, tmp_path / "dense", small_dataset.num_images),
            served,
        )

    assert len(sparse_rounds) == len(dense_rounds) == 2 * len(QUERIES)
    # Every round scored the pool's log modality (no visual-only fallback).
    assert len(pool_reads) >= len(dense_rounds)
    for (indices, scores, meta), (ref_indices, ref_scores, ref_meta) in zip(
        sparse_rounds, dense_rounds
    ):
        np.testing.assert_array_equal(indices, ref_indices)
        np.testing.assert_allclose(
            scores, ref_scores, rtol=0.0, atol=_log_score_bound(num_sessions)
        )
        assert meta == ref_meta  # same path, solver iterations, label flips
    expected_path = SERVED[served][2]
    if expected_path is not None:
        assert sparse_rounds[-1][2]["last_path"] == expected_path


def _sequential_csr_scores(rows, weight: np.ndarray, bias: float) -> np.ndarray:
    """``rows @ weight + bias``, each row summed left to right in stored order."""
    scores = np.empty(rows.shape[0])
    for i in range(rows.shape[0]):
        total = 0.0
        for k in range(rows.indptr[i], rows.indptr[i + 1]):
            total += float(rows.data[k]) * float(weight[rows.indices[k]])
        scores[i] = total + bias
    return scores


@pytest.mark.parametrize("sliced", [False, True], ids=["pool", "candidates"])
def test_sparse_primal_is_the_sequential_csr_sum(small_dataset, small_log, sliced):
    snapshot = small_log.snapshot()
    labeled = np.arange(0, small_dataset.num_images, 5)
    labels = np.where(small_dataset.labels[labeled] == small_dataset.labels[0], 1.0, -1.0)
    model = SVC(C=0.5, kernel="linear").fit(snapshot.log_vectors(labeled), labels).model_
    rows = snapshot.log_rows()
    if sliced:
        rows = rows[np.arange(3, small_dataset.num_images, 2)]
    np.testing.assert_array_equal(
        model.decision_function(rows),
        _sequential_csr_scores(rows, model.support_vectors.T @ model.dual_coef, model.bias),
    )


@pytest.mark.parametrize("store_kind", ["memory", "file"])
def test_served_graph_rounds_equal_unmemoised_fusion(
    small_dataset, tmp_path, monkeypatch, store_kind
):
    """``lrf-graph`` through the service, with the per-version fusion memo,
    returns exactly what a fresh ``fuse_with_log`` + ``propagate_labels``
    returns — before and after the log grows."""
    import repro.graph.feedback as graph_feedback

    fusions = []

    def counting_fuse(visual, snapshot, *, eta):
        fusions.append(snapshot.version)
        return fuse_with_log(visual, snapshot, eta=eta)

    monkeypatch.setattr(graph_feedback, "fuse_with_log", counting_fuse)

    dataset = small_dataset
    store = _make_store(store_kind, tmp_path, dataset.num_images)
    log = collect_feedback_log(dataset, LOG_CONFIG, store=store)
    database = ImageDatabase(dataset, log_database=log)
    service = RetrievalService(database, log_policy="on_close")
    params = {"k": 8, "eta": 0.5}
    # The served rounds go through the process-wide graph cache; the
    # reference graph is built separately with the same parameters.
    reference = LabelPropagationFeedback(cache=GraphCache(), **params)
    graph = reference._visual_graph(database)

    versions = []
    for query in QUERIES[:3]:
        response = service.open_session(
            SearchRequest(
                query=query,
                top_k=dataset.num_images,
                algorithm="lrf-graph",
                algorithm_params=params,
            )
        )
        session_id = response.session_id
        judged = {}
        for _ in range(2):
            judged.update(_category_judgements(dataset, query, response.image_indices[:8]))
            snapshot = log.snapshot()
            versions.append(snapshot.version)
            response = service.submit_feedback(session_id, judged)

            seeds = np.zeros(dataset.num_images)
            seeds[list(judged)] = list(judged.values())
            expected = propagate_labels(
                fuse_with_log(graph.weights, snapshot, eta=params["eta"]),
                seeds,
                method=reference.method,
                alpha=reference.alpha,
                max_iter=reference.max_iter,
                tol=reference.tol,
            ).scores
            order = np.argsort(-expected, kind="stable")
            np.testing.assert_array_equal(response.image_indices, order)
            np.testing.assert_array_equal(response.scores, expected[order])
        service.close_session(session_id)

    # Six rounds over three log versions: one fusion per version, not per round.
    assert len(versions) == 6 and len(set(versions)) == 3
    assert fusions == sorted(set(versions))
