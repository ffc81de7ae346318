"""repro — log-based relevance feedback by coupled SVM for CBIR.

A from-scratch reproduction of Hoi, Lyu & Jin, *"Integrating User Feedback
Log into Relevance Feedback by Coupled SVM for Content-Based Image
Retrieval"* (ICDE 2005): the coupled support vector machine, the LRF-CSVM
relevance-feedback algorithm, every baseline it is compared against, and all
the substrates the evaluation needs (synthetic COREL-like corpus, feature
extraction, an SMO-based SVM, the user-feedback log database, CBIR search
and the evaluation harness).

Quick start (the session-oriented service API)::

    from repro import (
        CorelDatasetConfig, build_corel_dataset, collect_feedback_log,
        ImageDatabase, RetrievalService,
    )

    dataset = build_corel_dataset(CorelDatasetConfig(num_categories=20,
                                                     images_per_category=20))
    log = collect_feedback_log(dataset)
    database = ImageDatabase(dataset, log_database=log)
    service = RetrievalService(database, default_algorithm="lrf-csvm")
    initial = service.open_session(0, top_k=20)
    refined = service.submit_feedback(
        initial.session_id,
        {int(i): (+1 if dataset.category_of(int(i)) ==
                  dataset.category_of(0) else -1)
         for i in initial.image_indices})
    service.close_session(initial.session_id)   # rounds land in the log
"""

from __future__ import annotations

from repro.cbir import ImageDatabase, Query, RetrievalResult, SearchEngine
from repro.cluster import ClusterConfig, ClusterRouter, ClusterWorker
from repro.core import CoupledSVM, CoupledSVMConfig, LRFCSVM
from repro.datasets import (
    CorelDatasetConfig,
    ImageDataset,
    QuerySampler,
    build_corel_dataset,
)
from repro.evaluation import (
    EvaluationProtocol,
    ExperimentRunner,
    ProtocolConfig,
    ResultsTable,
    render_improvement_table,
    render_series,
)
from repro.exceptions import ReproError
from repro.feedback import (
    EuclideanFeedback,
    FeedbackContext,
    LRF2SVMs,
    RelevanceFeedbackAlgorithm,
    RFSVM,
    available_algorithms,
    make_algorithm,
)
from repro.features import CompositeExtractor, FeatureNormalizer
from repro.graph import (
    AffinityGraph,
    GraphCache,
    KNNGraphBuilder,
    LabelPropagationFeedback,
)
from repro.index import VectorIndex
from repro.logdb import (
    FileLogStore,
    InMemoryLogStore,
    LogSession,
    LogSimulationConfig,
    LogSnapshot,
    LogStore,
    RelevanceMatrix,
    SimulatedUser,
    collect_feedback_log,
)
from repro.service import (
    FeedbackRequest,
    FileSessionStore,
    InMemorySessionStore,
    RankingResponse,
    RetrievalService,
    SearchRequest,
    SessionState,
    SessionStore,
    SessionView,
)
from repro.svm import SVC
from repro.version import __version__

__all__ = [
    "__version__",
    "ReproError",
    # datasets
    "ImageDataset",
    "CorelDatasetConfig",
    "build_corel_dataset",
    "QuerySampler",
    # features
    "CompositeExtractor",
    "FeatureNormalizer",
    # svm
    "SVC",
    # log database
    "LogSession",
    "LogSnapshot",
    "LogStore",
    "InMemoryLogStore",
    "FileLogStore",
    "RelevanceMatrix",
    "SimulatedUser",
    "LogSimulationConfig",
    "collect_feedback_log",
    # cbir
    "ImageDatabase",
    "SearchEngine",
    "Query",
    "RetrievalResult",
    # index
    "VectorIndex",
    # core contribution
    "CoupledSVM",
    "CoupledSVMConfig",
    "LRFCSVM",
    # baselines
    "RelevanceFeedbackAlgorithm",
    "FeedbackContext",
    "EuclideanFeedback",
    "RFSVM",
    "LRF2SVMs",
    "make_algorithm",
    "available_algorithms",
    # graph feedback family
    "AffinityGraph",
    "KNNGraphBuilder",
    "GraphCache",
    "LabelPropagationFeedback",
    # service
    "RetrievalService",
    "SearchRequest",
    "FeedbackRequest",
    "RankingResponse",
    "SessionView",
    "SessionState",
    "SessionStore",
    "InMemorySessionStore",
    "FileSessionStore",
    # cluster
    "ClusterConfig",
    "ClusterRouter",
    "ClusterWorker",
    # evaluation
    "ProtocolConfig",
    "EvaluationProtocol",
    "ExperimentRunner",
    "ResultsTable",
    "render_improvement_table",
    "render_series",
]
