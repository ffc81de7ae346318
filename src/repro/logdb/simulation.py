"""Simulated collection of the user-feedback log (paper Section 6.3).

The paper collects 150 real-user sessions per dataset with its CBIR system:
a user submits a query, the system returns 20 images, the user ticks the
relevant ones, and — because the system is "powered with a relevance
feedback mechanism" — the user typically runs *several* feedback rounds for
the same query, each round being recorded as one log session.  Different
users disagree, so the log contains noise.

:class:`SimulatedUser` and :func:`collect_feedback_log` reproduce that
protocol against the synthetic corpus:

* log queries cycle over the categories (real users query all semantic
  topics, which is what gives the log its coverage);
* round 1 of a query shows the top-20 images by Euclidean distance on the
  visual features;
* subsequent rounds re-rank with an SVM trained on the judgements collected
  so far (the paper's own RF-SVM mechanism) and show the best *not yet
  judged* images — this is what surfaces the semantically-relevant but
  visually-dissimilar images that make the log valuable;
* every judgement is flipped with probability ``noise_rate`` to model human
  subjectivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.datasets.dataset import ImageDataset
from repro.exceptions import ConfigurationError, LogDatabaseError
from repro.logdb.session import LogSession
from repro.logdb.store import InMemoryLogStore, LogStore
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_probability

__all__ = ["SimulatedUser", "LogSimulationConfig", "collect_feedback_log"]


@dataclass(frozen=True)
class LogSimulationConfig:
    """Configuration of the log-collection campaign.

    Attributes
    ----------
    num_sessions:
        Total number of feedback sessions to record (150 in the paper).
    images_per_session:
        Number of images shown and judged per session (20 in the paper).
    rounds_per_query:
        Number of consecutive feedback rounds a simulated user performs for
        each query; each round is one log session.  Values above 1 reproduce
        the paper's long-term-learning setting where users iterate with the
        relevance-feedback tool.
    noise_rate:
        Probability of flipping each judgement, modelling user subjectivity.
    seed:
        Seed of the campaign (query choice and noise).
    """

    num_sessions: int = 150
    images_per_session: int = 20
    rounds_per_query: int = 2
    noise_rate: float = 0.1
    seed: int = 13

    def __post_init__(self) -> None:
        if self.num_sessions < 0:
            raise ConfigurationError(f"num_sessions must be >= 0, got {self.num_sessions}")
        if self.images_per_session < 1:
            raise ConfigurationError(
                f"images_per_session must be >= 1, got {self.images_per_session}"
            )
        if self.rounds_per_query < 1:
            raise ConfigurationError(
                f"rounds_per_query must be >= 1, got {self.rounds_per_query}"
            )
        check_probability(self.noise_rate, name="noise_rate")


class SimulatedUser:
    """Judges retrieved images from ground truth with configurable noise."""

    def __init__(
        self,
        dataset: ImageDataset,
        *,
        noise_rate: float = 0.1,
        random_state: RandomState = None,
    ) -> None:
        self.dataset = dataset
        self.noise_rate = check_probability(noise_rate, name="noise_rate")
        self._rng = ensure_rng(random_state)

    def judge(self, query_index: int, image_indices: Sequence[int]) -> Dict[int, int]:
        """Return ±1 judgements for *image_indices* with respect to the query."""
        query_category = self.dataset.category_of(int(query_index))
        judgements: Dict[int, int] = {}
        for image_index in image_indices:
            relevant = self.dataset.category_of(int(image_index)) == query_category
            judgement = 1 if relevant else -1
            if self.noise_rate > 0 and self._rng.random() < self.noise_rate:
                judgement = -judgement
            judgements[int(image_index)] = judgement
        return judgements

    def feedback_session(
        self, query_index: int, image_indices: Sequence[int]
    ) -> LogSession:
        """Judge the returned images and wrap the result in a :class:`LogSession`."""
        return LogSession(
            judgements=self.judge(query_index, image_indices),
            query_index=int(query_index),
        )


def _refined_ranking(
    features: np.ndarray, judgements: Dict[int, int], *, svm_C: float = 10.0
) -> np.ndarray:
    """Re-rank the database with an SVM trained on the judgements so far.

    This mirrors the RF-SVM mechanism of the CBIR system the paper used to
    collect its log.  When the judgements contain a single class (rare) the
    positive — or failing that negative — prototype distance is used instead.
    """
    from repro.svm.svc import SVC  # local import: keep logdb importable standalone

    indices = np.array(sorted(judgements), dtype=np.int64)
    labels = np.array([judgements[i] for i in indices], dtype=np.float64)
    if np.unique(labels).size < 2:
        sign = 1.0 if labels[0] > 0 else -1.0
        prototype = features[indices].mean(axis=0)
        scores = -sign * np.linalg.norm(features - prototype, axis=1)
        return np.argsort(-scores, kind="stable")
    classifier = SVC(C=svm_C, kernel="rbf", gamma="scale")
    classifier.fit(features[indices], labels)
    scores = classifier.decision_function(features)
    return np.argsort(-scores, kind="stable")


def collect_feedback_log(
    dataset: ImageDataset,
    config: Optional[LogSimulationConfig] = None,
    *,
    random_state: RandomState = None,
    store: Optional[LogStore] = None,
) -> LogStore:
    """Simulate a full log-collection campaign; returns the store written to.

    Queries cycle over the categories; for every query the simulated user
    runs ``rounds_per_query`` feedback rounds, judging
    ``images_per_session`` previously-unjudged images per round, and each
    round is recorded as one log session.  The campaign stops once
    ``num_sessions`` sessions have been recorded.

    Parameters
    ----------
    dataset:
        The corpus (must carry extracted features).
    config:
        Campaign configuration; defaults to the paper's setting.
    random_state:
        Overrides the configured seed when given.
    store:
        Optional :class:`~repro.logdb.store.LogStore` backend the campaign
        writes through (e.g. a file store shared with a serving process);
        defaults to a fresh in-memory store.  Must be empty and cover
        ``dataset.num_images`` images.
    """
    cfg = config if config is not None else LogSimulationConfig()
    if not dataset.has_features:
        raise ConfigurationError(
            "collect_feedback_log requires a dataset with extracted features"
        )
    if store is not None and len(store) != 0:
        raise ConfigurationError(
            "collect_feedback_log requires an empty log store "
            f"(got one with {len(store)} sessions)"
        )
    if store is not None and store.num_images != dataset.num_images:
        raise LogDatabaseError(
            f"store covers {store.num_images} images, the dataset has "
            f"{dataset.num_images}"
        )
    rng = ensure_rng(cfg.seed if random_state is None else random_state)
    user = SimulatedUser(dataset, noise_rate=cfg.noise_rate, random_state=rng)
    log = InMemoryLogStore(dataset.num_images) if store is None else store
    if cfg.num_sessions == 0:
        return log

    features = dataset.features
    categories = np.arange(dataset.num_categories)
    rng.shuffle(categories)
    category_cursor = 0

    while len(log) < cfg.num_sessions:
        # Queries cycle over categories so the log covers every semantic topic.
        category = int(categories[category_cursor % dataset.num_categories])
        category_cursor += 1
        query_index = int(rng.choice(dataset.indices_of_category(category)))

        judged: Dict[int, int] = {}
        for round_index in range(cfg.rounds_per_query):
            if len(log) >= cfg.num_sessions:
                break
            if round_index == 0:
                distances = np.linalg.norm(features - features[query_index], axis=1)
                ranking = np.argsort(distances, kind="stable")
            else:
                ranking = _refined_ranking(features, judged)
            shown = [int(i) for i in ranking if int(i) not in judged]
            shown = shown[: cfg.images_per_session]
            if not shown:
                break
            session = user.feedback_session(query_index, shown)
            log.append(session)
            judged.update(session.judgements)
    return log
