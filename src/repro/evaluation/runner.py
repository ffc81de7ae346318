"""The experiment runner: evaluate several schemes under one protocol.

The protocol builds one feedback context per evaluation query (initial
Euclidean retrieval plus the automatic judgements); every scheme then
scores all of them in one :meth:`~repro.feedback.base.RelevanceFeedbackAlgorithm.rank_batch`
call, each context carrying a fresh
:class:`~repro.feedback.base.FeedbackMemory` — the state a newly opened
session would bring to its first round.  The comparison is offline: no
sessions, session stores or locks are involved, and the log is only read.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.cbir.database import ImageDatabase
from repro.datasets.dataset import ImageDataset
from repro.evaluation.metrics import average_precision_at_cutoffs, precision_curve
from repro.evaluation.protocol import EvaluationProtocol, ProtocolConfig
from repro.evaluation.results import MethodResult, ResultsTable
from repro.exceptions import EvaluationError
from repro.feedback.base import FeedbackMemory, RelevanceFeedbackAlgorithm
from repro.feedback.registry import make_algorithm
from repro.utils.progress import ProgressReporter
from repro.utils.rng import RandomState

__all__ = ["ExperimentRunner"]


class ExperimentRunner:
    """Run the paper's evaluation protocol for a set of retrieval schemes.

    Every scheme is evaluated on exactly the same queries and the same
    simulated feedback, so differences in the resulting table are caused by
    the schemes themselves — the controlled comparison of Section 6.4.

    Parameters
    ----------
    dataset, database:
        The evaluation corpus and its (shared) database.
    protocol:
        Protocol configuration (queries, labelled images, cutoffs).
    random_state:
        Overrides the protocol seed for query sampling / feedback noise.
    """

    def __init__(
        self,
        dataset: ImageDataset,
        database: ImageDatabase,
        *,
        protocol: Optional[ProtocolConfig] = None,
        random_state: RandomState = None,
    ) -> None:
        self.dataset = dataset
        self.database = database
        self.protocol_config = protocol if protocol is not None else ProtocolConfig()
        self.protocol = EvaluationProtocol(
            dataset, database, self.protocol_config, random_state=random_state
        )

    def run(
        self,
        algorithms: Union[Sequence[str], Mapping[str, RelevanceFeedbackAlgorithm]],
        *,
        show_progress: bool = False,
    ) -> ResultsTable:
        """Evaluate *algorithms* and return the populated results table.

        Parameters
        ----------
        algorithms:
            Either a list of registry names or a mapping of display name →
            algorithm instance.
        show_progress:
            Print a progress line (one tick per query per scheme).
        """
        schemes = self._resolve(algorithms)
        if not schemes:
            raise EvaluationError("run() needs at least one algorithm")

        queries = self.protocol.sample_queries()
        cutoffs = self.protocol_config.cutoffs
        max_cutoff = max(cutoffs)
        if max_cutoff > self.dataset.num_images:
            raise EvaluationError(
                f"the largest cutoff ({max_cutoff}) exceeds the database size "
                f"({self.dataset.num_images})"
            )

        # Every scheme receives *identical* contexts: the same queries, the
        # same initial retrieval and the same judgements, in ranking order.
        contexts = [self.protocol.build_context(int(q)) for q in queries]
        relevant = {int(q): self.protocol.ground_truth(int(q)) for q in queries}

        reporter = ProgressReporter(
            len(queries) * len(schemes),
            label=f"evaluate[{self.dataset.name}]",
            enabled=show_progress,
        )
        table = ResultsTable(dataset_name=self.dataset.name)
        for name, algorithm in schemes.items():
            ranked = algorithm.rank_batch(
                [replace(context, memory=FeedbackMemory()) for context in contexts],
                top_k=max_cutoff,
            )

            curves: List[Dict[int, float]] = []
            for query_index, result in zip(queries, ranked):
                curves.append(
                    precision_curve(
                        result.image_indices,
                        relevant[int(query_index)],
                        cutoffs,
                    )
                )
                reporter.update()
            table.add(
                MethodResult(
                    method=name,
                    average_precision=average_precision_at_cutoffs(curves, cutoffs),
                    per_query=curves,
                )
            )
        return table

    # ------------------------------------------------------------- internals
    @staticmethod
    def _resolve(
        algorithms: Union[Sequence[str], Mapping[str, RelevanceFeedbackAlgorithm]]
    ) -> Dict[str, RelevanceFeedbackAlgorithm]:
        if isinstance(algorithms, Mapping):
            return dict(algorithms)
        return {name: make_algorithm(name) for name in algorithms}
