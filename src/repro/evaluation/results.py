"""Result containers: per-method precision tables and improvement columns."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.evaluation.metrics import mean_average_precision
from repro.exceptions import EvaluationError

__all__ = ["MethodResult", "ResultsTable"]


@dataclass
class MethodResult:
    """Evaluation outcome of one retrieval scheme.

    Attributes
    ----------
    method:
        Scheme name (``euclidean``, ``rf-svm``, ``lrf-2svms``, ``lrf-csvm``).
    average_precision:
        Mapping of cutoff → average precision over all queries.
    per_query:
        Optional list of per-query precision curves (kept for statistical
        analysis; each entry maps cutoff → precision for one query).
    """

    method: str
    average_precision: Dict[int, float]
    per_query: List[Dict[int, float]] = field(default_factory=list)

    @property
    def map_score(self) -> float:
        """The paper's MAP: mean of the per-cutoff average precisions."""
        return mean_average_precision(self.average_precision)

    @property
    def cutoffs(self) -> Tuple[int, ...]:
        """The cutoffs this result covers, in increasing order."""
        return tuple(sorted(self.average_precision))

    def precision_at(self, cutoff: int) -> float:
        """Average precision at one cutoff."""
        try:
            return self.average_precision[int(cutoff)]
        except KeyError:
            raise EvaluationError(
                f"cutoff {cutoff} not evaluated for method '{self.method}'"
            ) from None

    def improvement_over(self, baseline: "MethodResult", cutoff: Optional[int] = None) -> float:
        """Relative improvement over *baseline* (fraction, e.g. 0.25 = +25%).

        With ``cutoff=None`` the improvement is computed on MAP.
        """
        if cutoff is None:
            own, base = self.map_score, baseline.map_score
        else:
            own, base = self.precision_at(cutoff), baseline.precision_at(cutoff)
        if base <= 0:
            raise EvaluationError(
                f"baseline '{baseline.method}' has non-positive precision; "
                "improvement is undefined"
            )
        return (own - base) / base


class ResultsTable:
    """All methods' results for one experiment (one of the paper's tables)."""

    def __init__(self, *, dataset_name: str, baseline: str = "rf-svm") -> None:
        self.dataset_name = dataset_name
        self.baseline = baseline
        self._methods: Dict[str, MethodResult] = {}

    # --------------------------------------------------------------- content
    def add(self, result: MethodResult) -> None:
        """Add (or replace) the result of one method."""
        self._methods[result.method] = result

    def __contains__(self, method: str) -> bool:
        return method in self._methods

    def __len__(self) -> int:
        return len(self._methods)

    @property
    def methods(self) -> List[str]:
        """Names of the methods present, insertion-ordered."""
        return list(self._methods)

    def result(self, method: str) -> MethodResult:
        """Result of one method."""
        try:
            return self._methods[method]
        except KeyError:
            raise EvaluationError(
                f"method '{method}' is not part of this results table "
                f"(have {sorted(self._methods)})"
            ) from None

    def cutoffs(self) -> Tuple[int, ...]:
        """Cutoffs common to every method in the table."""
        if not self._methods:
            raise EvaluationError("the results table is empty")
        sets = [set(result.cutoffs) for result in self._methods.values()]
        common = set.intersection(*sets)
        return tuple(sorted(common))

    # ------------------------------------------------------------- summaries
    def improvement_over_baseline(self, method: str, cutoff: Optional[int] = None) -> float:
        """Relative improvement of *method* over the table's baseline."""
        return self.result(method).improvement_over(self.result(self.baseline), cutoff)

    def as_rows(self) -> List[Dict[str, float]]:
        """Rows of the paper-style table: one row per cutoff plus a MAP row.

        Each row maps ``"cutoff"`` (or ``"MAP"``) and one column per method;
        log-based methods additionally get ``"<method>_improvement"`` columns
        relative to the baseline.
        """
        rows: List[Dict[str, float]] = []
        baseline = self.result(self.baseline) if self.baseline in self._methods else None
        for cutoff in self.cutoffs():
            row: Dict[str, float] = {"cutoff": float(cutoff)}
            for method, result in self._methods.items():
                row[method] = result.precision_at(cutoff)
                if baseline is not None and method != self.baseline and method != "euclidean":
                    row[f"{method}_improvement"] = result.improvement_over(baseline, cutoff)
            rows.append(row)
        map_row: Dict[str, float] = {"cutoff": float("nan")}
        for method, result in self._methods.items():
            map_row[method] = result.map_score
            if baseline is not None and method != self.baseline and method != "euclidean":
                map_row[f"{method}_improvement"] = result.improvement_over(baseline)
        rows.append(map_row)
        return rows
