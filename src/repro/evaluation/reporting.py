"""Plain-text rendering of the paper's tables and figure series."""

from __future__ import annotations

from typing import List, Optional

from repro.evaluation.results import ResultsTable

__all__ = ["render_improvement_table", "render_series"]

#: Column order matching the paper's tables.
_PAPER_ORDER = ("euclidean", "rf-svm", "lrf-2svms", "lrf-csvm")


def _ordered_methods(table: ResultsTable) -> List[str]:
    methods = table.methods
    ordered = [m for m in _PAPER_ORDER if m in methods]
    ordered.extend(m for m in methods if m not in ordered)
    return ordered


def render_improvement_table(table: ResultsTable, *, title: Optional[str] = None) -> str:
    """Render a Table-1/2-style text table with improvement columns.

    Log-based methods are annotated with their relative improvement over the
    table's baseline (RF-SVM), exactly like the ``(+x%)`` columns in the
    paper.
    """
    methods = _ordered_methods(table)
    baseline_name = table.baseline
    header = ["#TOP"] + [m.upper() for m in methods]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(" | ".join(f"{cell:>22}" if i else f"{cell:>6}" for i, cell in enumerate(header)))
    lines.append("-" * (8 + 25 * len(methods)))

    def format_cell(method: str, value: float, improvement: Optional[float]) -> str:
        if improvement is None:
            return f"{value:22.3f}"
        return f"{value:14.3f} ({improvement:+7.1%})"

    for cutoff in table.cutoffs():
        cells = [f"{cutoff:>6}"]
        for method in methods:
            value = table.result(method).precision_at(cutoff)
            improvement = None
            if method not in (baseline_name, "euclidean") and baseline_name in table:
                improvement = table.improvement_over_baseline(method, cutoff)
            cells.append(format_cell(method, value, improvement))
        lines.append(" | ".join(cells))

    cells = [f"{'MAP':>6}"]
    for method in methods:
        value = table.result(method).map_score
        improvement = None
        if method not in (baseline_name, "euclidean") and baseline_name in table:
            improvement = table.improvement_over_baseline(method)
        cells.append(format_cell(method, value, improvement))
    lines.append(" | ".join(cells))
    return "\n".join(lines)


def render_series(table: ResultsTable, *, title: Optional[str] = None) -> str:
    """Render the figure-style series: one line per method, AP at each cutoff.

    This is the textual equivalent of Figures 3 and 4 (average precision as
    a function of the number of images returned).
    """
    methods = _ordered_methods(table)
    cutoffs = table.cutoffs()
    lines: List[str] = []
    if title:
        lines.append(title)
    header = f"{'method':>12} | " + " ".join(f"@{k:<5}" for k in cutoffs)
    lines.append(header)
    lines.append("-" * len(header))
    for method in methods:
        result = table.result(method)
        values = " ".join(f"{result.precision_at(k):6.3f}" for k in cutoffs)
        lines.append(f"{method:>12} | {values}")
    return "\n".join(lines)
