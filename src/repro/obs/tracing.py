"""Per-round span trees with context propagation across thread fan-out.

A :class:`Span` is one timed operation (a feedback round, an SMO solve, a
log append).  Spans form trees: the :class:`Tracer` keeps the *current*
span in a :class:`contextvars.ContextVar`, so a span opened inside another
span's ``with`` block records it as its parent — including across threads,
when a job is submitted under :func:`contextvars.copy_context`, which
snapshots the submitting thread's current span into the worker.  That is
the whole propagation mechanism; no thread-locals, no explicit plumbing
through call signatures.

A disabled tracer returns a shared :data:`NULL_SPAN` whose methods are
no-ops, mirroring the metrics registry's disabled fast path.  Finished spans
are handed to the tracer's exporters (see :mod:`repro.obs.exporters`);
:func:`build_span_tree` / :func:`format_span_tree` reassemble and
pretty-print the exported flat list.
"""

from __future__ import annotations

import contextvars
import itertools
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence

__all__ = [
    "Span",
    "Tracer",
    "NULL_SPAN",
    "current_span",
    "build_span_tree",
    "format_span_tree",
]

#: The ambient current span, shared by all tracers in the process.  A
#: ContextVar (not a thread-local) so that ``contextvars.copy_context()``
#: carries the active span into worker threads.
_CURRENT_SPAN: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)

#: Process-wide id mints.  Monotonic counters (not random ids) keep traces
#: deterministic and cheap; uniqueness only needs to hold per process.
_SPAN_IDS = itertools.count(1)
_TRACE_IDS = itertools.count(1)


def current_span() -> Optional["Span"]:
    """The span currently open in this context (``None`` outside any span)."""
    return _CURRENT_SPAN.get()


class Span:
    """One timed, attributed operation in a trace tree.

    Spans are context managers: entering stamps the start time and installs
    the span as the ambient current span; exiting stamps the end, restores
    the previous current span, and exports the finished span.  Use
    :meth:`set` to attach attributes discovered mid-operation (iteration
    counts, result sizes).

    Attributes
    ----------
    name:
        Operation name (``service.round``, ``solver.smo.solve``, ...).
    trace_id:
        Identifier shared by every span of one tree; minted by root spans
        and inherited by children.
    span_id / parent_id:
        This span's id and its parent's (``None`` for roots).
    start / end:
        ``time.perf_counter()`` stamps; ``end`` is ``None`` while open.
    attributes:
        Free-form ``str -> value`` annotations.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "end",
        "attributes",
        "_tracer",
        "_token",
    )

    def __init__(self, name: str, tracer: Optional["Tracer"], **attributes: Any) -> None:
        self.name = name
        self.trace_id: Optional[int] = None
        self.span_id = next(_SPAN_IDS)
        self.parent_id: Optional[int] = None
        self.start: Optional[float] = None
        self.end: Optional[float] = None
        self.attributes: Dict[str, Any] = dict(attributes)
        self._tracer = tracer
        self._token: Optional[contextvars.Token] = None

    @property
    def duration(self) -> Optional[float]:
        """Seconds between start and end (``None`` while the span is open)."""
        if self.start is None or self.end is None:
            return None
        return self.end - self.start

    def set(self, **attributes: Any) -> "Span":
        """Merge *attributes* into the span's annotations; returns ``self``."""
        self.attributes.update(attributes)
        return self

    def __enter__(self) -> "Span":
        parent = _CURRENT_SPAN.get()
        if parent is not None:
            self.parent_id = parent.span_id
            self.trace_id = parent.trace_id
        else:
            self.trace_id = next(_TRACE_IDS)
        self._token = _CURRENT_SPAN.set(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = time.perf_counter()
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
            self._token = None
        if self._tracer is not None:
            self._tracer._export(self)

    def to_document(self) -> Dict[str, Any]:
        """A JSON-friendly dump of the finished span."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attributes": dict(self.attributes),
        }


class _NullSpan:
    """Shared do-nothing span returned by disabled tracers."""

    __slots__ = ()

    # Mirror the real span's read surface so instrumented code can annotate
    # unconditionally.
    name = "null"
    trace_id = None
    span_id = 0
    parent_id = None
    start = None
    end = None
    duration = None
    attributes: Dict[str, Any] = {}

    def set(self, **attributes: Any) -> "_NullSpan":
        """No-op; returns ``self``."""
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


#: The singleton no-op span: entering/exiting/annotating it does nothing.
NULL_SPAN = _NullSpan()


class Tracer:
    """Mints spans and ships the finished ones to exporters.

    Parameters
    ----------
    exporters:
        Objects with an ``export(span)`` method (see
        :mod:`repro.obs.exporters`); called once per finished span, in
        order, from whichever thread closed the span.
    enabled:
        When ``False`` every :meth:`span` call returns the shared
        :data:`NULL_SPAN` and nothing is recorded.
    """

    def __init__(self, exporters: Sequence[Any] = (), *, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._exporters = tuple(exporters)

    def span(self, name: str, **attributes: Any):
        """Open a new span as a context manager.

        The span's parent is whatever span is current in the calling
        context at ``__enter__`` time.
        """
        if not self.enabled:
            return NULL_SPAN
        return Span(name, self, **attributes)

    def _export(self, span: Span) -> None:
        for exporter in self._exporters:
            exporter.export(span)


def build_span_tree(spans: Iterable[Span]) -> List[Dict[str, Any]]:
    """Reassemble exported spans into ``{span, children}`` trees.

    Returns the list of root nodes (spans whose parent is ``None`` or was
    not exported), each a dict with keys ``span`` and ``children``, children
    ordered by start time.
    """
    nodes = {span.span_id: {"span": span, "children": []} for span in spans}
    roots: List[Dict[str, Any]] = []
    for node in nodes.values():
        parent = nodes.get(node["span"].parent_id)
        if parent is not None:
            parent["children"].append(node)
        else:
            roots.append(node)
    order = lambda item: (item["span"].start or 0.0, item["span"].span_id)  # noqa: E731
    for node in nodes.values():
        node["children"].sort(key=order)
    roots.sort(key=order)
    return roots


def format_span_tree(spans: Iterable[Span], *, indent: str = "  ") -> str:
    """Render exported spans as an indented text tree with durations."""
    lines: List[str] = []

    def walk(node: Dict[str, Any], depth: int) -> None:
        span = node["span"]
        duration = span.duration
        stamp = f"{duration * 1e3:.2f} ms" if duration is not None else "open"
        attrs = ""
        if span.attributes:
            joined = ", ".join(f"{k}={v}" for k, v in sorted(span.attributes.items()))
            attrs = f"  [{joined}]"
        lines.append(f"{indent * depth}{span.name}  ({stamp}){attrs}")
        for child in node["children"]:
            walk(child, depth + 1)

    for root in build_span_tree(spans):
        walk(root, 0)
    return "\n".join(lines)
