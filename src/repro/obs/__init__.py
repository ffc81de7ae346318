"""Observability for the serving stack: metrics, per-round tracing, exporters.

``repro.obs`` answers "why was this feedback round slow?" at runtime: a
:class:`MetricsRegistry` of thread-safe counters/gauges/histograms, a
:class:`Tracer` that assembles per-feedback-round span trees (session open →
feedback batch → coupled-SMO solves → log append) whose parent/child links
survive thread fan-out under :func:`contextvars.copy_context`,
and pluggable exporters (in-memory, crash-safe JSONL).  Everything is off by
default behind a process-wide hub with a true no-op fast path —
:func:`configure` turns it on, :func:`disable` turns it back off, and
:func:`render_snapshot` dumps the collected metrics as text or JSON.

See ``docs/observability.md`` for the metric catalogue, span taxonomy and
measured overhead.
"""

from __future__ import annotations

from repro.obs.exporters import InMemoryExporter, JSONLExporter, SpanExporter
from repro.obs.metrics import DEFAULT_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.runtime import (
    Observability,
    configure,
    disable,
    get_hub,
    lock_wait_recorder,
    render_snapshot,
)
from repro.obs.tracing import (
    NULL_SPAN,
    Span,
    Tracer,
    build_span_tree,
    current_span,
    format_span_tree,
)

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "Tracer",
    "Span",
    "NULL_SPAN",
    "current_span",
    "build_span_tree",
    "format_span_tree",
    "SpanExporter",
    "InMemoryExporter",
    "JSONLExporter",
    "Observability",
    "configure",
    "disable",
    "get_hub",
    "render_snapshot",
    "lock_wait_recorder",
]
