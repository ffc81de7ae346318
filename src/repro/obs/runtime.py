"""The ambient observability hub: configure once, instrument everywhere.

Instrumented code throughout the serving stack asks for the process-wide
hub at call time — ``hub = get_hub()`` — and bails out (or no-ops through
null instruments) when it is disabled, which is the default.  Enabling is
one call::

    from repro.obs import InMemoryExporter, configure, disable

    exporter = InMemoryExporter()
    hub = configure(exporters=[exporter])
    ...  # run a workload: spans land in `exporter`, metrics in hub.metrics
    print(render_snapshot())
    disable()

Because deep layers re-read the global on every operation, configuration
takes effect immediately without re-wiring live services, and tests can
flip observability on and off around a single workload.  The hub bundles a
:class:`~repro.obs.metrics.MetricsRegistry` and a
:class:`~repro.obs.tracing.Tracer` and adds the convenience surface the
call sites use (``count``/``observe``/``set_gauge``/``span``/``timer``),
each of which is a guarded one-liner when disabled.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Optional, Sequence, Union

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.tracing import NULL_SPAN, Tracer

__all__ = [
    "Observability",
    "configure",
    "disable",
    "get_hub",
    "render_snapshot",
    "lock_wait_recorder",
]


class _Timer:
    """Context manager that observes its wall-clock duration on exit."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._histogram.observe(time.perf_counter() - self._start)


class _NullTimer:
    """Shared do-nothing timer returned by disabled hubs."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_TIMER = _NullTimer()


class Observability:
    """A metrics registry plus a tracer behind one enable switch.

    ``enabled`` is a plain attribute read — the only cost an instrumented
    call site pays when observability is off.  All convenience methods are
    safe to call on a disabled hub; they simply do nothing.

    Parameters
    ----------
    enabled:
        Master switch; a disabled hub's registry and tracer are disabled
        too.
    exporters:
        Span sinks forwarded to the :class:`~repro.obs.tracing.Tracer`.
    """

    def __init__(self, *, enabled: bool = True, exporters: Sequence[Any] = ()) -> None:
        self.enabled = bool(enabled)
        self.metrics = MetricsRegistry(enabled=self.enabled)
        self.tracer = Tracer(exporters, enabled=self.enabled)
        self.exporters = list(exporters)

    def span(self, name: str, **attributes: Any):
        """Open a tracer span (the shared null span when disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return self.tracer.span(name, **attributes)

    def count(self, name: str, amount: float = 1.0) -> None:
        """Increment counter *name* by *amount* (no-op when disabled)."""
        if self.enabled:
            self.metrics.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        """Record *value* into histogram *name* (no-op when disabled)."""
        if self.enabled:
            self.metrics.histogram(name).observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge *name* to *value* (no-op when disabled)."""
        if self.enabled:
            self.metrics.gauge(name).set(value)

    def timer(self, name: str):
        """Context manager timing its block into histogram *name*."""
        if not self.enabled:
            return _NULL_TIMER
        return _Timer(self.metrics.histogram(name))

    def flush(self) -> None:
        """Flush every exporter that buffers (e.g. the JSONL writer)."""
        for exporter in self.exporters:
            flush = getattr(exporter, "flush", None)
            if flush is not None:
                flush()


#: The process-wide hub.  Starts disabled: all instrumentation in the
#: serving stack is dormant until :func:`configure` is called.
_HUB = Observability(enabled=False)
_HUB_LOCK = threading.Lock()


def get_hub() -> Observability:
    """The current process-wide hub (disabled by default)."""
    return _HUB


def configure(*, exporters: Sequence[Any] = ()) -> Observability:
    """Install and return a fresh *enabled* hub as the process-wide hub.

    Replaces whatever hub was active; instrumented code picks the new hub
    up on its next operation.  Pass exporters (e.g.
    :class:`~repro.obs.exporters.InMemoryExporter`,
    :class:`~repro.obs.exporters.JSONLExporter`) to capture spans.
    """
    global _HUB
    with _HUB_LOCK:
        _HUB = Observability(enabled=True, exporters=exporters)
        return _HUB


def disable() -> Observability:
    """Install and return a fresh *disabled* hub (restores the default)."""
    global _HUB
    with _HUB_LOCK:
        _HUB = Observability(enabled=False)
        return _HUB


def render_snapshot(
    fmt: str = "text", *, hub: Optional[Observability] = None
) -> Union[str, Dict[str, Any]]:
    """Render the hub's metrics as a text table or a JSON-friendly dict.

    The shape a future ``/metrics`` endpoint would serve: every registered
    counter, gauge and histogram with its current state.

    Parameters
    ----------
    fmt:
        ``"text"`` for an aligned human-readable table, ``"json"`` for a
        plain dict (``json.dumps``-able as is).
    hub:
        Hub to render; defaults to the process-wide hub.
    """
    target = hub if hub is not None else get_hub()
    snapshot = target.metrics.snapshot()
    if fmt == "json":
        return {"enabled": target.enabled, "metrics": snapshot}
    if fmt != "text":
        raise ValueError(f"fmt must be 'text' or 'json', got {fmt!r}")
    if not snapshot:
        return "(no metrics recorded)"
    width = max(len(name) for name in snapshot)
    lines = []
    for name, state in snapshot.items():
        if state["type"] == "histogram":
            detail = (
                f"count={state['count']} mean={state['mean']:.6g} "
                f"min={state['min']:.6g} max={state['max']:.6g}"
                if state["count"]
                else "count=0"
            )
            lines.append(f"{name.ljust(width)}  histogram  {detail}")
        else:
            lines.append(f"{name.ljust(width)}  {state['type']:<9}  value={state['value']:g}")
    return "\n".join(lines)


def lock_wait_recorder(prefix: str) -> Callable[[str, float], None]:
    """A lock-wait callback bound to *prefix*.

    Returns a callable suitable for ``StripedLockMap(wait_callback=...)``:
    it records each acquisition's
    wait into the histogram ``{prefix}.{mode}.wait_seconds`` on the hub
    that is current *at call time*, and early-outs when observability is
    disabled — so it can be wired unconditionally at construction.
    """

    def record(mode: str, waited: float) -> None:
        hub = get_hub()
        if hub.enabled:
            hub.metrics.histogram(f"{prefix}.{mode}.wait_seconds").observe(waited)

    return record
