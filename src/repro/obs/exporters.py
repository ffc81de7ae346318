"""Span exporters: in-memory capture for tests, crash-safe JSONL for files.

An exporter receives each finished :class:`~repro.obs.tracing.Span` from
the tracer, from whichever thread closed the span, so both implementations
here are internally locked.  :class:`InMemoryExporter` is the test/demo
workhorse; :class:`JSONLExporter` persists spans as one-JSON-object-per-line
files through :func:`repro.utils.io.atomic_text_file`, so a crash mid-flush can
never leave a torn or truncated trace file behind — readers see the previous
complete flush or the new one.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import List, Union

from repro.obs.tracing import Span
from repro.utils.io import atomic_text_file

__all__ = ["SpanExporter", "InMemoryExporter", "JSONLExporter"]

PathLike = Union[str, Path]


class SpanExporter:
    """Interface for span sinks: implement :meth:`export`, optionally :meth:`flush`."""

    def export(self, span: Span) -> None:
        """Receive one finished span (called from the closing thread)."""
        raise NotImplementedError

    def flush(self) -> None:
        """Persist anything buffered; the default is a no-op."""


class InMemoryExporter(SpanExporter):
    """Collects finished spans in a list — the test and demo exporter."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []

    def export(self, span: Span) -> None:
        """Append *span* to the in-memory list."""
        with self._lock:
            self._spans.append(span)

    @property
    def spans(self) -> List[Span]:
        """A copy of every span exported so far (export order)."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        """Forget all collected spans."""
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


class JSONLExporter(SpanExporter):
    """Writes finished spans to a JSON-lines file, atomically per flush.

    Spans are buffered in memory and flushed — every ``flush_every`` spans
    and on explicit :meth:`flush` — by rewriting the *entire* file
    atomically.  That trades a little rewrite work for the strong guarantee
    the rest of the repo's stores already give: a reader (or a crash) can
    never observe a torn line.  Flushes are serialised, so the file only
    ever grows: a flush that started earlier can never land after, and
    overwrite, one that carries more spans.

    Parameters
    ----------
    path:
        Destination ``.jsonl`` file; parent directories are created.
    flush_every:
        Auto-flush after this many buffered spans (default 256).
    """

    def __init__(self, path: PathLike, *, flush_every: int = 256) -> None:
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.flush_every = int(flush_every)
        self._lock = threading.Lock()
        self._write_lock = threading.Lock()
        self._documents: List[str] = []
        self._pending = 0

    def export(self, span: Span) -> None:
        """Buffer *span*; auto-flushes every ``flush_every`` spans."""
        line = json.dumps(span.to_document(), sort_keys=True)
        with self._lock:
            self._documents.append(line)
            self._pending += 1
            should_flush = self._pending >= self.flush_every
        if should_flush:
            self.flush()

    def flush(self) -> None:
        """Atomically rewrite the file with every span exported so far."""
        with self._write_lock:
            with self._lock:
                if not self._documents:
                    return
                payload = "\n".join(self._documents) + "\n"
                self._pending = 0
            with atomic_text_file(self.path) as handle:
                handle.write(payload)
