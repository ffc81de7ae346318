"""A minimal, dependency-free progress reporter for long experiments."""

from __future__ import annotations

import sys
import time
from typing import Iterable, Iterator, TypeVar

__all__ = ["ProgressReporter", "track"]

T = TypeVar("T")


class ProgressReporter:
    """Periodically prints progress for a fixed-length unit of work.

    The reporter is intentionally simple (single line, updated at most once
    per ``min_interval`` seconds) so that it is safe to use from experiment
    scripts and batch jobs where a full progress-bar library would be noise.
    """

    def __init__(
        self,
        total: int,
        *,
        label: str = "progress",
        stream=None,
        min_interval: float = 0.5,
        enabled: bool = True,
    ) -> None:
        self.total = max(int(total), 1)
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = float(min_interval)
        self.enabled = bool(enabled)
        self._count = 0
        self._last_emit = 0.0
        self._started = time.monotonic()

    def update(self, increment: int = 1) -> None:
        """Advance the counter by *increment* and maybe emit a status line."""
        self._count += increment
        now = time.monotonic()
        finished = self._count >= self.total
        if not self.enabled:
            return
        if not finished and (now - self._last_emit) < self.min_interval:
            return
        self._last_emit = now
        elapsed = now - self._started
        fraction = min(self._count / self.total, 1.0)
        self.stream.write(
            f"\r{self.label}: {self._count}/{self.total} "
            f"({fraction:5.1%}, {elapsed:6.1f}s)"
        )
        if finished:
            self.stream.write("\n")
        self.stream.flush()

    def close(self) -> None:
        """Force a final status line if the loop ended early."""
        if self.enabled and self._count < self.total:
            self.stream.write("\n")
            self.stream.flush()


def track(items: Iterable[T], *, label: str = "progress", enabled: bool = True) -> Iterator[T]:
    """Iterate over *items* while reporting progress (requires ``len(items)``)."""
    sequence = list(items)
    reporter = ProgressReporter(len(sequence), label=label, enabled=enabled)
    for item in sequence:
        yield item
        reporter.update()
    reporter.close()
