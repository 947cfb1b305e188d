"""Tracing spans: nested timing trees with a pluggable clock.

A span measures one named region of code::

    with tracer.span("admittance.retrain"):
        learner.retrain()

Spans nest — opening a span while another is active makes it a child, so
one ``exbox.handle_arrival`` root can show the ``svm.fit`` it triggered
underneath. Completed root spans accumulate on ``tracer.roots`` (a
bounded deque is unnecessary at experiment scale; callers may ``clear()``
between episodes), every finished span lands on ``tracer.finished`` in
completion order, and — when the tracer is wired to a registry — each
duration is also observed into a histogram named after the span, which
is how ``admittance.retrain`` becomes a latency distribution in the
exported snapshot.

The :class:`NullTracer` keeps the same API at one no-op context-manager
per call, so instrumented code never branches on "is tracing on?".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.obs.clock import MONOTONIC, Clock
from repro.obs.registry import MetricsRegistry

__all__ = ["SpanRecord", "SpanHandle", "Tracer", "NullTracer"]

@dataclass
class SpanRecord:
    """One finished (or still-open) timed region."""

    name: str
    start: float
    end: Optional[float] = None
    children: List["SpanRecord"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def tree(self, indent: int = 0) -> str:
        """Indented rendering of this span and its descendants."""
        line = f"{'  ' * indent}{self.name}  {self.duration * 1e3:.3f} ms"
        return "\n".join(
            [line, *(child.tree(indent + 1) for child in self.children)]
        )


class SpanHandle:
    """Context manager for one named region of a tracer."""

    __slots__ = ("_tracer", "_name", "_record")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._record: Optional[SpanRecord] = None

    def __enter__(self) -> SpanRecord:
        self._record = self._tracer._open(self._name)
        return self._record

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        record = self._record
        self._record = None
        if record is not None:
            self._tracer._close(record)


class Tracer:
    """Collects nested :class:`SpanRecord` trees.

    Parameters
    ----------
    clock:
        Zero-argument seconds source; inject a
        :class:`~repro.obs.clock.ManualClock` in tests.
    registry:
        Optional metrics registry; every finished span's duration is
        observed into ``registry.histogram(span_name)``.
    """

    enabled: bool = True

    def __init__(
        self,
        clock: Optional[Clock] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.clock: Clock = clock if clock is not None else MONOTONIC
        self.registry = registry
        self.roots: List[SpanRecord] = []
        self.finished: List[SpanRecord] = []
        self._stack: List[SpanRecord] = []

    def span(self, name: str) -> SpanHandle:
        """A context manager timing ``name``."""
        return SpanHandle(self, name)

    def _open(self, name: str) -> SpanRecord:
        record = SpanRecord(name=name, start=self.clock())
        if self._stack:
            self._stack[-1].children.append(record)
        self._stack.append(record)
        return record

    def _close(self, record: SpanRecord) -> None:
        record.end = self.clock()
        # Unwind to this record even if inner spans leaked (an exception
        # skipped their __exit__): close them at the same instant.
        while self._stack:
            top = self._stack.pop()
            if top.end is None:
                top.end = record.end
            self.finished.append(top)
            if top is record:
                break
        if not self._stack:
            self.roots.append(record)
        if self.registry is not None:
            self.registry.histogram(record.name).observe(record.duration)

    def durations(self, name: str) -> List[float]:
        """Durations of every finished span named ``name``, in order."""
        return [s.duration for s in self.finished if s.name == name]

    @property
    def depth(self) -> int:
        """How many spans are currently open."""
        return len(self._stack)

    def clear(self) -> None:
        """Drop finished spans (open spans are kept)."""
        self.roots.clear()
        self.finished.clear()


class _NullSpanHandle:
    """Shared inert context manager."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        return None


class NullTracer(Tracer):
    """No-op tracer: ``span()`` hands back one shared inert handle."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(clock=lambda: 0.0, registry=None)
        self._handle = _NullSpanHandle()

    def span(self, name: str) -> SpanHandle:
        return self._handle  # type: ignore[return-value]
