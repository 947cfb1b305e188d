"""The ``Obs`` facade: one handle bundling metrics, tracing, and events.

Instrumented components take a single optional ``obs`` argument instead
of three; the module-level :data:`NULL_OBS` (the default everywhere) is
fully inert, so the disabled cost of an instrumented hot path is a
handful of no-op calls and **zero** behavioral difference — observability
never reads RNG streams, never reorders iteration, and never branches
the decision logic.

Wiring::

    obs = Obs.recording()                      # perf_counter spans
    obs = Obs.recording(clock=ManualClock())   # deterministic tests
    exbox = ExBox.with_defaults(batch_size=20, obs=obs)
    ...
    print(snapshot_json(obs.registry))
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.obs.clock import Clock
from repro.obs.events import EventDict, EventLog, NullEventLog
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry, NullRegistry
from repro.obs.tracing import NullTracer, SpanHandle, Tracer

__all__ = ["Obs", "NULL_OBS"]


class Obs:
    """Bundle of a metrics registry, a tracer, and an event log.

    The tracer is wired to the registry, so every finished span feeds a
    histogram of the same name — ``span("admittance.retrain")`` *is* the
    retrain-latency metric.
    """

    def __init__(
        self, registry: MetricsRegistry, tracer: Tracer, events: EventLog
    ) -> None:
        self.registry = registry
        self.tracer = tracer
        self.events = events

    @property
    def enabled(self) -> bool:
        """False only for the inert default; guard *expensive* event
        payload construction on this, never decision logic."""
        return self.registry.enabled

    # -- construction ---------------------------------------------------
    @classmethod
    def recording(cls, clock: Optional[Clock] = None) -> "Obs":
        """A live handle: recording registry, span-fed histograms, and an
        in-memory event log.

        ``clock`` drives span timing (``perf_counter`` by default).
        """
        registry = MetricsRegistry()
        tracer = Tracer(clock=clock, registry=registry)
        return cls(registry=registry, tracer=tracer, events=EventLog())

    @classmethod
    def disabled(cls) -> "Obs":
        """The shared inert handle (also importable as ``NULL_OBS``)."""
        return NULL_OBS

    # -- delegation -----------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self.registry.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.registry.gauge(name)

    def histogram(self, name: str, buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self.registry.histogram(name, buckets=buckets)

    def span(self, name: str) -> SpanHandle:
        return self.tracer.span(name)

    def emit(self, event_type: str, **fields: Any) -> EventDict:
        return self.events.emit(event_type, **fields)


class _NullObs(Obs):
    """Inert singleton; see :data:`NULL_OBS`."""

    def __init__(self) -> None:
        super().__init__(
            registry=NullRegistry(), tracer=NullTracer(), events=NullEventLog()
        )


#: The default ``obs`` everywhere: shared, inert, allocation-free.
NULL_OBS: Obs = _NullObs()
