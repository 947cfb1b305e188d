"""Structured events: flat, JSON-serializable records of what happened.

Counters say *how often*; events say *what exactly happened*. Each event
is one flat dict — an event type, a monotonically increasing sequence
number, and the caller's fields — kept in memory for test assertions and
post-run inspection::

    log = EventLog()
    log.emit("admission_decision", app_class="web", admitted=True)

Field values must be JSON-serializable scalars or small containers, so
``json.dumps(event, sort_keys=True)`` is byte-deterministic for a given
event stream.
"""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = ["EventDict", "EventLog", "NullEventLog"]

EventDict = Dict[str, Any]


class EventLog:
    """In-memory event recorder; ``records`` holds every event emitted."""

    enabled: bool = True

    def __init__(self) -> None:
        self.records: List[EventDict] = []
        self._seq = 0

    def emit(self, event_type: str, **fields: Any) -> EventDict:
        """Record one event; returns the finished dict."""
        event: EventDict = {"event": event_type, "seq": self._seq}
        event.update(fields)
        self._seq += 1
        self.records.append(event)
        return event

    def of_type(self, event_type: str) -> List[EventDict]:
        """Recorded events of one type, in emission order."""
        return [e for e in self.records if e["event"] == event_type]

    def clear(self) -> None:
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)


class NullEventLog(EventLog):
    """No-op event log: ``emit`` allocates nothing and keeps nothing."""

    enabled = False
    _EMPTY: EventDict = {}

    def emit(self, event_type: str, **fields: Any) -> EventDict:
        return self._EMPTY
