"""Structured events: sequencing, serialization, null log."""

import json

from repro.obs import EventLog, NullEventLog


def test_emit_sequences_and_keeps_records():
    log = EventLog()
    first = log.emit("admission_decision", app_class="web", admitted=True)
    second = log.emit("phase_transition", phase="online")
    assert first["seq"] == 0 and second["seq"] == 1
    assert len(log) == 2
    assert log.of_type("phase_transition") == [second]
    log.clear()
    assert len(log) == 0
    # The sequence keeps counting after a clear.
    assert log.emit("x")["seq"] == 2


def test_events_serialize_deterministically():
    log = EventLog()
    event = log.emit("admission_decision", admitted=True, app_class="web")
    line = json.dumps(event, sort_keys=True)
    assert json.loads(line) == event
    # sort_keys makes the byte stream deterministic.
    assert line.index('"admitted"') < line.index('"event"')


def test_null_event_log_is_inert():
    log = NullEventLog()
    out = log.emit("anything", payload=[1, 2, 3])
    assert out == {}
    assert len(log) == 0
    assert log.enabled is False
