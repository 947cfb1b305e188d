"""Spans: nesting, registry feeding, leak unwinding."""

import pytest

from repro.obs import ManualClock, MetricsRegistry, NullTracer, Tracer


def test_manual_clock_reads_and_ticks():
    clock = ManualClock(start=10.0, tick=0.5)
    assert clock() == pytest.approx(10.0)
    assert clock() == pytest.approx(10.5)
    assert clock.now == pytest.approx(11.0)
    clock.advance(4.0)
    assert clock.now == pytest.approx(15.0)
    with pytest.raises(ValueError):
        clock.advance(-1.0)
    with pytest.raises(ValueError):
        ManualClock(tick=-0.1)


def test_span_durations_come_from_the_injected_clock():
    clock = ManualClock()
    tracer = Tracer(clock=clock)
    with tracer.span("outer"):
        clock.advance(1.0)
        with tracer.span("inner"):
            clock.advance(0.25)
        clock.advance(0.5)
    assert tracer.durations("inner") == [pytest.approx(0.25)]
    assert tracer.durations("outer") == [pytest.approx(1.75)]
    assert tracer.depth == 0


def test_nesting_builds_a_tree():
    clock = ManualClock()
    tracer = Tracer(clock=clock)
    with tracer.span("root"):
        with tracer.span("a"):
            clock.advance(0.1)
        with tracer.span("b"):
            clock.advance(0.2)
    (root,) = tracer.roots
    assert [c.name for c in root.children] == ["a", "b"]
    rendered = root.tree()
    assert rendered.splitlines()[0].startswith("root")
    assert "  a" in rendered and "  b" in rendered


def test_finished_spans_feed_registry_histograms():
    clock = ManualClock()
    registry = MetricsRegistry()
    tracer = Tracer(clock=clock, registry=registry)
    for _ in range(3):
        with tracer.span("admittance.retrain"):
            clock.advance(0.01)
    hist = registry.histogram("admittance.retrain")
    assert hist.count == 3
    assert hist.sum == pytest.approx(0.03)


def test_exception_closes_the_span():
    clock = ManualClock()
    tracer = Tracer(clock=clock)
    with pytest.raises(RuntimeError):
        with tracer.span("fails"):
            clock.advance(1.0)
            raise RuntimeError("boom")
    assert tracer.depth == 0
    assert tracer.durations("fails") == [pytest.approx(1.0)]


def test_leaked_inner_spans_are_unwound():
    clock = ManualClock()
    tracer = Tracer(clock=clock)
    outer = tracer.span("outer")
    with outer:
        inner = tracer._open("leaked")  # never closed by its owner
        clock.advance(1.0)
    assert tracer.depth == 0
    assert inner.end is not None
    assert {s.name for s in tracer.finished} == {"outer", "leaked"}


def test_clear_drops_finished_spans():
    tracer = Tracer(clock=ManualClock())
    with tracer.span("x"):
        pass
    tracer.clear()
    assert tracer.roots == [] and tracer.finished == []


def test_null_tracer_is_inert():
    tracer = NullTracer()
    with tracer.span("anything") as record:
        assert record is None
    assert tracer.enabled is False
    assert tracer.roots == [] and tracer.finished == []
