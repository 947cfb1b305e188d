"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.simulation.engine import SimulationError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        sim = Simulator()
        fired = []
        for tag in "abc":
            sim.schedule(1.0, lambda tag=tag: fired.append(tag))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]
        assert sim.now == pytest.approx(5.0)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_run_until_stops_before_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        end = sim.run(until=5.0)
        assert fired == [1]
        assert end == pytest.approx(5.0)

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_exception_wrapped_with_time(self):
        sim = Simulator()
        sim.schedule(2.5, lambda: 1 / 0)
        with pytest.raises(SimulationError) as exc_info:
            sim.run()
        assert exc_info.value.time == pytest.approx(2.5)
        assert isinstance(exc_info.value.original, ZeroDivisionError)

    def test_empty_run_returns_now(self):
        sim = Simulator()
        assert sim.run() == pytest.approx(0.0)


class TestProcess:
    def test_process_sleeps_simulated_time(self):
        sim = Simulator()
        ticks = []

        def proc():
            while True:
                ticks.append(sim.now)
                yield 2.0

        sim.spawn(proc())
        sim.run(until=7.0)
        assert ticks == [0.0, 2.0, 4.0, 6.0]

    def test_process_completion(self):
        sim = Simulator()

        def proc():
            yield 1.0
            yield 1.0

        sim.spawn(proc())
        assert sim.run() == pytest.approx(2.0)
        assert sim.peek() is None

    def test_invalid_yield_raises(self):
        sim = Simulator()

        def proc():
            yield -1.0

        sim.spawn(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_two_processes_interleave(self):
        sim = Simulator()
        log = []

        def proc(name, period):
            while True:
                log.append((round(sim.now, 6), name))
                yield period

        sim.spawn(proc("fast", 1.0))
        sim.spawn(proc("slow", 2.0))
        sim.run(until=3.5)
        assert (0.0, "fast") in log and (0.0, "slow") in log
        assert (1.0, "fast") in log and (2.0, "slow") in log
