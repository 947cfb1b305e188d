"""Event-driven simulation kernel.

The kernel provides:

- :class:`Simulator` — a time-ordered event queue with deterministic
  FIFO tie-breaking for simultaneous events,
- :class:`Event` — a scheduled callback,
- :class:`Process` — a generator-based coroutine that yields delays
  (floats) to sleep for simulated time, in the style of simpy.

Time is in seconds (float). The kernel never advances past events that
raise; exceptions propagate to the ``run()`` caller with the simulated
time attached for debugging.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Generator, Optional

__all__ = ["Event", "Process", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Wraps an exception raised inside an event callback."""

    def __init__(self, time: float, original: BaseException) -> None:
        super().__init__(f"error at simulated time {time:.6f}s: {original!r}")
        self.time = time
        self.original = original


class Event:
    """A callback scheduled at simulated ``time``."""

    __slots__ = ("time", "callback", "_seq")

    def __init__(self, time: float, callback: Callable[[], None], seq: int) -> None:
        self.time = time
        self.callback = callback
        self._seq = seq

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self._seq) < (other.time, other._seq)


class Simulator:
    """Calendar-queue discrete event simulator."""

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: list[Event] = []
        self._counter = itertools.count()
        self._running = False
        self.events_dispatched = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        event = Event(self.now + delay, callback, next(self._counter))
        heapq.heappush(self._queue, event)
        return event

    def spawn(self, generator: Generator[float, None, None]) -> "Process":
        """Launch a generator-based process (see :class:`Process`)."""
        return Process(self, generator)

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None when the queue is empty."""
        return self._queue[0].time if self._queue else None

    def step(self) -> bool:
        """Dispatch one event. Returns False when the queue is empty."""
        if not self._queue:
            return False
        event = heapq.heappop(self._queue)
        self.now = event.time
        self.events_dispatched += 1
        try:
            event.callback()
        except SimulationError:
            raise
        except BaseException as exc:
            raise SimulationError(self.now, exc) from exc
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or ``until`` is reached.

        Returns the simulated time at which the run stopped.
        """
        if self._running:
            raise RuntimeError("simulator is not reentrant")
        self._running = True
        try:
            while True:
                next_time = self.peek()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self.now = until
                    break
                self.step()
        finally:
            self._running = False
        return self.now


class Process:
    """Generator-based coroutine: ``yield <seconds>`` sleeps simulated time.

    The process ends when its generator returns.
    """

    def __init__(self, sim: Simulator, generator: Generator[float, None, None]) -> None:
        self._sim = sim
        self._gen = generator
        # Kick off on the current tick, not synchronously, so spawn order
        # within one callback does not matter.
        sim.schedule(0.0, self._advance)

    def _advance(self) -> None:
        try:
            delay = next(self._gen)
        except StopIteration:
            return
        if delay is None or delay < 0:
            raise ValueError(f"process yielded invalid delay {delay!r}")
        self._sim.schedule(float(delay), self._advance)
