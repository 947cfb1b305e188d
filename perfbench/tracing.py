"""Spans and counters for the benchmark, kept out of ``repro``.

The benchmark times the program from outside: it replaces public methods
on the *instances* a pass uses with wrappers that record a span or bump a
counter, and leaves the classes (and every other instance) untouched.
Nothing here imports ``repro``, so the program's own observability layer
can change without moving the benchmark's numbers.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Tracer", "tail_percentile"]


class Tracer:
    """In-memory span recorder for one traced pass.

    A span is ``[name, start, end, parent]``, where ``parent`` is the index
    of the enclosing span or -1. The program is single-threaded, so spans
    nest strictly and a stack gives each its parent.
    """

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    def span(
        self,
        obj: Any,
        method: str,
        name: str,
        rename: Optional[Callable[[Any], str]] = None,
    ) -> None:
        """Record a span around every call of ``obj.method``.

        ``rename`` maps the call's result to the span's final name, so one
        entry point can report two layers (an observe that retrained).
        """
        inner = getattr(obj, method)
        clock = time.perf_counter
        spans, stack = self.spans, self._stack

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = inner(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if rename is not None:
                record[0] = rename(result)
            return result

        setattr(obj, method, wrapped)

    def count(
        self,
        obj: Any,
        method: str,
        name: str,
        amount: Optional[Callable[..., int]] = None,
    ) -> None:
        """Count the calls of ``obj.method`` under ``name``, or add
        ``amount(*args)`` per call (work such as flows per call)."""
        inner = getattr(obj, method)
        counts = self.counts

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1 if amount is None else amount(*args)
            return inner(*args, **kwargs)

        setattr(obj, method, wrapped)

    def layers(self) -> Dict[str, Dict[str, Any]]:
        """Per span name: calls, total and self seconds, and durations.

        Self time is a span's duration minus the time its direct children
        cover; top-level spans are those with no parent.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, Any]] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "top_s": 0.0,
                       "durations": []}
            )
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
            if parent < 0:
                row["top_s"] += end - start
            row["durations"].append(end - start)
        return out


def tail_percentile(n: int, beyond: int = 10) -> int:
    """Highest whole percentile with at least ``beyond`` of ``n`` samples
    above it; 0 when ``n`` is too small to have a tail."""
    if n <= beyond:
        return 0
    return int(math.floor(100.0 * (n - beyond) / n))
