"""Exporters: JSON snapshots (``BENCH_*.json``) and Chrome trace-event
timelines.

The JSON snapshot is the canonical interchange form — a plain dict of
counters, gauges, and histograms that round-trips losslessly through
:func:`snapshot` / :func:`load_snapshot` (bucket bounds, counts, sums,
extrema). ``BENCH_*.json`` files written by :func:`write_bench_json` are
exactly this snapshot plus a caller-supplied ``meta`` block, which is
what CI uploads to start the performance trajectory.

:func:`to_chrome_trace` turns a tracer's finished span trees into the
Chrome trace-event format, so one experiment's timing becomes a timeline
loadable in ``chrome://tracing`` / Perfetto: each span is one complete
(``"ph": "X"``) event whose nesting the viewer reconstructs from the
start/duration overlap.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.tracing import SpanRecord, Tracer

__all__ = [
    "snapshot",
    "load_snapshot",
    "snapshot_json",
    "write_bench_json",
    "to_chrome_trace",
    "write_chrome_trace",
]

_INF_LABEL = "+Inf"


def _bound_out(bound: float) -> Union[float, str]:
    return _INF_LABEL if math.isinf(bound) else bound


def _bound_in(bound: Union[float, str]) -> float:
    return math.inf if bound == _INF_LABEL else float(bound)


def _histogram_out(hist: Histogram) -> Dict[str, Any]:
    return {
        "buckets": [
            [_bound_out(bound), count] for bound, count in hist.bucket_counts()
        ],
        "count": hist.count,
        "sum": hist.sum,
        "min": hist.min,
        "max": hist.max,
    }


def snapshot(registry: MetricsRegistry) -> Dict[str, Any]:
    """JSON-able dict of everything the registry holds, sorted by name."""
    return {
        "counters": {
            name: c.value for name, c in registry.counters().items()
        },
        "gauges": {name: g.value for name, g in registry.gauges().items()},
        "histograms": {
            name: _histogram_out(h) for name, h in registry.histograms().items()
        },
    }


def load_snapshot(data: Dict[str, Any]) -> MetricsRegistry:
    """Rebuild a registry from a :func:`snapshot` dict (exact inverse)."""
    registry = MetricsRegistry()
    for name, value in data.get("counters", {}).items():
        registry.counter(name).inc(value)
    for name, value in data.get("gauges", {}).items():
        registry.gauge(name).set(value)
    for name, payload in data.get("histograms", {}).items():
        pairs = [(_bound_in(b), int(n)) for b, n in payload["buckets"]]
        hist = registry.histogram(
            name, buckets=[b for b, _ in pairs if not math.isinf(b)]
        )
        hist._counts = [n for _, n in pairs]
        hist._count = int(payload["count"])
        hist._sum = float(payload["sum"])
        hist._min = math.inf if payload["min"] is None else float(payload["min"])
        hist._max = -math.inf if payload["max"] is None else float(payload["max"])
    return registry


def snapshot_json(registry: MetricsRegistry, indent: Optional[int] = 2) -> str:
    """The snapshot serialized with sorted keys (byte-deterministic)."""
    return json.dumps(snapshot(registry), sort_keys=True, indent=indent)


def write_bench_json(
    path: Union[str, Path],
    registry: MetricsRegistry,
    meta: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write ``{"meta": ..., "metrics": snapshot}`` to ``path``."""
    path = Path(path)
    payload = {"meta": dict(meta or {}), "metrics": snapshot(registry)}
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return path


def _span_events(
    record: SpanRecord, out: List[Dict[str, Any]], pid: int, tid: int
) -> None:
    if record.end is None:  # still open; not part of the finished timeline
        return
    out.append(
        {
            "name": record.name,
            "cat": "repro",
            "ph": "X",
            "ts": record.start * 1e6,  # trace-event timestamps are in µs
            "dur": record.duration * 1e6,
            "pid": pid,
            "tid": tid,
        }
    )
    for child in record.children:
        _span_events(child, out, pid, tid)


def to_chrome_trace(
    tracer: Tracer, meta: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Chrome trace-event dict of every finished root span tree.

    The result loads directly into ``chrome://tracing`` or Perfetto:
    ``{"traceEvents": [...], "displayTimeUnit": "ms"}`` with one complete
    event per span, emitted depth-first in root-completion order so the
    output is deterministic for a given run. Spans still open at export
    time are omitted (they have no duration yet).
    """
    events: List[Dict[str, Any]] = []
    for root in tracer.roots:
        _span_events(root, events, pid=1, tid=1)
    payload: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if meta:
        payload["otherData"] = dict(meta)
    return payload


def write_chrome_trace(
    path: Union[str, Path],
    tracer: Tracer,
    meta: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write :func:`to_chrome_trace` JSON to ``path``."""
    path = Path(path)
    path.write_text(
        json.dumps(to_chrome_trace(tracer, meta=meta), sort_keys=True, indent=2)
        + "\n",
        encoding="utf-8",
    )
    return path
