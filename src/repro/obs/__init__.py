"""Observability for the ExBox pipeline: metrics, spans, events.

The paper's headline evaluation (Section 5.3, Figures 15-16) is about
latencies — admission decisions and SVM retrains — so this package gives
every hot path a way to report where time and decisions go:

- :mod:`repro.obs.registry` — counters, gauges, fixed-bucket histograms,
- :mod:`repro.obs.tracing` — nested spans with a pluggable clock,
- :mod:`repro.obs.events` — structured in-memory events (one
  ``admission_decision`` per decision),
- :mod:`repro.obs.exporters` — JSON snapshot (``BENCH_*.json``) and
  Chrome trace-event timeline formats,
- :mod:`repro.obs.diffing` — snapshot-to-snapshot comparison backing
  ``python -m repro obs diff``, and the CI regression gate read through
  it (``python -m repro obs check``),
- :mod:`repro.obs.facade` — the one-argument :class:`Obs` bundle and the
  inert :data:`NULL_OBS` default.

See ``docs/observability.md`` for the metric catalogue and span names.
"""

from repro.obs.clock import MONOTONIC, Clock, ManualClock
from repro.obs.diffing import (
    GateCheck,
    GateResult,
    HistogramDelta,
    ScalarDelta,
    SnapshotDiff,
    check_baseline,
    diff_snapshots,
)
from repro.obs.events import EventDict, EventLog, NullEventLog
from repro.obs.exporters import (
    load_snapshot,
    snapshot,
    snapshot_json,
    to_chrome_trace,
    write_bench_json,
    write_chrome_trace,
)
from repro.obs.facade import NULL_OBS, Obs
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.tracing import NullTracer, Tracer

__all__ = [
    "MONOTONIC",
    "Clock",
    "ManualClock",
    "GateCheck",
    "GateResult",
    "check_baseline",
    "HistogramDelta",
    "ScalarDelta",
    "SnapshotDiff",
    "diff_snapshots",
    "EventDict",
    "EventLog",
    "NullEventLog",
    "load_snapshot",
    "snapshot",
    "snapshot_json",
    "to_chrome_trace",
    "write_bench_json",
    "write_chrome_trace",
    "NULL_OBS",
    "Obs",
    "DEFAULT_LATENCY_BUCKETS_S",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NullTracer",
    "Tracer",
]
