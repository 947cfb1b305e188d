"""Snapshot round-trip and the BENCH file format."""

import json
import math

import pytest

from repro.obs import (
    MetricsRegistry,
    load_snapshot,
    snapshot,
    snapshot_json,
    write_bench_json,
)


def populated_registry():
    reg = MetricsRegistry()
    reg.counter("exbox.decisions.admitted").inc(7)
    reg.counter("exbox.decisions.rejected").inc(3)
    reg.gauge("exbox.flows.active").set(4)
    hist = reg.histogram("admittance.retrain", buckets=[0.001, 0.01, 0.1, 1.0])
    for v in (0.0005, 0.02, 0.02, 2.5):
        hist.observe(v)
    return reg


def test_snapshot_shape():
    snap = snapshot(populated_registry())
    assert snap["counters"] == {
        "exbox.decisions.admitted": 7,
        "exbox.decisions.rejected": 3,
    }
    assert snap["gauges"] == {"exbox.flows.active": 4}
    hist = snap["histograms"]["admittance.retrain"]
    assert hist["count"] == 4
    assert hist["buckets"][-1][0] == "+Inf"
    assert hist["buckets"][-1][1] == 1


def test_snapshot_round_trips_exactly():
    reg = populated_registry()
    snap = snapshot(reg)
    rebuilt = load_snapshot(json.loads(json.dumps(snap)))
    assert snapshot(rebuilt) == snap
    hist = rebuilt.histogram("admittance.retrain")
    assert hist.min == pytest.approx(0.0005)
    assert hist.max == pytest.approx(2.5)
    assert hist.mean == pytest.approx((0.0005 + 0.02 + 0.02 + 2.5) / 4)


def test_empty_histogram_round_trips():
    reg = MetricsRegistry()
    reg.histogram("empty", buckets=[1.0])
    snap = snapshot(reg)
    rebuilt = load_snapshot(snap)
    assert rebuilt.histogram("empty").min is None
    assert snapshot(rebuilt) == snap


def test_snapshot_json_is_deterministic():
    assert snapshot_json(populated_registry()) == snapshot_json(populated_registry())


def test_write_bench_json(tmp_path):
    path = tmp_path / "BENCH_obs.json"
    out = write_bench_json(path, populated_registry(), meta={"suite": "latency"})
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["meta"] == {"suite": "latency"}
    assert payload["metrics"] == snapshot(populated_registry())


def test_load_snapshot_restores_inf_bound():
    reg = populated_registry()
    rebuilt = load_snapshot(snapshot(reg))
    bounds = [b for b, _ in rebuilt.histogram("admittance.retrain").bucket_counts()]
    assert bounds[-1] == math.inf


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------
def test_empty_registry_snapshot_round_trips():
    snap = snapshot(MetricsRegistry())
    assert snap == {"counters": {}, "gauges": {}, "histograms": {}}
    rebuilt = load_snapshot(json.loads(json.dumps(snap)))
    assert len(rebuilt) == 0
    assert snapshot(rebuilt) == snap


def test_snapshot_round_trips_after_registry_reset():
    reg = populated_registry()
    reg.reset()
    snap = snapshot(reg)
    # Registrations survive the reset; every number starts over.
    assert snap["counters"] == {
        "exbox.decisions.admitted": 0,
        "exbox.decisions.rejected": 0,
    }
    assert snap["gauges"] == {"exbox.flows.active": 0}
    hist = snap["histograms"]["admittance.retrain"]
    assert hist["count"] == 0
    assert hist["min"] is None and hist["max"] is None
    assert all(count == 0 for _, count in hist["buckets"])
    rebuilt = load_snapshot(json.loads(json.dumps(snap)))
    assert snapshot(rebuilt) == snap
    # The rebuilt registry keeps the original bucket bounds.
    assert rebuilt.histogram("admittance.retrain").buckets == (0.001, 0.01, 0.1, 1.0)
