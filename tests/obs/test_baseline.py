"""CI baseline gate: passes on the baseline, fails on injected regressions."""

import json
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry, check_baseline, snapshot

BASELINE_PATH = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "baselines" / "BENCH_baseline_obs.json"
)


GATE = {
    "histograms": {
        "latency.decision": {"stat": "p99", "max_ratio": 10.0},
    },
    "gauges": {
        "latency.eval.precision": {"max_drop": 0.1},
    },
}


def payload(latencies=(0.001, 0.002, 0.003), precision=0.9, gate=None):
    reg = MetricsRegistry()
    hist = reg.histogram("latency.decision")
    for v in latencies:
        hist.observe(v)
    reg.gauge("latency.eval.precision").set(precision)
    out = {"meta": {"suite": "latency"}, "metrics": snapshot(reg)}
    if gate is not None:
        out["gate"] = gate
    return out


class TestCheckBaseline:
    def test_baseline_passes_against_itself(self):
        base = payload(gate=GATE)
        result = check_baseline(base, base)
        assert result.ok
        assert len(result.checks) == 2
        assert "baseline gate: OK" in result.render()

    def test_latency_regression_fails(self):
        base = payload(gate=GATE)
        regressed = payload(latencies=[0.001, 0.002, 0.4])
        result = check_baseline(base, regressed)
        assert not result.ok
        (failure,) = result.failures
        assert failure.name == "latency.decision"
        assert failure.limit_kind == "max_ratio"
        assert "FAIL" in result.render()

    def test_precision_drop_fails(self):
        base = payload(gate=GATE)
        result = check_baseline(base, payload(precision=0.7))
        assert not result.ok
        (failure,) = result.failures
        assert failure.name == "latency.eval.precision"
        assert failure.limit_kind == "max_drop"

    def test_small_wobble_within_tolerance_passes(self):
        base = payload(gate=GATE)
        wobbly = payload(latencies=[0.002, 0.003, 0.004], precision=0.85)
        assert check_baseline(base, wobbly).ok

    def test_missing_candidate_metric_fails(self):
        base = payload(gate=GATE)
        empty = {"metrics": snapshot(MetricsRegistry())}
        result = check_baseline(base, empty)
        assert not result.ok
        assert len(result.failures) == 2

    def test_removed_rule_kind_is_a_breach(self):
        # max_rise/max_abs are not gate rules; an unknown key must not
        # silently fall back to a default max_drop.
        gate = {"gauges": {"latency.eval.precision": {"max_rise": 0.05}}}
        result = check_baseline(payload(gate=gate), payload())
        (failure,) = result.failures
        assert "unknown rule key(s): max_rise" in failure.detail

    def test_empty_baseline_histogram_is_a_breach(self):
        base = payload(latencies=[], gate=GATE)
        result = check_baseline(base, payload())
        hist_check = [c for c in result.checks if c.kind == "histogram"][0]
        assert not hist_check.ok
        assert "empty or zero in baseline" in hist_check.detail
        assert not result.ok

    def test_explicit_gate_overrides_payload_gate(self):
        base = payload(gate=GATE)
        only_precision = {"gauges": {"latency.eval.precision": {"max_drop": 0.1}}}
        result = check_baseline(
            base, payload(latencies=[0.4]), gate=only_precision
        )
        assert result.ok
        assert [c.name for c in result.checks] == ["latency.eval.precision"]

    def test_no_gate_block_is_a_breach(self):
        result = check_baseline(payload(), payload())
        assert not result.ok
        assert "no gate rules" in result.render()
        assert "baseline gate: 1 breach(es)" in result.render()


class TestCommittedBaseline:
    """The file CI actually gates against stays well-formed."""

    @pytest.fixture(scope="class")
    def committed(self):
        return json.loads(BASELINE_PATH.read_text(encoding="utf-8"))

    def test_has_gate_block(self, committed):
        gate = committed["gate"]
        assert "latency.decision" in gate["histograms"]
        assert "latency.eval.precision" in gate["gauges"]
        assert "latency.eval.recall" in gate["gauges"]

    def test_passes_against_itself(self, committed):
        result = check_baseline(committed, committed)
        assert result.ok
        assert result.checks  # non-trivial: rules actually evaluated

    def test_fails_on_injected_regression(self, committed):
        regressed = json.loads(json.dumps(committed))
        # Push every decision into the slowest bucket: an unambiguous
        # order-of-magnitude latency blowup.
        hist = regressed["metrics"]["histograms"]["latency.decision"]
        total = hist["count"]
        hist["buckets"] = [
            [bound, 0] for bound, _ in hist["buckets"][:-1]
        ] + [["+Inf", total]]
        hist["sum"] = total * 20.0
        hist["min"] = 15.0
        hist["max"] = 20.0
        result = check_baseline(committed, regressed)
        assert not result.ok
        assert any(c.name == "latency.decision" for c in result.failures)
