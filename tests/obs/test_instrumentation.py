"""End-to-end instrumentation: a recording registry sees the pipeline,
the inert default changes nothing (bit-identical decisions)."""

import json

import numpy as np
import pytest

from repro.core.baselines import MaxClientAdmission
from repro.experiments.closedloop import run_closed_loop
from repro.experiments.harness import ExBoxScheme
from repro.experiments.latency import (
    DECISION_SPAN,
    TRAINING_SPAN,
    measure_decision_latency,
    measure_training_latency,
)
from repro.obs import NULL_OBS, Obs, load_snapshot, snapshot, snapshot_json
from repro.testbed.wifi_testbed import WiFiTestbed


def _exbox_scheme(obs=None):
    return ExBoxScheme(
        batch_size=10,
        min_bootstrap_samples=30,
        max_bootstrap_samples=60,
        obs=obs,
    )


def _run_episode(obs=None, scheme=None):
    return run_closed_loop(
        scheme if scheme is not None else _exbox_scheme(obs),
        WiFiTestbed(),
        seed=7,
        duration_min=30,
        arrivals_per_min=2.0,
        obs=obs,
    )


class TestClosedLoopEpisode:
    """The ISSUE acceptance criterion, as a test."""

    @pytest.fixture(scope="class")
    def episode(self):
        obs = Obs.recording()
        result = _run_episode(obs=obs)
        return obs, result

    def test_decision_counters_are_nonzero(self, episode):
        obs, result = episode
        reg = obs.registry
        assert reg.counter("exbox.decisions.admitted").value > 0
        assert reg.counter("exbox.decisions.rejected").value > 0
        assert (
            reg.counter("exbox.decisions.admitted").value
            + reg.counter("exbox.decisions.rejected").value
            == result.admitted + result.rejected
        )

    def test_retrain_span_histogram_recorded(self, episode):
        obs, _ = episode
        hist = obs.registry.histogram("admittance.retrain")
        assert hist.count > 0
        assert hist.sum > 0
        assert obs.tracer.durations("admittance.retrain")
        assert obs.registry.counter("admittance.retrains").value == hist.count

    def test_decide_spans_and_events(self, episode):
        obs, result = episode
        decides = obs.registry.histogram("closedloop.decide")
        assert decides.count == result.admitted + result.rejected
        events = obs.events.of_type("admission_decision")
        assert len(events) == result.admitted + result.rejected
        assert sum(1 for e in events if e["admitted"]) == result.admitted

    def test_snapshot_round_trips(self, episode):
        obs, _ = episode
        snap = snapshot(obs.registry)
        rebuilt = load_snapshot(json.loads(json.dumps(snap)))
        assert snapshot(rebuilt) == snap
        assert snapshot_json(rebuilt) == snapshot_json(obs.registry)


class TestZeroOverheadDisabled:
    def test_exbox_episode_identical_with_and_without_obs(self):
        dark = _run_episode(obs=None)
        lit = _run_episode(obs=Obs.recording())
        assert dark.admitted == lit.admitted
        assert dark.rejected == lit.rejected
        assert dark.carried_flow_minutes == lit.carried_flow_minutes
        assert dark.ok_flow_minutes == lit.ok_flow_minutes

    def test_lit_episode_makes_as_many_kernel_passes_as_dark(self, kernel_passes):
        _run_episode(obs=None)
        dark = len(kernel_passes)
        kernel_passes.clear()
        obs = Obs.recording()
        _run_episode(obs=obs)
        assert dark > 0
        assert len(kernel_passes) == dark
        # ExBoxScheme decides through classify: no margin is read.
        assert obs.registry.histogram("admittance.margin").count == 0

    def test_null_obs_records_nothing(self):
        result = run_closed_loop(
            MaxClientAdmission(10),
            WiFiTestbed(),
            seed=3,
            duration_min=10,
            obs=NULL_OBS,
        )
        assert result.admitted > 0
        assert len(NULL_OBS.registry) == 0
        assert len(NULL_OBS.events) == 0


class TestLatencyHelpersFeedRegistry:
    def test_decision_latency_lands_in_histogram(self, rng):
        from repro.experiments.datasets import build_testbed_dataset

        obs = Obs.recording()
        samples = build_testbed_dataset(WiFiTestbed(), [(1, 1, 0)] * 4, rng)
        latencies = measure_decision_latency(
            MaxClientAdmission(10), samples, repeats=2, obs=obs
        )
        hist = obs.registry.histogram(DECISION_SPAN)
        assert hist.count == len(latencies) == 8
        assert hist.sum == pytest.approx(sum(latencies))

    def test_training_latency_uses_svm_fit_span(self):
        obs = Obs.recording()
        latencies = measure_training_latency(30, repeats=2, obs=obs)
        hist = obs.registry.histogram(TRAINING_SPAN)
        assert len(latencies) == 2
        assert hist.count == 2
        assert obs.registry.counter("svm.fits").value == 2

    def test_training_latency_default_factory(self):
        # Regression: model_factory used to be a non-Optional Callable
        # with a None default; calling without a factory must work.
        latencies = measure_training_latency(20, repeats=1)
        assert len(latencies) == 1
        assert latencies[0] > 0

    def test_admission_quality_sets_eval_gauges(self, rng):
        from repro.experiments.datasets import build_testbed_dataset
        from repro.experiments.latency import measure_admission_quality

        obs = Obs.recording()
        samples = build_testbed_dataset(WiFiTestbed(), [(1, 1, 0)] * 6, rng)
        quality = measure_admission_quality(
            MaxClientAdmission(10), samples, obs=obs
        )
        for key in ("precision", "recall", "accuracy"):
            assert 0.0 <= quality[key] <= 1.0
            assert (
                obs.registry.gauge(f"latency.eval.{key}").value == quality[key]
            )

    def test_admission_quality_rejects_empty_stream(self):
        with pytest.raises(ValueError, match="no labelled samples"):
            from repro.experiments.latency import measure_admission_quality

            measure_admission_quality(MaxClientAdmission(10), [])


class TestDecisionEvents:
    """One ``admission_decision`` event per decision, JSON-serializable."""

    def test_closedloop_emits_one_scheme_event_per_decision(self):
        obs = Obs.recording()
        result = _run_episode(obs=obs)
        events = obs.events.of_type("admission_decision")
        assert len(events) == result.admitted + result.rejected
        assert any(e["admitted"] for e in events)
        assert not all(e["admitted"] for e in events)
        for event in events:
            assert event["scheme"] == "ExBox"
            assert "margin" not in event  # scheme-generic: no re-query
            assert json.loads(json.dumps(event, sort_keys=True)) == event

    def test_exbox_emits_one_event_per_arrival(self):
        from repro.core.exbox import ExBox
        from repro.traffic.flows import FlowRequest

        obs = Obs.recording()
        box = ExBox.with_defaults(batch_size=10, min_bootstrap_samples=10, obs=obs)
        box.handle_arrival(FlowRequest(app_class="streaming", snr_db=30.0, client_id=1))
        rng = np.random.default_rng(36)
        while not box.admittance.is_online:
            counts = rng.integers(0, 5, size=3).astype(float)
            x = np.append(counts, float(rng.integers(0, 3)))
            box.admittance.observe_bootstrap(x, 1 if counts.sum() <= 5 else -1)
        matrix_before = list(box.current_matrix.counts)
        decision = box.handle_arrival(
            FlowRequest(app_class="web", snr_db=30.0, client_id=2)
        )
        boot, online = obs.events.of_type("admission_decision")
        assert boot["phase"] == "bootstrap" and boot["admitted"] is True
        assert boot["margin"] is None  # bootstrap admits unconditionally
        assert boot["matrix"] == [0] * len(matrix_before)
        assert online["phase"] == "online"
        assert decision.margin is not None
        assert online["margin"] == decision.margin
        assert online["admitted"] is decision.admitted
        assert online["matrix"] == matrix_before  # what the classifier saw
        for event in (boot, online):
            assert json.loads(json.dumps(event, sort_keys=True)) == event
