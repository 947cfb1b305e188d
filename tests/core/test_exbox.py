"""Tests for the ExBox middlebox facade."""

import numpy as np
import pytest

from repro.core.admittance import AdmittanceClassifier, Phase
from repro.core.exbox import ExBox
from repro.classification.classifier import FlowClassifier
from repro.testbed.wifi_testbed import WiFiTestbed
from repro.traffic.flows import FlowRequest, STREAMING, WEB
from repro.traffic.generators import generator_for_class


@pytest.fixture
def exbox(estimator):
    box = ExBox.with_defaults(batch_size=10)
    box.qoe_estimator = estimator
    return box


def _drive_bootstrap(box, testbed, rng, n=60):
    """Run arrivals through bootstrap using testbed measurements."""
    from repro.traffic.flows import APP_CLASSES

    for i in range(n):
        if box.admittance.is_online:
            break
        cls = APP_CLASSES[int(rng.integers(3))]
        decision = box.handle_arrival(FlowRequest(client_id=i, app_class=cls))
        specs = [(f.app_class, f.snr_db) for f in box.active_flows]
        run = testbed.run_flows(specs[: testbed.max_clients], rng=rng)
        box.report_outcome(decision, run)
        # Randomly retire flows to keep the matrix within testbed size.
        while len(box.active_flows) > 5:
            box.handle_departure(box.active_flows[0])


class TestArrivalHandling:
    def test_bootstrap_admits_everything(self, exbox):
        decision = exbox.handle_arrival(FlowRequest(client_id=1, app_class=WEB))
        assert decision.admitted
        assert decision.phase is Phase.BOOTSTRAP
        assert decision.flow is not None
        assert exbox.current_matrix.total_flows == 1

    def test_departure_updates_matrix(self, exbox):
        decision = exbox.handle_arrival(FlowRequest(client_id=1, app_class=WEB))
        exbox.handle_departure(decision.flow)
        assert exbox.current_matrix.total_flows == 0

    def test_departure_of_unknown_flow_raises(self, exbox):
        from repro.traffic.flows import Flow

        with pytest.raises(KeyError):
            exbox.handle_departure(Flow(app_class=WEB, snr_db=53.0, client_id=9))

    def test_unclassified_without_classifier_raises(self, exbox):
        with pytest.raises(ValueError):
            exbox.handle_arrival(FlowRequest(client_id=1))

    def test_classifier_resolves_app_class(self, estimator):
        rng = np.random.default_rng(31)
        box = ExBox.with_defaults(batch_size=10)
        box.qoe_estimator = estimator
        box.flow_classifier = FlowClassifier.train_synthetic(
            rng, flows_per_class=10, trace_duration_s=12.0
        )
        packets = list(generator_for_class(STREAMING).generate(12.0, rng))
        decision = box.handle_arrival(FlowRequest(client_id=1), packets=packets)
        assert decision.app_class in ("web", "streaming", "conferencing")

    def test_learning_loop_reaches_online(self, exbox):
        rng = np.random.default_rng(32)
        testbed = WiFiTestbed()
        _drive_bootstrap(exbox, testbed, rng, n=120)
        assert exbox.admittance.is_online

    def test_online_rejection_applies_policy(self, estimator):
        box = ExBox.with_defaults(
            batch_size=10, min_bootstrap_samples=30, max_bootstrap_samples=60
        )
        box.qoe_estimator = estimator
        rng = np.random.default_rng(33)
        testbed = WiFiTestbed()
        _drive_bootstrap(box, testbed, rng, n=120)
        # Fill the cell well beyond capacity and ask for one more flow.
        for i in range(8):
            box.handle_arrival(FlowRequest(client_id=100 + i, app_class=STREAMING))
        decision = box.handle_arrival(FlowRequest(client_id=200, app_class=WEB))
        if not decision.admitted:
            assert decision.policy_outcome is not None
            assert box.policy.log


class TestOneEvaluationPerArrival:
    """A decided arrival reads the SVM margin once; bootstrap never does."""

    def test_online_arrival_is_one_kernel_pass(self, kernel_passes):
        box = ExBox.with_defaults(batch_size=10, min_bootstrap_samples=10)
        rng = np.random.default_rng(36)
        while not box.admittance.is_online:
            counts = rng.integers(0, 5, size=3).astype(float)
            x = np.append(counts, float(rng.integers(0, 3)))
            box.admittance.observe_bootstrap(x, 1 if counts.sum() <= 5 else -1)
        kernel_passes.clear()
        decision = box.handle_arrival(FlowRequest(client_id=1, app_class=WEB))
        assert decision.margin is not None
        assert kernel_passes == [1]

    def test_bootstrap_arrival_reads_no_kernel(self, exbox, kernel_passes):
        exbox.handle_arrival(FlowRequest(client_id=1, app_class=WEB))
        assert kernel_passes == []


class TestDynamics:
    def test_update_flow_snr_moves_matrix_slot(self, estimator):
        box = ExBox.with_defaults(batch_size=10, n_snr_levels=2)
        box.qoe_estimator = estimator
        decision = box.handle_arrival(
            FlowRequest(client_id=1, app_class=WEB, snr_db=53.0)
        )
        assert box.current_matrix.counts[1] == 1  # web high
        box.update_flow_snr(decision.flow, 20.0)
        assert box.current_matrix.counts[0] == 1  # web low
        assert box.current_matrix.counts[1] == 0

    def test_poll_network_noop_in_bootstrap(self, exbox):
        exbox.handle_arrival(FlowRequest(client_id=1, app_class=WEB))
        result = exbox.poll_network()
        assert result.checked == 0
        assert exbox.current_matrix.total_flows == 1

    def test_poll_network_removes_revoked(self, estimator):
        box = ExBox.with_defaults(
            batch_size=10, min_bootstrap_samples=30, max_bootstrap_samples=60
        )
        box.qoe_estimator = estimator
        rng = np.random.default_rng(34)
        testbed = WiFiTestbed()
        _drive_bootstrap(box, testbed, rng, n=120)
        for flow in list(box.active_flows):
            box.handle_departure(flow)
        # Cram the cell during online phase (classifier may reject some).
        for i in range(9):
            box.handle_arrival(FlowRequest(client_id=i, app_class=STREAMING))
        before = len(box.active_flows)
        result = box.poll_network()
        assert len(box.active_flows) == before - len(result.revoked)

    def test_excr_view_available_online(self, estimator):
        box = ExBox.with_defaults(
            batch_size=10, min_bootstrap_samples=30, max_bootstrap_samples=60
        )
        box.qoe_estimator = estimator
        rng = np.random.default_rng(35)
        _drive_bootstrap(box, WiFiTestbed(), rng, n=120)
        region = box.excr
        profile = region.boundary_profile(app_class_index=0, max_count=12)
        assert 0 <= profile <= 12


class _CapacityStub:
    """Deterministic online 'classifier': admit while the low-SNR-weighted
    occupancy of the post-admission matrix stays within ``cap``.

    Slot ``i`` of the matrix holds level ``i % n_levels``; level 0 (low
    SNR) counts double, as a slow station drags the whole cell. Using a
    stub instead of a trained SVM makes the revocation set exact, so the
    demotion *bookkeeping* can be asserted tightly.
    """

    phase = Phase.ONLINE
    is_online = True

    def __init__(self, cap=4, n_levels=2):
        self.cap = cap
        self.n_levels = n_levels

    def _weighted(self, x):
        counts = x[: 3 * self.n_levels]
        return sum(
            c * (2.0 if i % self.n_levels == 0 else 1.0)
            for i, c in enumerate(counts)
        )

    def margin(self, x):
        return float(self.cap - self._weighted(x))

    def admits(self, margin):
        return margin >= 0

    def classify(self, x):
        return 1 if self.admits(self.margin(x)) else -1

    def instrument(self, obs):
        pass


class TestDemotionBookkeeping:
    """FlowRevalidator-driven demotion through ExBox.poll_network
    (Section 4.3 revocation into the 802.11e background category)."""

    def _online_box(self, obs=None):
        from repro.core.policies import AdmittancePolicy, PolicyAction
        from repro.wireless.channel import SnrBinner

        return ExBox(
            admittance=_CapacityStub(cap=4, n_levels=2),
            binner=SnrBinner.two_level(),
            policy=AdmittancePolicy(on_revoke=PolicyAction.LOW_PRIORITY),
            obs=obs,
        )

    def _admit_three_high_snr(self, box):
        decisions = [
            box.handle_arrival(FlowRequest(client_id=i, app_class=WEB, snr_db=53.0))
            for i in range(3)
        ]
        assert all(d.admitted for d in decisions)
        return decisions

    def test_revoked_flows_reenter_background(self):
        box = self._online_box()
        decisions = self._admit_three_high_snr(box)
        # Everyone walks away from the AP: weighted occupancy 3 -> 6 > 4.
        for d in decisions:
            box.update_flow_snr(d.flow, 23.0)
        result = box.poll_network()
        assert len(result.revoked) == 3
        background_ids = {f.flow_id for f in box.background_flows}
        assert {f.flow_id for f in result.revoked} == background_ids
        assert box.active_flows == []
        assert box.current_matrix.total_flows == 0

    def test_departure_of_demoted_flow(self):
        box = self._online_box()
        decisions = self._admit_three_high_snr(box)
        for d in decisions:
            box.update_flow_snr(d.flow, 23.0)
        (revoked, *rest) = box.poll_network().revoked
        matrix_before = box.current_matrix
        box.handle_departure(revoked)
        # Background flows live outside the managed matrix: departure
        # only drops the background entry.
        assert revoked.flow_id not in {f.flow_id for f in box.background_flows}
        assert len(box.background_flows) == len(rest)
        assert box.current_matrix == matrix_before
        with pytest.raises(KeyError):
            box.handle_departure(revoked)  # already gone entirely

    def test_demotion_metrics_and_events(self):
        from repro.obs import Obs

        obs = Obs.recording()
        box = self._online_box(obs=obs)
        decisions = self._admit_three_high_snr(box)
        assert obs.registry.counter("exbox.decisions.admitted").value == 3
        for d in decisions:
            box.update_flow_snr(d.flow, 23.0)
        box.poll_network()
        reg = obs.registry
        assert reg.counter("exbox.revalidation.polls").value == 1
        assert reg.counter("exbox.revalidation.checked").value == 3
        assert reg.counter("exbox.revalidation.revoked").value == 3
        assert reg.counter("exbox.departures.active").value == 3
        assert reg.gauge("exbox.flows.background").value == 3
        assert reg.gauge("exbox.matrix.occupancy").value == 0
        (event,) = obs.events.of_type("revalidation_revoked")
        assert event["demoted"] is True
        assert sorted(event["flows"]) == sorted(
            f.flow_id for f in box.background_flows
        )
