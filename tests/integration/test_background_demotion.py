"""End-to-end Section 4.2: demoting rejected flows to 802.11e background.

The policy action LOW_PRIORITY should (a) keep the flow on the network
in the background access category, (b) leave admitted flows' QoE and the
managed traffic matrix untouched, and (c) hand the background flows only
leftover capacity.
"""

import numpy as np
import pytest

from repro.core.exbox import ExBox
from repro.core.policies import AdmittancePolicy, PolicyAction
from repro.testbed.wifi_testbed import WiFiTestbed
from repro.traffic.flows import FlowRequest, STREAMING, WEB


class _StubAdmittance:
    """Admit while total flows after arrival <= 2 (deterministic)."""

    from repro.core.admittance import Phase as _Phase

    def __init__(self):
        self.phase = self._Phase.ONLINE
        self.is_online = True

    def margin(self, x):
        return float(2.5 - sum(x[:3]))

    def admits(self, margin):
        return margin >= 0

    def classify(self, x):
        return 1 if self.admits(self.margin(x)) else -1

    def observe_online(self, x, y):
        return False


@pytest.fixture
def exbox(estimator):
    box = ExBox.with_defaults(batch_size=10)
    box.qoe_estimator = estimator
    box.admittance = _StubAdmittance()
    box.revalidator.classifier = box.admittance
    box.policy = AdmittancePolicy(on_reject=PolicyAction.LOW_PRIORITY)
    return box


class TestDemotion:
    def test_rejected_flow_lands_in_background(self, exbox):
        for i in range(2):
            exbox.handle_arrival(FlowRequest(client_id=i, app_class=WEB))
        decision = exbox.handle_arrival(FlowRequest(client_id=9, app_class=STREAMING))
        assert not decision.admitted
        assert len(exbox.background_flows) == 1
        assert exbox.current_matrix.total_flows == 2  # matrix untouched

    def test_background_departure(self, exbox):
        for i in range(2):
            exbox.handle_arrival(FlowRequest(client_id=i, app_class=WEB))
        exbox.handle_arrival(FlowRequest(client_id=9, app_class=STREAMING))
        demoted = exbox.background_flows[0]
        exbox.handle_departure(demoted)
        assert exbox.background_flows == []
        assert exbox.current_matrix.total_flows == 2

    def test_drop_policy_does_not_demote(self, estimator):
        box = ExBox.with_defaults(batch_size=10)
        box.qoe_estimator = estimator
        box.admittance = _StubAdmittance()
        box.policy = AdmittancePolicy(on_reject=PolicyAction.DROP)
        for i in range(2):
            box.handle_arrival(FlowRequest(client_id=i, app_class=WEB))
        box.handle_arrival(FlowRequest(client_id=9, app_class=WEB))
        assert box.background_flows == []

    def test_testbed_measurement_with_background(self, exbox, rng):
        testbed = WiFiTestbed(qos_noise=0.0)
        for i in range(2):
            exbox.handle_arrival(FlowRequest(client_id=i, app_class=WEB))
        exbox.handle_arrival(FlowRequest(client_id=9, app_class=STREAMING))

        priority_specs = [(f.app_class, f.snr_db) for f in exbox.active_flows]
        background_specs = [(f.app_class, f.snr_db) for f in exbox.background_flows]
        run = testbed.run_flows(priority_specs, rng=rng,
                                background_specs=background_specs)

        primary = [r for r in run.records if not r.background]
        demoted = [r for r in run.records if r.background]
        assert len(primary) == 2 and len(demoted) == 1
        # Label/matrix consider only the admitted flows.
        assert run.counts(1) == (2, 0, 0)
        assert run.network_acceptable == all(r.acceptable for r in primary)
        # The demoted streaming flow is measurable but second-class.
        clean = testbed.run_flows(priority_specs)
        assert primary[0].qos.throughput_bps == pytest.approx(
            clean.records[0].qos.throughput_bps, rel=0.05
        )
        assert demoted[0].qos.delay_s >= primary[0].qos.delay_s
