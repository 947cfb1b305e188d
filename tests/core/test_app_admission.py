"""Tests for app-based admission control (Section 4.5)."""

import pytest

from repro.core.app_admission import AppAdmissionController, AppFlowSpec
from repro.core.exbox import ExBox
from repro.traffic.flows import FlowRequest, STREAMING, WEB


class _StubAdmittance:
    """Deterministic classifier: admit while total flows after <= 4."""

    from repro.core.admittance import Phase as _Phase

    def __init__(self, max_total=4):
        self.max_total = max_total
        self.phase = self._Phase.ONLINE
        self.is_online = True

    def margin(self, x):
        return float(self.max_total - sum(x[:3]) + 0.5)

    def admits(self, margin):
        return margin >= 0

    def classify(self, x):
        return 1 if self.admits(self.margin(x)) else -1

    def observe_online(self, x, y):
        return False


def _stub_exbox(estimator, max_total=4):
    box = ExBox.with_defaults(batch_size=20)
    box.qoe_estimator = estimator
    box.admittance = _StubAdmittance(max_total)
    box.revalidator.classifier = box.admittance
    return box


@pytest.fixture
def controller(estimator):
    return AppAdmissionController(_stub_exbox(estimator))


def _app(n_dominant, n_companion, app_class=STREAMING, client=1):
    flows = [
        AppFlowSpec(FlowRequest(client_id=client, app_class=app_class), dominant=True)
        for _ in range(n_dominant)
    ]
    flows += [
        AppFlowSpec(FlowRequest(client_id=client, app_class=WEB), dominant=False)
        for _ in range(n_companion)
    ]
    return flows


class TestAppAdmission:
    def test_admits_app_on_empty_network(self, controller):
        verdict = controller.handle_app_arrival(_app(1, 2))
        assert verdict.admitted
        assert verdict.companion_count == 2
        assert len(controller.exbox.active_flows) == 1  # companions untracked

    def test_rejects_whole_app_when_dominant_rejected(self, controller):
        # Fill the region (boundary at 4 flows), then offer an app.
        for i in range(4):
            controller.handle_app_arrival(_app(1, 0, client=i))
        verdict = controller.handle_app_arrival(_app(1, 3, client=9))
        assert not verdict.admitted
        assert verdict.companion_count == 3

    def test_rollback_on_partial_admission(self, controller):
        # Three dominant flows against two remaining slots: the first two
        # land, the third is rejected, and both must be rolled back.
        for i in range(2):
            controller.handle_app_arrival(_app(1, 0, client=i))
        active_before = len(controller.exbox.active_flows)
        verdict = controller.handle_app_arrival(_app(3, 0, client=9))
        assert not verdict.admitted
        assert verdict.rolled_back
        assert len(controller.exbox.active_flows) == active_before

    def test_departure_releases_all_dominant_flows(self, controller):
        verdict = controller.handle_app_arrival(_app(2, 1))
        assert verdict.admitted
        controller.handle_app_departure(verdict.app_id)
        assert len(controller.exbox.active_flows) == 0
        assert verdict.app_id not in controller.active_apps

    def test_unknown_app_departure_raises(self, controller):
        with pytest.raises(KeyError):
            controller.handle_app_departure(12345)

    def test_validation(self, controller):
        with pytest.raises(ValueError):
            controller.handle_app_arrival([])
        with pytest.raises(ValueError):
            controller.handle_app_arrival(
                [AppFlowSpec(FlowRequest(client_id=1, app_class=WEB), dominant=False)]
            )

    def test_app_ids_unique(self, controller):
        a = controller.handle_app_arrival(_app(1, 0))
        b = controller.handle_app_arrival(_app(1, 0))
        assert a.app_id != b.app_id
