"""End-to-end integration: the full ExBox pipeline on emulated testbeds."""

import numpy as np
import pytest

from repro.core.admittance import AdmittanceClassifier
from repro.core.baselines import MaxClientAdmission, RateBasedAdmission
from repro.core.exbox import ExBox
from repro.core.fleet import ExBoxFleet
from repro.experiments.datasets import build_testbed_dataset
from repro.experiments.harness import ExBoxScheme, run_comparison
from repro.testbed.lte_testbed import LTETestbed
from repro.testbed.wifi_testbed import WiFiTestbed
from repro.traffic.arrival import random_matrix_sequence
from repro.traffic.flows import FlowRequest, STREAMING, WEB


@pytest.fixture(scope="module")
def wifi_stream():
    rng = np.random.default_rng(71)
    testbed = WiFiTestbed()
    matrices = random_matrix_sequence(260, max_per_class=10, rng=rng, max_total=10)
    return build_testbed_dataset(testbed, matrices, rng)


class TestHeadlineResult:
    """The paper's core claim must hold end-to-end on the emulated WiFi
    testbed: ExBox admission control beats RateBased and MaxClient on
    precision and accuracy while recall catches up."""

    @pytest.fixture(scope="class")
    def comparison(self, wifi_stream):
        schemes = [
            ExBoxScheme(
                AdmittanceClassifier(
                    batch_size=20, min_bootstrap_samples=40, max_bootstrap_samples=60
                )
            ),
            RateBasedAdmission(20e6),
            MaxClientAdmission(10),
        ]
        return run_comparison(wifi_stream, schemes, n_bootstrap=60, eval_every=50)

    def test_exbox_precision_in_paper_band(self, comparison):
        assert comparison["ExBox"].final_precision >= 0.75

    def test_exbox_beats_baselines_on_precision(self, comparison):
        exbox = comparison["ExBox"].final_precision
        assert exbox > comparison["RateBased"].final_precision
        assert exbox > comparison["MaxClient"].final_precision

    def test_exbox_beats_baselines_on_accuracy(self, comparison):
        exbox = comparison["ExBox"].final_accuracy
        assert exbox > comparison["RateBased"].final_accuracy
        assert exbox > comparison["MaxClient"].final_accuracy
        assert exbox >= 0.8

    def test_recall_rises_with_training(self, comparison):
        recalls = comparison["ExBox"].recall
        assert recalls[-1] >= recalls[0] - 0.05  # catches up, never collapses


class TestMiddleboxLifecycle:
    def test_full_lifecycle_wifi(self, estimator):
        """Arrivals -> bootstrap -> online decisions -> departures ->
        mobility -> revalidation, against a live emulated testbed."""
        rng = np.random.default_rng(72)
        testbed = WiFiTestbed()
        box = ExBox.with_defaults(
            batch_size=15, min_bootstrap_samples=30, max_bootstrap_samples=60
        )
        box.qoe_estimator = estimator

        client = 0
        rejected = 0
        for step in range(150):
            client += 1
            cls = [WEB, STREAMING, "conferencing"][int(rng.integers(3))]
            decision = box.handle_arrival(FlowRequest(client_id=client, app_class=cls))
            if decision.admitted:
                specs = [(f.app_class, f.snr_db) for f in box.active_flows]
                run = testbed.run_flows(specs[: testbed.max_clients], rng=rng)
                box.report_outcome(decision, run)
            else:
                rejected += 1
            # Flows depart with probability growing in the active count.
            while box.active_flows and rng.random() < 0.2 * len(box.active_flows) / 4:
                box.handle_departure(box.active_flows[0])

        assert box.admittance.is_online
        assert rejected > 0  # online phase did reject something
        assert box.policy.log  # and the policy recorded it

    def test_network_selection_between_testbeds(self, estimator):
        """Two cells, one pre-loaded: the fleet must send the new flow to
        the emptier network."""
        rng = np.random.default_rng(73)
        fleet = ExBoxFleet(qoe_estimator=estimator)
        for name, testbed in (("wifi", WiFiTestbed()), ("lte", LTETestbed())):
            clf = fleet.add_cell(
                name, batch_size=20, min_bootstrap_samples=40, max_bootstrap_samples=80
            ).admittance
            matrices = random_matrix_sequence(
                80, max_per_class=8, rng=rng, max_total=8
            )
            for sample in build_testbed_dataset(testbed, matrices, rng):
                if clf.is_online:
                    break
                clf.observe_bootstrap(sample.x, sample.y)
            if not clf.is_online:
                clf.force_online()

        # Load WiFi close to its region boundary.
        for i in range(3):
            loaded = fleet.handle_arrival(
                FlowRequest(client_id=i, app_class=STREAMING), candidate_cells=("wifi",)
            )
            assert loaded.cell == "wifi"
        result = fleet.handle_arrival(FlowRequest(client_id=3, app_class=STREAMING))
        assert result.cell == "lte"
