"""Tests for the emulated WiFi and LTE testbeds."""

import copy

import numpy as np
import pytest

from repro.netem.shaping import Shaper
from repro.testbed import base
from repro.testbed.lte_testbed import LTETestbed
from repro.testbed.wifi_testbed import WiFiTestbed
from repro.traffic.flows import CONFERENCING, STREAMING, WEB


class TestWiFiTestbed:
    def test_ten_devices_default(self, wifi_testbed):
        assert wifi_testbed.max_clients == 10

    def test_single_flow_acceptable(self, wifi_testbed, rng):
        run = wifi_testbed.run_flows([(WEB, 53.0)], rng=rng)
        assert run.network_acceptable
        assert run.label == 1

    def test_capacity_cap_enforced(self, wifi_testbed, rng):
        run = wifi_testbed.run_flows([(STREAMING, 53.0)] * 6, rng=rng)
        total = sum(r.qos.throughput_bps for r in run.records)
        assert total <= wifi_testbed.capacity_cap_bps * 1.15  # + measurement noise

    def test_overload_unacceptable(self, wifi_testbed, rng):
        run = wifi_testbed.run_flows(
            [(WEB, 53.0)] * 4 + [(STREAMING, 53.0)] * 4, rng=rng
        )
        assert not run.network_acceptable

    def test_low_snr_client_hurts_everyone(self, rng):
        # The Figure 3 effect, at the testbed API level.
        testbed = WiFiTestbed(qos_noise=0.0)
        clean = testbed.run_flows([(STREAMING, 53.0)] * 4)
        mixed = testbed.run_flows([(STREAMING, 53.0)] * 2 + [(STREAMING, 14.0)] * 2)
        assert mixed.records[0].qoe > clean.records[0].qoe  # startup delay grew

    def test_shaper_applies(self, rng):
        testbed = WiFiTestbed(qos_noise=0.0)
        before = testbed.run_flows([(WEB, 53.0)])
        testbed.set_shaper(Shaper(delay_s=0.25))
        after = testbed.run_flows([(WEB, 53.0)])
        assert after.records[0].qos.delay_s > before.records[0].qos.delay_s + 0.2
        testbed.clear_shaper()
        restored = testbed.run_flows([(WEB, 53.0)])
        assert restored.records[0].qos.delay_s < 0.1

    def test_place_device(self, wifi_testbed):
        wifi_testbed.place_device(3, 14.0)
        assert wifi_testbed.devices[3].snr_db == pytest.approx(14.0)

    def test_records_carry_snr_level(self, rng):
        from repro.wireless.channel import SnrBinner

        testbed = WiFiTestbed(binner=SnrBinner.two_level())
        run = testbed.run_flows([(WEB, 53.0), (WEB, 23.0)], rng=rng)
        assert run.records[0].snr_level == 1
        assert run.records[1].snr_level == 0


class TestLTETestbed:
    def test_light_load_acceptable(self, lte_testbed, rng):
        run = lte_testbed.run_flows([(WEB, 30.0), (CONFERENCING, 30.0)], rng=rng)
        assert run.network_acceptable

    def test_heavy_load_unacceptable(self, lte_testbed, rng):
        run = lte_testbed.run_flows(
            [(WEB, 30.0)] * 5 + [(STREAMING, 30.0)] * 3, rng=rng
        )
        assert not run.network_acceptable

    def test_resource_fairness_vs_wifi(self, rng):
        # A low-SNR client on LTE must hurt the others far less than on
        # WiFi — the paper's structural reason LTE behaves better.
        wifi = WiFiTestbed(qos_noise=0.0)
        lte = LTETestbed(qos_noise=0.0)
        wifi_mixed = wifi.run_flows([(STREAMING, 53.0)] * 2 + [(STREAMING, 14.0)] * 2)
        wifi_clean = wifi.run_flows([(STREAMING, 53.0)] * 2)
        lte_mixed = lte.run_flows([(STREAMING, 30.0)] * 2 + [(STREAMING, -6.0)] * 2)
        lte_clean = lte.run_flows([(STREAMING, 30.0)] * 2)
        wifi_hit = wifi_mixed.records[0].qoe - wifi_clean.records[0].qoe
        lte_hit = lte_mixed.records[0].qoe - lte_clean.records[0].qoe
        assert lte_hit < wifi_hit


@pytest.mark.parametrize(
    "make, max_clients", [(WiFiTestbed, 10), (LTETestbed, 8)], ids=["wifi", "lte"]
)
class TestClientBound:
    def test_too_many_flows_rejected(self, make, max_clients, rng):
        # One client per device: 10 WiFi phones, the E-40's 8 UEs.
        testbed = make()
        assert testbed.max_clients == max_clients
        testbed.run_flows([(WEB, 30.0)] * max_clients, rng=rng)
        with pytest.raises(ValueError):
            testbed.run_flows([(WEB, 30.0)] * (max_clients + 1), rng=rng)


_MIXED = [(WEB, 30.0), (STREAMING, 14.0), (CONFERENCING, 53.0), (STREAMING, 53.0)]


@pytest.mark.parametrize("make", [WiFiTestbed, LTETestbed], ids=["wifi", "lte"])
class TestReusedAppModels:
    def test_run_flows_builds_no_app_models(self, make, monkeypatch):
        testbed = make()
        lookups = []

        def counting(app_class):
            lookups.append(app_class)
            raise AssertionError("app model built during a measurement")

        monkeypatch.setattr(base, "app_model_for_class", counting)
        monkeypatch.setattr(base, "threshold_for_class", counting)
        run = testbed.run_flows(_MIXED, rng=np.random.default_rng(5),
                                background_specs=[(WEB, 30.0)])
        assert len(run.records) == len(_MIXED) + 1
        assert lookups == []

    def test_deepcopy_measures_identically(self, make):
        # perfbench deep-copies the post-set-up state before every pass.
        testbed = make()
        clone = copy.deepcopy(testbed)
        for specs in (_MIXED, _MIXED[:1], [(STREAMING, 53.0)] * 6):
            ours = testbed.run_flows(specs, rng=np.random.default_rng(9))
            theirs = clone.run_flows(specs, rng=np.random.default_rng(9))
            assert ours == theirs
