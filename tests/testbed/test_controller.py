"""Tests for the client controller and matrix runs."""

import numpy as np
import pytest

from repro.testbed.controller import ClientController, FlowRecord, MatrixRun
from repro.traffic.flows import CONFERENCING, STREAMING, WEB
from repro.wireless.qos import FlowQoS


def _record(app_class, qoe, acceptable, level=0):
    return FlowRecord(
        flow_id=0,
        app_class=app_class,
        snr_db=53.0,
        snr_level=level,
        qos=FlowQoS(1e6, 0.03),
        qoe=qoe,
        acceptable=acceptable,
    )


class TestMatrixRun:
    def test_label_requires_all_acceptable(self):
        good = MatrixRun(records=(_record(WEB, 1.0, True), _record(STREAMING, 3.0, True)))
        bad = MatrixRun(records=(_record(WEB, 1.0, True), _record(STREAMING, 9.0, False)))
        assert good.label == 1
        assert bad.label == -1

    def test_counts_layout(self):
        run = MatrixRun(
            records=(
                _record(WEB, 1.0, True, level=0),
                _record(WEB, 1.0, True, level=1),
                _record(CONFERENCING, 35.0, True, level=1),
            )
        )
        assert run.counts(n_levels=2) == (1, 1, 0, 0, 0, 1)

    def test_median_qoe(self):
        run = MatrixRun(
            records=(
                _record(WEB, 1.0, True),
                _record(WEB, 3.0, True),
                _record(WEB, 10.0, False),
            )
        )
        assert run.median_qoe(WEB) == pytest.approx(3.0)
        assert run.median_qoe(STREAMING) is None

    def test_records_for_class(self):
        run = MatrixRun(records=(_record(WEB, 1.0, True), _record(STREAMING, 3.0, True)))
        assert len(run.records_for_class(WEB)) == 1


class TestClientController:
    def test_runs_requested_matrix(self, wifi_testbed, rng):
        controller = ClientController(wifi_testbed, rng=rng)
        run = controller.run_traffic_matrix((2, 1, 1))
        classes = sorted(r.app_class for r in run.records)
        assert classes == sorted([WEB, WEB, STREAMING, CONFERENCING])

    def test_rejects_oversubscription(self, wifi_testbed, rng):
        controller = ClientController(wifi_testbed, rng=rng)
        with pytest.raises(ValueError):
            controller.run_traffic_matrix((5, 5, 5))

    def test_rejects_wrong_shape(self, wifi_testbed, rng):
        controller = ClientController(wifi_testbed, rng=rng)
        with pytest.raises(ValueError):
            controller.run_traffic_matrix((1, 2))

    def test_snr_override(self, wifi_testbed, rng):
        controller = ClientController(wifi_testbed, rng=rng)
        run = controller.run_traffic_matrix((0, 2, 0), snr_db_per_flow=[53.0, 14.0])
        snrs = sorted(r.snr_db for r in run.records)
        assert snrs == [14.0, 53.0]

    def test_ping_reflects_shaping(self, wifi_testbed):
        from repro.netem.shaping import Shaper

        controller = ClientController(wifi_testbed, rng=np.random.default_rng(0))
        base = controller.ping_rtt_s()
        wifi_testbed.set_shaper(Shaper(delay_s=0.2))
        shaped = controller.ping_rtt_s()
        assert shaped > base + 0.15

    def test_ping_measures_nothing(self, wifi_testbed):
        # A ping reads the base latency, the shaper's delay and one jitter
        # draw. It used to measure an empty matrix first, which draws no
        # noise: the values pinned here are the ones those pings gave.
        from repro.netem.shaping import Shaper

        controller = ClientController(wifi_testbed, rng=np.random.default_rng(7))
        pings = [controller.ping_rtt_s() for _ in range(3)]
        wifi_testbed.set_shaper(Shaper(delay_s=0.1))
        pings += [controller.ping_rtt_s() for _ in range(2)]
        assert wifi_testbed._plans == {}
        controller.run_traffic_matrix((1, 1, 1))
        pings.append(controller.ping_rtt_s())
        assert len(wifi_testbed._plans) == 1
        assert pings == [
            0.03625095466604667, 0.03897213800969576, 0.03775685690245194,
            0.13225207189990593, 0.13300166284911227, 0.13504548258957955,
        ]
