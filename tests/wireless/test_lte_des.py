"""Tests for the packet-level LTE cell on the DES engine."""

import pytest

from repro.simulation.engine import Simulator
from repro.wireless.lte import LteCell, LteFlowConfig


def _run(offered, duration=3.0, **cell_kwargs):
    sim = Simulator()
    cell = LteCell(sim, **cell_kwargs)
    return cell.run_constant_bitrate(offered, duration_s=duration)


class TestLteCell:
    def test_light_load_delivers_demand(self):
        results = _run([(LteFlowConfig(0, 30.0), 2e6)])
        assert results[0].throughput_bps == pytest.approx(2e6, rel=0.1)
        assert results[0].loss_rate == pytest.approx(0.0)

    def test_resource_fair_not_throughput_fair(self):
        # Saturated UEs at different CQIs get equal *time*, so the
        # high-CQI UE gets proportionally more throughput (opposite of
        # the WiFi anomaly).
        results = _run(
            [(LteFlowConfig(0, 30.0), 40e6), (LteFlowConfig(1, 0.0), 40e6)],
            duration=2.0,
            queue_limit=50,
        )
        assert results[0].throughput_bps > 3 * results[1].throughput_bps

    def test_low_cqi_does_not_collapse_high_cqi(self):
        alone = _run([(LteFlowConfig(0, 30.0), 40e6)], duration=2.0, queue_limit=50)
        shared = _run(
            [(LteFlowConfig(0, 30.0), 40e6), (LteFlowConfig(1, 0.0), 40e6)],
            duration=2.0,
            queue_limit=50,
        )
        # Equal time share: the fast UE keeps ~half its solo throughput.
        assert shared[0].throughput_bps > 0.4 * alone[0].throughput_bps

    def test_overload_drops(self):
        results = _run([(LteFlowConfig(0, 30.0), 100e6)], queue_limit=40)
        assert results[0].loss_rate > 0.2

    def test_base_delay_floor(self):
        results = _run([(LteFlowConfig(0, 30.0), 1e6)], base_delay_s=0.04)
        assert results[0].delay_s >= 0.04

    def test_duplicate_flow_rejected(self):
        sim = Simulator()
        cell = LteCell(sim)
        cell.add_flow(LteFlowConfig(0, 30.0), measure_window_s=1.0)
        with pytest.raises(ValueError):
            cell.add_flow(LteFlowConfig(0, 20.0), measure_window_s=1.0)

    def test_bandwidth_scales_capacity(self):
        narrow = _run([(LteFlowConfig(0, 30.0), 80e6)], bandwidth_hz=5e6, queue_limit=40)
        wide = _run([(LteFlowConfig(0, 30.0), 80e6)], bandwidth_hz=20e6, queue_limit=40)
        assert wide[0].throughput_bps > 2 * narrow[0].throughput_bps

    def test_rr_serves_cell_edge(self):
        # Round-robin time share: a cell-edge UE beside two good UEs is
        # still served.
        results = _run(
            [(LteFlowConfig(i, snr), 40e6) for i, snr in enumerate([30.0, 30.0, 0.0])],
            duration=2.0,
            queue_limit=50,
        )
        assert results[2].throughput_bps > 0

    def test_capacity_within_cqi15_ceiling(self):
        peak = LteCell(Simulator()).bandwidth_hz * 5.5547 * 0.75  # CQI-15 ceiling
        results = _run(
            [(LteFlowConfig(0, 30.0), 40e6), (LteFlowConfig(1, 30.0), 40e6)],
            duration=2.0,
            queue_limit=50,
        )
        assert sum(q.throughput_bps for q in results.values()) <= peak * 1.05
