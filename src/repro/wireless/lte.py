"""Packet-level LTE eNodeB model on the discrete-event engine.

Models the downlink of one LTE cell: per-UE FIFO radio bearers and a
subframe (1 ms) round-robin scheduler that grants the whole carrier to
one backlogged UE per subframe. Round-robin gives each UE an equal *time*
share, so its throughput is proportional to its own CQI-determined rate.
This is the resource-fair behaviour that distinguishes LTE from WiFi's
transmission-opportunity fairness (and why the paper's admission-control
results are cleaner on LTE).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.simulation.engine import Simulator
from repro.wireless.phy import lte_cqi_for_snr, lte_efficiency_for_cqi
from repro.wireless.qos import FlowQoS, QosAccumulator

__all__ = ["LteCell", "LteFlowConfig"]

SUBFRAME_S = 1e-3


@dataclass(frozen=True)
class LteFlowConfig:
    """Static description of one downlink bearer through the cell."""

    flow_id: int
    snr_db: float
    packet_bits: int = 1500 * 8


@dataclass
class _Bearer:
    config: LteFlowConfig
    rate_bps: float  # full-carrier rate at this UE's CQI
    packets: Deque[Tuple[float, int]] = field(default_factory=deque)
    residual_bits: int = 0  # bits of head packet already sent
    acc: Optional[QosAccumulator] = None


class LteCell:
    """One LTE eNodeB serving downlink bearers.

    Parameters
    ----------
    sim:
        Discrete-event simulator.
    bandwidth_hz:
        Carrier bandwidth (10 MHz small cell by default).
    control_overhead:
        Fraction of each subframe consumed by PDCCH/reference signals.
    base_delay_s:
        Core-network + backhaul latency added to every delivery.
    queue_limit:
        Per-bearer queue depth in packets.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_hz: float = 10.0e6,
        control_overhead: float = 0.25,
        base_delay_s: float = 0.035,
        queue_limit: int = 300,
    ) -> None:
        self.sim = sim
        self.bandwidth_hz = bandwidth_hz
        self.control_overhead = control_overhead
        self.base_delay_s = base_delay_s
        self.queue_limit = queue_limit
        self._bearers: Dict[int, _Bearer] = {}
        self._order: List[int] = []
        self._rr_next = 0
        self._scheduler_running = False

    # ------------------------------------------------------------------
    # Bearer / packet plumbing
    # ------------------------------------------------------------------
    def add_flow(self, config: LteFlowConfig, measure_window_s: float) -> None:
        if config.flow_id in self._bearers:
            raise ValueError(f"duplicate flow id {config.flow_id}")
        cqi = lte_cqi_for_snr(config.snr_db)
        rate = (
            lte_efficiency_for_cqi(cqi)
            * self.bandwidth_hz
            * (1.0 - self.control_overhead)
        )
        self._bearers[config.flow_id] = _Bearer(
            config=config,
            rate_bps=rate,
            acc=QosAccumulator(window_s=measure_window_s),
        )
        self._order.append(config.flow_id)

    def enqueue(self, flow_id: int) -> None:
        """One packet arrives for ``flow_id`` at the current sim time."""
        bearer = self._bearers[flow_id]
        if len(bearer.packets) >= self.queue_limit:
            bearer.acc.record_loss()
            return
        bearer.packets.append((self.sim.now, bearer.config.packet_bits))
        self._ensure_scheduler()

    # ------------------------------------------------------------------
    # Subframe scheduler (round-robin time share)
    # ------------------------------------------------------------------
    def _ensure_scheduler(self) -> None:
        if self._scheduler_running:
            return
        self._scheduler_running = True
        self.sim.schedule(0.0, self._subframe)

    def _next_backlogged(self) -> Optional[int]:
        """The next backlogged UE after the last grantee, in round-robin order."""
        n = len(self._order)
        for offset in range(1, n + 1):
            fid = self._order[(self._rr_next + offset) % n]
            if self._bearers[fid].packets:
                self._rr_next = (self._rr_next + offset) % n
                return fid
        return None

    def _subframe(self) -> None:
        fid = self._next_backlogged()
        if fid is None:
            self._scheduler_running = False
            return
        bearer = self._bearers[fid]
        budget_bits = int(bearer.rate_bps * SUBFRAME_S)
        deliver_at = self.sim.now + SUBFRAME_S
        while budget_bits > 0 and bearer.packets:
            arrival, remaining = bearer.packets[0]
            remaining -= bearer.residual_bits
            if remaining <= budget_bits:
                budget_bits -= remaining
                bearer.packets.popleft()
                bearer.residual_bits = 0
                bearer.acc.record(
                    bearer.config.packet_bits,
                    (deliver_at - arrival) + self.base_delay_s,
                )
            else:
                bearer.residual_bits += budget_bits
                budget_bits = 0
        self.sim.schedule(SUBFRAME_S, self._subframe)

    def snapshot(self) -> Dict[int, FlowQoS]:
        """Per-bearer QoS accumulated so far."""
        return {fid: bearer.acc.snapshot() for fid, bearer in self._bearers.items()}

    # ------------------------------------------------------------------
    # Convenience experiment driver
    # ------------------------------------------------------------------
    def run_constant_bitrate(
        self,
        offered: Sequence[tuple],
        duration_s: float,
    ) -> Dict[int, FlowQoS]:
        """Drive each bearer with CBR traffic and report per-flow QoS.

        ``offered`` is a sequence of ``(LteFlowConfig, demand_bps)``.
        """
        for config, _ in offered:
            self.add_flow(config, measure_window_s=duration_s)
        for config, demand_bps in offered:
            interval = config.packet_bits / demand_bps

            def _arrivals(fid: int = config.flow_id,
                          interval: float = interval) -> Iterator[float]:
                while True:
                    self.enqueue(fid)
                    yield interval

            self.sim.spawn(_arrivals())
        self.sim.run(until=duration_s)
        return {
            fid: bearer.acc.snapshot() for fid, bearer in self._bearers.items()
        }
