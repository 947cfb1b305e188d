"""Fluid capacity-sharing models for WiFi and LTE cells.

The paper's ground truth (which traffic matrices keep everyone's QoE
acceptable) comes from testbeds and ns-3 runs. Sweeping thousands of
matrices through a packet-level simulator is slow, so the reproduction
uses a closed-form *fluid* model for the sweeps and validates it against
the packet-level models in :mod:`repro.wireless.wifi` / ``lte``.

Key modelled behaviours (these shape the capacity region):

- **WiFi (802.11 DCF)** is *transmission-opportunity fair*: backlogged
  stations win the channel equally often, so equal throughput but very
  unequal airtime — a low-PHY-rate station consumes a large airtime share
  and drags down everyone (the 802.11 performance anomaly the paper's
  Figure 3 demonstrates). Contention also burns a fraction of airtime
  that grows with the number of active stations, and marginal links add
  residual frame loss.
- **LTE** is centrally scheduled and *resource fair*: a low-CQI UE gets
  poor throughput itself but does not collapse the cell, which is why the
  paper's classifiers behave better on LTE.

Throughput allocation is computed by water-filling a common throughput
level against the cell's airtime/PRB budget; delay follows an
M/M/1-style utilization law on top of the testbeds' measured ~35 ms base
RTT, saturating at a bufferbloat-style cap once a queue overflows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Optional, Sequence

from repro.wireless.phy import lte_cqi_for_snr, lte_efficiency_for_cqi, wifi_rate_for_snr
from repro.wireless.qos import FlowQoS

__all__ = ["OfferedFlow", "FluidWiFiCell", "FluidLTECell"]


@dataclass(frozen=True)
class OfferedFlow:
    """One flow offered to a cell.

    ``demand_bps`` is the application's offered downlink load,
    ``snr_db`` the client's link quality, ``flow_id`` an opaque key, and
    ``app_class`` is carried through untouched for the caller's use.
    ``elastic`` marks TCP-like applications that adapt to less bandwidth
    (web, streaming): squeezing them lowers their throughput without
    packet loss, whereas an inelastic (RTP-like) flow pushed below its
    demand loses the difference on the floor.
    """

    flow_id: int
    app_class: str
    demand_bps: float
    snr_db: float
    elastic: bool = True

    def __post_init__(self) -> None:
        if self.demand_bps <= 0:
            raise ValueError("demand must be positive")


def _waterfill(demands: Sequence[float], costs: Sequence[float], budget: float) -> list:
    """Throughput water-filling under a shared linear resource budget.

    Finds level ``T`` such that ``sum_i min(d_i, T) * c_i == budget`` and
    returns ``x_i = min(d_i, T)``; if the budget covers all demands, every
    flow is satisfied. ``costs`` are resource units per bit/s.

    The level has a closed form because ``used(T) = sum_i min(d_i, T) * c_i``
    is piecewise linear with a kink at each demand. Walk the flows in
    ascending demand order, keeping ``spent``, the cost of the flows served
    in full so far, and the summed cost of the rest. The first flow whose
    demand is at or above ``(budget - spent) / remaining_cost`` is capped,
    as is every flow after it, so that value is the level. It is the root
    a bisection on ``used(T) == budget`` approaches: the two agree to
    ~1e-14 relative, the closed form being the nearer to the exact root
    (the property tests keep the bisection as the oracle). Sorting on
    ``(demand, cost)`` pairs makes the result independent of input order,
    bit for bit. O(n log n), with no iteration count.
    """
    if budget <= 0:
        return [0.0 for _ in demands]
    flows = sorted(zip(demands, costs))
    # Summed cost of flows[k:], added up rather than subtracted down, so
    # it carries no cancellation error.
    rest = list(accumulate(c for _, c in reversed(flows)))[::-1]
    spent = 0.0
    for (d, c), remaining_cost in zip(flows, rest):
        level = (budget - spent) / remaining_cost
        if d >= level:
            return [min(x, level) for x in demands]
        spent += d * c
    return list(demands)


def _residual_loss(snr_db: float, knee_db: float = 18.0, slope: float = 0.02) -> float:
    """Residual frame loss of a marginal link (post rate-adaptation).

    Links comfortably above the knee see none; each dB below it costs
    ``slope`` of loss, capped at 30% (beyond that the station would
    disassociate).
    """
    return min(max((knee_db - snr_db) * slope, 0.0), 0.30)


class _FluidCellBase:
    """Shared QoS assembly for the two fluid cells."""

    base_delay_s: float
    queue_cap_s: float
    capacity_cap_bps: Optional[float]

    def _assemble_qos(
        self,
        flows: Sequence[OfferedFlow],
        alloc: Sequence[float],
        pressure: float,
        per_flow_service_s: Sequence[float],
        channel_loss: Sequence[float],
    ) -> Dict[int, FlowQoS]:
        """Turn allocations into per-flow QoS.

        ``pressure`` is offered load over the binding capacity
        constraint: queueing delay grows M/M/1-style with it and pins at
        the bufferbloat cap once demand exceeds capacity (queues stay
        full). Loss semantics depend on elasticity: a squeezed elastic
        flow simply runs slower; a squeezed inelastic flow drops the
        unserved share.
        """
        # Apply the aggregate cap (driver artifact / PGW throttle) by a
        # second, throughput-fair water-filling: heavy flows are squeezed
        # first while light flows (e.g. conferencing) stay whole.
        if self.capacity_cap_bps is not None and sum(alloc) > self.capacity_cap_bps:
            alloc = _waterfill(alloc, [1.0] * len(alloc), self.capacity_cap_bps)

        n = len(flows)
        out: Dict[int, FlowQoS] = {}
        for flow, x, service, ch_loss in zip(flows, alloc, per_flow_service_s, channel_loss):
            if pressure >= 1.0:
                queue_delay = self.queue_cap_s
            else:
                u = min(pressure, 0.97)
                queue_delay = min(
                    service * n * u / (1.0 - u), self.queue_cap_s
                )
            if flow.elastic:
                overflow_loss = 0.0
            else:
                overflow_loss = max(0.0, 1.0 - x / flow.demand_bps)
            loss = 1.0 - (1.0 - overflow_loss) * (1.0 - ch_loss)
            goodput = x * (1.0 - ch_loss)
            out[flow.flow_id] = FlowQoS(
                throughput_bps=goodput,
                delay_s=self.base_delay_s + queue_delay,
                loss_rate=loss,
            )
        return out

    def _pressure(
        self,
        demands: Sequence[float],
        costs: Sequence[float],
        budget: float,
    ) -> float:
        """Offered load relative to the binding capacity constraint."""
        airtime_pressure = sum(d * c for d, c in zip(demands, costs)) / budget
        if self.capacity_cap_bps is not None:
            cap_pressure = sum(demands) / self.capacity_cap_bps
            return max(airtime_pressure, cap_pressure)
        return airtime_pressure


class FluidWiFiCell(_FluidCellBase):
    """Fluid model of one 802.11n access point.

    Parameters
    ----------
    capacity_cap_bps:
        Optional hard cap on aggregate goodput. The paper's laptop AP
        measured only 20 Mbps UDP despite 802.11n PHY rates — an artifact
        of its driver — so the WiFi *testbed* emulation sets this while
        the ns-3-style simulation leaves it unset.
    base_delay_s:
        First-hop RTT with an idle channel (paper: 30-40 ms including the
        wired path).
    phy_multiplier:
        Scales the single-stream MCS rates (spatial streams x channel
        bonding); the ns-3 scale-up cell uses 6x (3 streams, 40 MHz).
    frame_payload_bits / frame_overhead_s:
        MAC framing: each payload unit additionally costs this much
        channel time. Frame aggregation (A-MPDU) amortizes it, so the
        ns-3 cell uses a much smaller value than the laptop AP.
    contention_per_station:
        Fraction of airtime efficiency lost per additional active station
        (collision/backoff inflation).
    queue_cap_s:
        Bufferbloat ceiling on queueing delay.
    """

    def __init__(
        self,
        capacity_cap_bps: Optional[float] = None,
        base_delay_s: float = 0.035,
        mac_efficiency: float = 0.9,
        phy_multiplier: float = 1.0,
        frame_payload_bits: float = 1500 * 8,
        frame_overhead_s: float = 130e-6,
        contention_per_station: float = 0.012,
        queue_cap_s: float = 0.15,
    ) -> None:
        if base_delay_s <= 0:
            raise ValueError("base delay must be positive")
        if not 0 < mac_efficiency <= 1:
            raise ValueError("mac_efficiency must be in (0, 1]")
        if phy_multiplier <= 0:
            raise ValueError("phy_multiplier must be positive")
        self.capacity_cap_bps = capacity_cap_bps
        self.base_delay_s = base_delay_s
        self.mac_efficiency = mac_efficiency
        self.phy_multiplier = phy_multiplier
        self.frame_payload_bits = frame_payload_bits
        self.frame_overhead_s = frame_overhead_s
        self.contention_per_station = contention_per_station
        self.queue_cap_s = queue_cap_s

    @classmethod
    def testbed_laptop(cls, capacity_cap_bps: float = 20.0e6) -> "FluidWiFiCell":
        """The paper's hostapd-on-a-laptop AP (20 Mbps driver cap)."""
        return cls(capacity_cap_bps=capacity_cap_bps)

    @classmethod
    def ns3_80211n(cls) -> "FluidWiFiCell":
        """The ns-3 scale-up cell: 3-stream 40 MHz 802.11n with A-MPDU."""
        return cls(phy_multiplier=6.0, frame_overhead_s=20e-6)

    def _effective_rate(self, snr_db: float) -> float:
        """Goodput-per-airtime for a station, including framing overhead."""
        phy = wifi_rate_for_snr(snr_db) * self.phy_multiplier
        per_bit = 1.0 / phy + self.frame_overhead_s / self.frame_payload_bits
        return 1.0 / per_bit

    def airtime_budget(self, n_stations: int) -> float:
        """Usable airtime fraction with ``n_stations`` contending."""
        if n_stations <= 0:
            return self.mac_efficiency
        return self.mac_efficiency / (
            1.0 + self.contention_per_station * (n_stations - 1)
        )

    def allocate(
        self,
        flows: Sequence[OfferedFlow],
        background: Sequence[OfferedFlow] = (),
    ) -> Dict[int, FlowQoS]:
        """Per-flow QoS for simultaneously active flows.

        ``background`` flows model the 802.11e low-priority access
        category the paper's Section 4.2 demotes rejected flows into:
        they are served strictly after the primary flows (EDCA's AC_BK
        with large AIFS/CW, idealized as strict priority), so they can
        only consume leftover airtime and always ride a saturated queue
        — primary flows never see them.
        """
        if not flows and not background:
            return {}
        n_total = len(flows) + len(background)
        budget = self.airtime_budget(n_total)

        out: Dict[int, FlowQoS] = {}
        used = 0.0
        pressure = 0.0
        if flows:
            rates = [self._effective_rate(f.snr_db) for f in flows]
            costs = [1.0 / r for r in rates]
            demands = [f.demand_bps for f in flows]
            alloc = _waterfill(demands, costs, budget)
            pressure = self._pressure(demands, costs, budget)
            service = [self.frame_payload_bits / r for r in rates]
            channel_loss = [_residual_loss(f.snr_db) for f in flows]
            out.update(
                self._assemble_qos(flows, alloc, pressure, service, channel_loss)
            )
            used = sum(x * c for x, c in zip(alloc, costs))
            if self.capacity_cap_bps is not None:
                # The cap binds goodput, not airtime; approximate the
                # airtime the capped allocation actually uses.
                capped_total = min(sum(alloc), self.capacity_cap_bps)
                if sum(alloc) > 0:
                    used *= capped_total / sum(alloc)

        if background:
            leftover = max(budget - used, 0.0)
            bg_rates = [self._effective_rate(f.snr_db) for f in background]
            bg_costs = [1.0 / r for r in bg_rates]
            bg_demands = [f.demand_bps for f in background]
            bg_alloc = _waterfill(bg_demands, bg_costs, leftover)
            bg_loss = [_residual_loss(f.snr_db) for f in background]
            # Background frames wait out every priority transmission:
            # their queueing delay sits at the bufferbloat cap whenever
            # the cell carries meaningful priority load.
            bg_pressure = max(pressure, 1.0) if flows else self._pressure(
                bg_demands, bg_costs, budget
            )
            bg_service = [self.frame_payload_bits / r for r in bg_rates]
            out.update(
                self._assemble_qos(
                    background, bg_alloc, bg_pressure, bg_service, bg_loss
                )
            )
        return out


class FluidLTECell(_FluidCellBase):
    """Fluid model of one LTE eNodeB (downlink).

    Resource-fair PRB scheduling: each backlogged UE's throughput is its
    resource share times its own CQI-determined spectral efficiency, so
    low-CQI UEs do not degrade others. A fraction of the carrier is
    reserved for control (PDCCH/RS) overhead; HARQ retransmission hides
    residual channel loss from the application, so only overflow loss is
    visible.
    """

    def __init__(
        self,
        bandwidth_hz: float = 10.0e6,
        control_overhead: float = 0.25,
        base_delay_s: float = 0.035,
        scheduling_delay_s: float = 0.001,
        capacity_cap_bps: Optional[float] = None,
        queue_cap_s: float = 0.15,
    ) -> None:
        if bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0 <= control_overhead < 1:
            raise ValueError("control_overhead must be in [0, 1)")
        self.bandwidth_hz = bandwidth_hz
        self.control_overhead = control_overhead
        self.base_delay_s = base_delay_s
        self.scheduling_delay_s = scheduling_delay_s
        self.capacity_cap_bps = capacity_cap_bps
        self.queue_cap_s = queue_cap_s

    @classmethod
    def small_cell(cls) -> "FluidLTECell":
        """The paper's ip.access E-40-like 10 MHz small cell."""
        return cls(bandwidth_hz=10.0e6)

    @classmethod
    def ns3_macro(cls) -> "FluidLTECell":
        """The ns-3 scale-up cell: a 20 MHz carrier."""
        return cls(bandwidth_hz=20.0e6)

    def _full_carrier_rate(self, snr_db: float) -> float:
        cqi = lte_cqi_for_snr(snr_db)
        return lte_efficiency_for_cqi(cqi) * self.bandwidth_hz

    def allocate(
        self,
        flows: Sequence[OfferedFlow],
        background: Sequence[OfferedFlow] = (),
    ) -> Dict[int, FlowQoS]:
        """Per-flow QoS for simultaneously active flows.

        ``background`` bearers model a strictly lower scheduling class
        (demoted flows): they receive only the PRB share left over after
        the primary bearers are served.
        """
        if not flows and not background:
            return {}
        budget = 1.0 - self.control_overhead
        out: Dict[int, FlowQoS] = {}
        used = 0.0
        pressure = 0.0
        if flows:
            rates = [self._full_carrier_rate(f.snr_db) for f in flows]
            costs = [1.0 / r for r in rates]
            demands = [f.demand_bps for f in flows]
            # Resource-share water-filling: equalize each UE's *PRB
            # share* (not its throughput) — the level S solves
            # sum_i min(d_i / R_i, S) = budget, and UE i then transmits
            # at its own rate over its share. This is what makes LTE
            # resource fair: a low-CQI UE wastes only its own share.
            shares_needed = [d * c for d, c in zip(demands, costs)]
            share_alloc = _waterfill(shares_needed, [1.0] * len(flows), budget)
            alloc = [s * r for s, r in zip(share_alloc, rates)]
            pressure = self._pressure(demands, costs, budget)
            service = [self.scheduling_delay_s] * len(flows)
            channel_loss = [0.0] * len(flows)  # HARQ masks residual loss
            out.update(
                self._assemble_qos(flows, alloc, pressure, service, channel_loss)
            )
            used = sum(share_alloc)

        if background:
            leftover = max(budget - used, 0.0)
            bg_rates = [self._full_carrier_rate(f.snr_db) for f in background]
            bg_costs = [1.0 / r for r in bg_rates]
            bg_demands = [f.demand_bps for f in background]
            bg_shares = [d * c for d, c in zip(bg_demands, bg_costs)]
            bg_share_alloc = _waterfill(bg_shares, [1.0] * len(background), leftover)
            bg_alloc = [s * r for s, r in zip(bg_share_alloc, bg_rates)]
            bg_pressure = max(pressure, 1.0) if flows else self._pressure(
                bg_demands, bg_costs, budget
            )
            bg_service = [self.scheduling_delay_s] * len(background)
            out.update(
                self._assemble_qos(
                    background, bg_alloc, bg_pressure, bg_service,
                    [0.0] * len(background),
                )
            )
        return out
