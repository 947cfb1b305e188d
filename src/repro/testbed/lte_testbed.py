"""The emulated LTE small-cell testbed (paper Section 5.1).

8 phones against an ip.access E-40 eNodeB behind an OpenEPC core. The
8-UE bound is the E-40's software limit; it is ``max_clients`` (one
client per device), which :meth:`EmulatedTestbed.run_flows` enforces by
refusing a matrix with more flows. iperf over the real testbed showed
>30 Mbps and 30-40 ms latency. The default fluid LTE cell is 5 MHz
(``bandwidth_hz=5.0e6``) with a 35 ms base delay: it matches the latency
but carries at most ≈20.8 Mbps of UDP (``_LTE_CAPACITY_BPS`` in
:mod:`repro.experiments.figures`). ExBox and the capture/shaping tools
live on the PGW, so netem profiles apply at the core-network side
exactly as in the paper.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.netem.shaping import Shaper
from repro.testbed.base import EmulatedTestbed
from repro.wireless.channel import SnrBinner
from repro.wireless.fluid import FluidLTECell, OfferedFlow
from repro.wireless.qos import FlowQoS

__all__ = ["LTETestbed"]

# The paper's high-CQI placement: phones near the eNodeB. 30 dB SNR is
# CQI 15 territory; the "low" placement mirrors the WiFi far spot.
_LTE_HIGH_SNR_DB = 30.0


class LTETestbed(EmulatedTestbed):
    """8-UE LTE testbed: E-40 eNodeB, ExBox at the PGW."""

    def __init__(
        self,
        n_devices: int = 8,
        bandwidth_hz: float = 5.0e6,
        base_delay_s: float = 0.035,
        binner: Optional[SnrBinner] = None,
        shaper: Optional[Shaper] = None,
        qos_noise: float = 0.03,
    ) -> None:
        super().__init__(
            n_devices=n_devices,
            high_snr_db=_LTE_HIGH_SNR_DB,
            binner=binner,
            shaper=shaper,
            qos_noise=qos_noise,
        )
        self.bandwidth_hz = bandwidth_hz
        self.base_delay_s = base_delay_s

    def _cell(self) -> FluidLTECell:
        cap = self.shaper.rate_bps  # PGW-side throttle caps the aggregate
        return FluidLTECell(
            bandwidth_hz=self.bandwidth_hz,
            base_delay_s=self.base_delay_s,
            capacity_cap_bps=cap,
        )

    def _allocate(
        self,
        offered: Sequence[OfferedFlow],
        background: Sequence[OfferedFlow] = (),
    ) -> Dict[int, FlowQoS]:
        return self._cell().allocate(offered, background=background)

    def _cell_params(self) -> Tuple[Optional[float], ...]:
        return (self.bandwidth_hz, self.base_delay_s)

    def place_device(self, device_id: int, snr_db: float) -> None:
        """Move a UE to a new position (changes its reported CQI)."""
        self.devices[device_id].move_to(snr_db)
