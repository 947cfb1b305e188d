"""The emulated WiFi testbed (paper Section 5.1).

10 phones against a laptop-hosted 802.11 hotspot. The laptop's WiFi
driver capped iperf UDP throughput at ~20 Mbps with 30-40 ms ping RTT;
both artifacts are reproduced here as the fluid cell's aggregate cap and
base delay. All phones default to the high-SNR position (the paper's
testbed placement); :meth:`place_device` moves one to a different spot
for SNR-diversity experiments (Figure 3).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.netem.shaping import Shaper
from repro.testbed.base import EmulatedTestbed
from repro.wireless.channel import HIGH_SNR_DB, SnrBinner
from repro.wireless.fluid import FluidWiFiCell, OfferedFlow
from repro.wireless.qos import FlowQoS

__all__ = ["WiFiTestbed"]


class WiFiTestbed(EmulatedTestbed):
    """10-UE WiFi testbed with a 20 Mbps driver-capped AP."""

    def __init__(
        self,
        n_devices: int = 10,
        capacity_cap_bps: float = 20.0e6,
        base_delay_s: float = 0.035,
        binner: Optional[SnrBinner] = None,
        shaper: Optional[Shaper] = None,
        qos_noise: float = 0.03,
    ) -> None:
        super().__init__(
            n_devices=n_devices,
            high_snr_db=HIGH_SNR_DB,
            binner=binner,
            shaper=shaper,
            qos_noise=qos_noise,
        )
        self.capacity_cap_bps = capacity_cap_bps
        self.base_delay_s = base_delay_s

    def _cell(self) -> FluidWiFiCell:
        cap = self.capacity_cap_bps
        if self.shaper.rate_bps is not None:
            cap = min(cap, self.shaper.rate_bps) if cap else self.shaper.rate_bps
        return FluidWiFiCell(capacity_cap_bps=cap, base_delay_s=self.base_delay_s)

    def _allocate(
        self,
        offered: Sequence[OfferedFlow],
        background: Sequence[OfferedFlow] = (),
    ) -> Dict[int, FlowQoS]:
        return self._cell().allocate(offered, background=background)

    def _cell_params(self) -> Tuple[Optional[float], ...]:
        return (self.capacity_cap_bps, self.base_delay_s)

    def place_device(self, device_id: int, snr_db: float) -> None:
        """Move a phone to a new position (e.g. the -80 dBm far spot)."""
        self.devices[device_id].move_to(snr_db)
