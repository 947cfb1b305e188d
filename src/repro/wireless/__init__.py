"""Wireless PHY/MAC substrate.

The fluid capacity-sharing cells (:mod:`repro.wireless.fluid`) compute
per-flow QoS for a whole traffic matrix in closed form, fast enough for
the paper's thousands-of-matrices parameter sweeps; every label, figure
and benchmark number comes from them.

The packet-level cells (:mod:`repro.wireless.wifi`,
:mod:`repro.wireless.lte`) and the slotted DCF model
(:mod:`repro.wireless.dcf`) are the fluid cells' test reference only:
they run on the discrete-event engine in :mod:`repro.simulation`, are not
re-exported here, and no production path imports them.
"""

from repro.wireless.channel import (
    SnrBinner,
    SnrLevel,
    friis_snr_db,
    log_distance_snr_db,
)
from repro.wireless.fluid import FluidLTECell, FluidWiFiCell, OfferedFlow
from repro.wireless.mobility import CellGeometry, RandomWaypoint, TwoZoneHopper
from repro.wireless.phy import (
    LTE_CQI_TABLE,
    WIFI_MCS_TABLE,
    lte_efficiency_for_cqi,
    lte_cqi_for_snr,
    wifi_rate_for_snr,
)
from repro.wireless.qos import FlowQoS

__all__ = [
    "CellGeometry",
    "FlowQoS",
    "FluidLTECell",
    "FluidWiFiCell",
    "LTE_CQI_TABLE",
    "OfferedFlow",
    "RandomWaypoint",
    "SnrBinner",
    "SnrLevel",
    "TwoZoneHopper",
    "WIFI_MCS_TABLE",
    "friis_snr_db",
    "log_distance_snr_db",
    "lte_cqi_for_snr",
    "lte_efficiency_for_cqi",
    "wifi_rate_for_snr",
]
