"""Emulated WiFi and LTE testbeds (paper Section 5).

Software stand-ins for the paper's physical testbeds: 10 Galaxy S6
phones against a laptop-hosted WiFi AP (20 Mbps measured capacity,
30-40 ms RTT) and 8 phones against an ip.access E-40 eNodeB behind an
OpenEPC core (>30 Mbps, 30-40 ms RTT). Each testbed exposes the same
observable surface the real one gives ExBox: put up a traffic matrix,
get back per-flow QoS, ground-truth QoE and acceptability labels.
"""

from repro.testbed.controller import ClientController, FlowRecord, MatrixRun
from repro.testbed.devices import MobileDevice, TrainingDevice
from repro.testbed.lte_testbed import LTETestbed
from repro.testbed.wifi_testbed import WiFiTestbed

__all__ = [
    "ClientController",
    "FlowRecord",
    "LTETestbed",
    "MatrixRun",
    "MobileDevice",
    "TrainingDevice",
    "WiFiTestbed",
]
