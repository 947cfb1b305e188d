"""Discrete-event simulation substrate.

A minimal event-driven kernel (time-ordered queue, generator-based
processes) on which the packet-level WiFi and LTE cells in
:mod:`repro.wireless` run. Those cells are the fluid model's test
reference only; no label, figure or benchmark workload imports this
package. Also holds the seeded RNG streams.
"""

from repro.simulation.engine import Event, Process, Simulator
from repro.simulation.rng import RngRegistry, seeded_rng

__all__ = ["Event", "Process", "RngRegistry", "Simulator", "seeded_rng"]
