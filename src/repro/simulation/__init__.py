"""Discrete-event simulation substrate.

A minimal event-driven kernel (time-ordered queue, generator-based
processes) on which the packet-level WiFi and LTE cells in
:mod:`repro.wireless` run. Those cells are the fluid model's test
reference only; no label, figure or benchmark workload imports this
package.
"""

from repro.simulation.engine import Event, Process, Simulator

__all__ = ["Event", "Process", "Simulator"]
