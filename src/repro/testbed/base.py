"""Shared machinery for the emulated WiFi/LTE testbeds."""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.base import app_model_for_class
from repro.netem.shaping import Shaper
from repro.qoe.thresholds import threshold_for_class
from repro.testbed.controller import FlowRecord, MatrixRun
from repro.testbed.devices import MobileDevice
from repro.traffic.flows import APP_CLASSES, DEFAULT_PROFILES
from repro.wireless.channel import SnrBinner
from repro.wireless.fluid import OfferedFlow
from repro.wireless.qos import FlowQoS

__all__ = ["EmulatedTestbed"]


class EmulatedTestbed(abc.ABC):
    """Base class: turn (class, SNR) flow specs into a measured MatrixRun.

    Subclasses provide the radio cell (:meth:`_allocate`) and device
    population; this class handles demand profiles, netem shaping,
    measurement noise, app-model QoE and labelling.
    """

    def __init__(
        self,
        n_devices: int,
        high_snr_db: float,
        binner: Optional[SnrBinner] = None,
        shaper: Optional[Shaper] = None,
        qos_noise: float = 0.03,
    ) -> None:
        if n_devices < 1:
            raise ValueError("need at least one device")
        self.devices = [
            MobileDevice(device_id=i, snr_db=high_snr_db) for i in range(n_devices)
        ]
        self.binner = binner or SnrBinner.single_level()
        self.shaper = shaper or Shaper()
        self.qos_noise = float(qos_noise)
        # App models and thresholds are stateless, so one per class serves
        # every measurement.
        self._app_models = {
            cls: (app_model_for_class(cls), threshold_for_class(cls))
            for cls in APP_CLASSES
        }

    # -- radio model -----------------------------------------------------
    @abc.abstractmethod
    def _allocate(
        self,
        offered: Sequence[OfferedFlow],
        background: Sequence[OfferedFlow] = (),
    ) -> Dict[int, FlowQoS]:
        """Run the cell's capacity-sharing model."""

    @property
    def max_clients(self) -> int:
        return len(self.devices)

    # -- shaping ---------------------------------------------------------
    def set_shaper(self, shaper: Shaper) -> None:
        """Apply a tc/netem profile to the whole testbed (Figure 11)."""
        self.shaper = shaper

    def clear_shaper(self) -> None:
        self.shaper = Shaper()

    # -- measurement -----------------------------------------------------
    def _noisy(self, qos: FlowQoS, rng: Optional[np.random.Generator]) -> FlowQoS:
        if self.qos_noise <= 0 or rng is None:
            return qos
        factor = max(1.0 + float(rng.normal(0.0, self.qos_noise)), 0.2)
        return FlowQoS(
            throughput_bps=qos.throughput_bps * factor,
            delay_s=max(qos.delay_s / factor, 1e-4),
            loss_rate=qos.loss_rate,
        )

    def _offered(
        self, flow_specs: Sequence[Tuple[str, float]], start_id: int = 0
    ) -> List[OfferedFlow]:
        return [
            OfferedFlow(
                flow_id=start_id + i,
                app_class=app_class,
                demand_bps=DEFAULT_PROFILES[app_class].demand_bps,
                snr_db=snr_db,
                elastic=DEFAULT_PROFILES[app_class].elastic,
            )
            for i, (app_class, snr_db) in enumerate(flow_specs)
        ]

    def run_flows(
        self,
        flow_specs: Sequence[Tuple[str, float]],
        rng: Optional[np.random.Generator] = None,
        background_specs: Sequence[Tuple[str, float]] = (),
    ) -> MatrixRun:
        """Measure one traffic matrix.

        ``flow_specs`` is a list of ``(app_class, snr_db)`` pairs, one per
        simultaneously active flow; ``background_specs`` are flows demoted
        to the 802.11e-style low-priority category (measured, but outside
        the QoE promise and the network-wide label). Returns per-flow QoS,
        client-side ground-truth QoE and thresholded acceptability.
        """
        if len(flow_specs) > self.max_clients:
            raise ValueError(
                f"{len(flow_specs)} flows exceed the testbed's "
                f"{self.max_clients} clients"
            )
        offered = self._offered(flow_specs)
        background = self._offered(background_specs, start_id=len(offered))
        allocation = self._allocate(offered, background)

        records: List[FlowRecord] = []
        for flow in offered + background:
            qos = allocation[flow.flow_id]
            qos = self.shaper.apply_to_qos(qos)
            qos = self._noisy(qos, rng)
            app_model, threshold = self._app_models[flow.app_class]
            qoe = app_model.measure_qoe(qos)
            records.append(
                FlowRecord(
                    flow_id=flow.flow_id,
                    app_class=flow.app_class,
                    snr_db=flow.snr_db,
                    snr_level=self.binner.level_index(flow.snr_db),
                    qos=qos,
                    qoe=qoe,
                    acceptable=threshold.is_acceptable(qoe),
                    background=flow.flow_id >= len(offered),
                )
            )
        return MatrixRun(records=tuple(records))
