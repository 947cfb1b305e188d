"""Network-side QoE estimation (paper Section 3.2).

ExBox cannot read QoE off user devices; instead it fits one IQX model
per application class from a *training device*'s instrumented runs, then
estimates any flow's QoE from passively measured QoS (throughput/delay
at the gateway) and thresholds it to the ±1 labels the Admittance
Classifier trains on.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.qoe.iqx import IQXModel, fit_iqx
from repro.qoe.thresholds import QoEThreshold, threshold_for_class
from repro.testbed.controller import MatrixRun
from repro.testbed.devices import TrainingDevice
from repro.traffic.flows import APP_CLASSES
from repro.wireless.qos import FlowQoS

__all__ = ["QoEEstimator"]

# The paper's tc sweep: "data rate from 100 Kbps to 20 Mbps and latency
# from 10 ms to 250 ms".
_DEFAULT_RATES_BPS = tuple(np.geomspace(100e3, 20e6, 12))
_DEFAULT_DELAYS_S = tuple(np.linspace(0.010, 0.250, 7))


class QoEEstimator:
    """Per-application IQX models + thresholds → flow labels."""

    def __init__(self, thresholds: Optional[Dict[str, QoEThreshold]] = None) -> None:
        self._models: Dict[str, IQXModel] = {}
        self._thresholds = thresholds or {
            cls: threshold_for_class(cls) for cls in APP_CLASSES
        }

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train_from_device(
        self,
        device: Optional[TrainingDevice] = None,
        rates_bps: Sequence[float] = _DEFAULT_RATES_BPS,
        delays_s: Sequence[float] = _DEFAULT_DELAYS_S,
        runs_per_point: int = 10,
        rng: Optional[np.random.Generator] = None,
        app_classes: Sequence[str] = APP_CLASSES,
    ) -> Dict[str, IQXModel]:
        """Run the Figure 12 training sweep and fit one IQX per class."""
        device = device or TrainingDevice()
        rng = rng if rng is not None else np.random.default_rng(1)
        data = device.collect_training_data(
            app_classes, rates_bps, delays_s, runs_per_point=runs_per_point, rng=rng
        )
        for app_class, samples in data.items():
            self.fit_class(app_class, samples)
        return dict(self._models)

    def fit_class(
        self, app_class: str, samples: Sequence[Tuple[float, float]]
    ) -> IQXModel:
        """Fit the IQX model of one class from (QoS, QoE) samples."""
        if app_class not in self._thresholds:
            raise ValueError(f"no threshold configured for {app_class!r}")
        qos_values = [s[0] for s in samples]
        qoe_values = [s[1] for s in samples]
        model = fit_iqx(qos_values, qoe_values)
        self._models[app_class] = model
        return model

    def set_model(self, app_class: str, model: IQXModel) -> None:
        """Install a pre-fitted model (IQX model sharing across cells,
        Section 4.4)."""
        self._models[app_class] = model

    def model_for(self, app_class: str) -> IQXModel:
        try:
            return self._models[app_class]
        except KeyError:
            raise RuntimeError(
                f"no IQX model trained for class {app_class!r}"
            ) from None

    @property
    def trained_classes(self) -> Tuple[str, ...]:
        return tuple(sorted(self._models))

    # ------------------------------------------------------------------
    # Estimation and labelling
    # ------------------------------------------------------------------
    def estimate_qoe(self, app_class: str, qos: FlowQoS) -> float:
        """IQX-estimated QoE of a flow from its passive QoS measurement."""
        return self.model_for(app_class).predict(qos.scalar())

    def label_flow(self, app_class: str, qos: FlowQoS) -> int:
        """±1: would this flow's estimated QoE be acceptable?"""
        qoe = self.estimate_qoe(app_class, qos)
        return self._thresholds[app_class].label(qoe)

    def label_matrix_run(self, run: MatrixRun) -> int:
        """The network-wide ``Y_m``: +1 iff *every* flow's estimated QoE
        clears its class threshold (Section 3.1)."""
        for record in run.records:
            if self.label_flow(record.app_class, record.qos) < 0:
                return -1
        return 1

    def threshold_for(self, app_class: str) -> QoEThreshold:
        return self._thresholds[app_class]
