"""Application-class classifier over early-packet features.

Trained on labelled synthetic traces and used by the ExBox middlebox to
assign an application class to each arriving flow before the admission
decision (the flow is "admitted briefly" for its first packets, exactly
as the paper describes in Section 4.2).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.classification.features import early_packet_features
from repro.ml.naive_bayes import GaussianNaiveBayes
from repro.ml.scaling import StandardScaler
from repro.traffic.flows import APP_CLASSES
from repro.traffic.generators import generator_for_class
from repro.traffic.packets import Packet

__all__ = ["FlowClassifier"]


class FlowClassifier:
    """Gaussian naive Bayes flow classifier on early-packet statistics."""

    def __init__(self, n_packets: int = 50) -> None:
        self.n_packets = int(n_packets)
        self._scaler: Optional[StandardScaler] = None
        self._model: Optional[GaussianNaiveBayes] = None

    @property
    def is_trained(self) -> bool:
        return self._model is not None

    def fit(self, traces: Sequence[Sequence[Packet]], labels: Sequence[str]) -> "FlowClassifier":
        """Train on labelled packet traces (one trace per flow)."""
        if len(traces) != len(labels):
            raise ValueError("traces and labels have mismatched lengths")
        unknown = set(labels) - set(APP_CLASSES)
        if unknown:
            raise ValueError(f"unknown app classes: {sorted(unknown)}")
        X = np.vstack(
            [early_packet_features(trace, self.n_packets) for trace in traces]
        )
        self._scaler = StandardScaler().fit(X)
        self._model = GaussianNaiveBayes().fit(
            self._scaler.transform(X), np.asarray(labels)
        )
        return self

    @classmethod
    def train_synthetic(
        cls,
        rng: np.random.Generator,
        flows_per_class: int = 30,
        trace_duration_s: float = 20.0,
        n_packets: int = 50,
    ) -> "FlowClassifier":
        """Train on freshly generated synthetic traces of every class."""
        traces: List[Sequence[Packet]] = []
        labels: List[str] = []
        for app_class in APP_CLASSES:
            generator = generator_for_class(app_class)
            for _ in range(flows_per_class):
                trace = generator.generate(trace_duration_s, rng)
                if len(trace) < 2:
                    continue
                traces.append(list(trace))
                labels.append(app_class)
        return cls(n_packets=n_packets).fit(traces, labels)

    def classify(self, packets: Sequence[Packet]) -> str:
        """Application class of a flow from its first packets."""
        if self._model is None or self._scaler is None:
            raise RuntimeError("classifier must be trained first")
        x = early_packet_features(packets, self.n_packets)[None, :]
        return str(self._model.predict(self._scaler.transform(x))[0])

    def accuracy(self, traces: Sequence[Sequence[Packet]], labels: Sequence[str]) -> float:
        """Classification accuracy over labelled traces."""
        correct = sum(
            1 for trace, label in zip(traces, labels) if self.classify(trace) == label
        )
        return correct / len(labels) if labels else 0.0
