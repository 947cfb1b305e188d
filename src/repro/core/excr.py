"""Traffic matrices and the Experiential Capacity Region (Section 2.1).

A traffic matrix ``<a_{1,1} ... a_{k,r}>`` counts the active flows of
application class ``i`` whose link SNR falls in level ``j``. The ExCR is
the set of matrices for which the network can satisfy every flow's QoE
simultaneously; ExBox never materializes this discrete set but learns its
boundary with an SVM, so :class:`ExperientialCapacityRegion` wraps a
trained classifier and answers membership/depth queries.

Feature encoding (matching Sections 6.3/6.4 of the paper): the SVM input
for a flow arrival is the flattened traffic matrix *after* admitting the
flow, followed by the arriving flow's class index, and — when more than
one SNR level is configured — its SNR level index. With ``k`` classes and
``r = 1`` this gives the paper's ``<a_web, a_streaming, a_conf, j>``
vectors; with ``r = 2`` the 8-dimensional mixed-SNR vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, Tuple

import numpy as np

from repro.traffic.arrival import FlowEvent
from repro.traffic.flows import APP_CLASSES

__all__ = [
    "AdmissionBoundary",
    "ExperientialCapacityRegion",
    "TrafficMatrix",
    "encode_event",
]


class AdmissionBoundary(Protocol):
    """What :class:`ExperientialCapacityRegion` needs from a classifier."""

    def classify(self, x: np.ndarray) -> int: ...

    def margin(self, x: np.ndarray) -> float: ...


@dataclass(frozen=True)
class TrafficMatrix:
    """Immutable ``<a_{1,1} ... a_{k,r}>`` vector (class-major layout)."""

    counts: Tuple[int, ...]
    n_levels: int = 1

    def __post_init__(self) -> None:
        if self.n_levels < 1:
            raise ValueError("need at least one SNR level")
        if len(self.counts) != len(APP_CLASSES) * self.n_levels:
            raise ValueError(
                f"expected {len(APP_CLASSES) * self.n_levels} counts, "
                f"got {len(self.counts)}"
            )
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be non-negative")

    @classmethod
    def empty(cls, n_levels: int = 1) -> "TrafficMatrix":
        return cls(counts=(0,) * (len(APP_CLASSES) * n_levels), n_levels=n_levels)

    @classmethod
    def from_class_counts(cls, per_class: Sequence[int]) -> "TrafficMatrix":
        """Single-SNR-level matrix from (#web, #streaming, #conferencing)."""
        return cls(counts=tuple(int(c) for c in per_class), n_levels=1)

    def slot(self, app_class_index: int, snr_level: int) -> int:
        if not 0 <= app_class_index < len(APP_CLASSES):
            raise ValueError(f"bad class index {app_class_index}")
        if not 0 <= snr_level < self.n_levels:
            raise ValueError(f"bad SNR level {snr_level}")
        return app_class_index * self.n_levels + snr_level

    def count(self, app_class_index: int, snr_level: int = 0) -> int:
        return self.counts[self.slot(app_class_index, snr_level)]

    def with_arrival(self, app_class_index: int, snr_level: int = 0) -> "TrafficMatrix":
        counts = list(self.counts)
        counts[self.slot(app_class_index, snr_level)] += 1
        return TrafficMatrix(counts=tuple(counts), n_levels=self.n_levels)

    def with_departure(self, app_class_index: int, snr_level: int = 0) -> "TrafficMatrix":
        idx = self.slot(app_class_index, snr_level)
        if self.counts[idx] == 0:
            raise ValueError("no flow to depart in that slot")
        counts = list(self.counts)
        counts[idx] -= 1
        return TrafficMatrix(counts=tuple(counts), n_levels=self.n_levels)

    @property
    def total_flows(self) -> int:
        return sum(self.counts)

    def per_class_totals(self) -> Tuple[int, ...]:
        return tuple(
            sum(
                self.counts[i * self.n_levels + j]
                for j in range(self.n_levels)
            )
            for i in range(len(APP_CLASSES))
        )


def encode_event(event: FlowEvent) -> np.ndarray:
    """SVM feature vector ``X_m`` for a flow-arrival event.

    Layout: flattened post-admission matrix, then the arriving class
    index, then (only when ``r > 1``) its SNR level.
    """
    n_levels = len(event.matrix_before) // len(APP_CLASSES)
    features = list(event.matrix_after)
    features.append(event.app_class_index)
    if n_levels > 1:
        features.append(event.snr_level)
    return np.asarray(features, dtype=float)


class ExperientialCapacityRegion:
    """Membership/depth queries against a learned ExCR boundary.

    Wraps any object exposing ``classify(x)`` and ``margin(x)``
    over the :func:`encode_event` feature space (in practice, the trained
    Admittance Classifier).
    """

    def __init__(self, classifier: AdmissionBoundary, n_levels: int = 1) -> None:
        self._classifier = classifier
        self.n_levels = int(n_levels)

    def _encode(
        self, matrix: TrafficMatrix, app_class_index: int, snr_level: int
    ) -> np.ndarray:
        if matrix.n_levels != self.n_levels:
            raise ValueError("matrix level count does not match the region")
        event = FlowEvent(
            matrix_before=matrix.counts,
            app_class_index=app_class_index,
            snr_level=snr_level,
        )
        return encode_event(event)

    def admits(
        self, matrix: TrafficMatrix, app_class_index: int, snr_level: int = 0
    ) -> bool:
        """Would adding this flow keep the network inside the region?"""
        x = self._encode(matrix, app_class_index, snr_level)
        return self._classifier.classify(x) > 0

    def depth(
        self, matrix: TrafficMatrix, app_class_index: int, snr_level: int = 0
    ) -> float:
        """SVM margin: how far *inside* the region the admission lands.

        Positive = inside; used for network selection (Section 4.1).
        """
        x = self._encode(matrix, app_class_index, snr_level)
        return float(self._classifier.margin(x))

    def estimate_volume(
        self,
        rng: np.random.Generator,
        max_per_slot: int = 10,
        n_samples: int = 2000,
        app_class_index: int = 0,
        snr_level: int = 0,
    ) -> float:
        """Monte-Carlo fraction of the count box that is admissible.

        Samples traffic matrices uniformly from ``[0, max_per_slot]^kr``
        and asks whether one more ``app_class_index`` flow at
        ``snr_level`` would be admitted. The result is a scalar
        "experiential capacity" usable to compare cells or to watch a
        region shrink after a throttle; it is only meaningful within the
        sampled box (the classifier extrapolates arbitrarily outside its
        training envelope).
        """
        if n_samples < 1:
            raise ValueError("need at least one sample")
        n_slots = len(APP_CLASSES) * self.n_levels
        admitted = 0
        for _ in range(n_samples):
            counts = tuple(int(v) for v in rng.integers(0, max_per_slot + 1, n_slots))
            matrix = TrafficMatrix(counts=counts, n_levels=self.n_levels)
            if self.admits(matrix, app_class_index, snr_level):
                admitted += 1
        return admitted / n_samples

    def boundary_profile(
        self,
        app_class_index: int,
        max_count: int = 50,
        snr_level: int = 0,
    ) -> int:
        """Largest admissible count of one class with the rest empty.

        A coarse introspection helper for reports: counts up from an
        empty matrix until the classifier first says no.
        """
        matrix = TrafficMatrix.empty(self.n_levels)
        admitted = 0
        for _ in range(max_count):
            if not self.admits(matrix, app_class_index, snr_level):
                break
            matrix = matrix.with_arrival(app_class_index, snr_level)
            admitted += 1
        return admitted
