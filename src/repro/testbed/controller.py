"""Client controller: drives traffic matrices on a testbed.

Models the central controller of Figure 6c: it takes a traffic matrix
``(#web, #streaming, #conferencing)``, launches the corresponding apps on
a random subset of idle UEs (over adb, in the real testbed), waits for
the run, and collects each app's ground-truth QoE log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.traffic.flows import APP_CLASSES
from repro.wireless.qos import FlowQoS

__all__ = ["ClientController", "FlowRecord", "MatrixRun"]


@dataclass(frozen=True)
class FlowRecord:
    """Everything measured about one flow during a matrix run.

    ``background`` marks flows demoted to the low-priority access
    category (Section 4.2): they are measured but carry no QoE promise,
    so they never contribute to the network-wide label.
    """

    flow_id: int
    app_class: str
    snr_db: float
    snr_level: int
    qos: FlowQoS
    qoe: float
    acceptable: bool
    background: bool = False


class MatrixRun:
    """Result of running one traffic matrix on a testbed.

    Each flow's acceptability, class, SNR level and background flag are
    kept as tuples in flow order: the label, the matrix counts and the
    acceptable count read only these. A run measured by a testbed builds
    its records (:class:`FlowRecord`: noisy QoS and QoE) when
    :attr:`records` is first read. Equality, hashing and ``repr`` go
    through the records, so such a run equals one built from the same
    records.
    """

    __slots__ = (
        "acceptable", "app_classes", "snr_levels", "background", "_records", "_build"
    )

    def __init__(self, records: Tuple[FlowRecord, ...]) -> None:
        records = tuple(records)
        self._records: Optional[Tuple[FlowRecord, ...]] = records
        self._build: Optional[Callable[[], Tuple[FlowRecord, ...]]] = None
        self.acceptable = tuple(r.acceptable for r in records)
        self.app_classes = tuple(r.app_class for r in records)
        self.snr_levels = tuple(r.snr_level for r in records)
        self.background = tuple(r.background for r in records)

    @classmethod
    def measured(
        cls,
        acceptable: Tuple[bool, ...],
        app_classes: Tuple[str, ...],
        snr_levels: Tuple[int, ...],
        background: Tuple[bool, ...],
        build: Callable[[], Tuple[FlowRecord, ...]],
    ) -> "MatrixRun":
        """A run whose records ``build()`` makes on first read; the
        per-flow tuples must be those of the records it returns."""
        run = cls.__new__(cls)
        run._records = None
        run._build = build
        run.acceptable = acceptable
        run.app_classes = app_classes
        run.snr_levels = snr_levels
        run.background = background
        return run

    @property
    def records(self) -> Tuple[FlowRecord, ...]:
        if self._records is None:
            assert self._build is not None
            self._records = self._build()
            self._build = None
        return self._records

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatrixRun):
            return NotImplemented
        return self.records == other.records

    def __hash__(self) -> int:
        return hash(self.records)

    def __repr__(self) -> str:
        return f"MatrixRun(records={self.records!r})"

    @property
    def network_acceptable(self) -> bool:
        """The paper's ground-truth label: every admitted (non-background)
        flow's QoE acceptable."""
        return all(ok for ok, bg in zip(self.acceptable, self.background) if not bg)

    @property
    def label(self) -> int:
        return 1 if self.network_acceptable else -1

    def counts(self, n_levels: int) -> Tuple[int, ...]:
        """The class-major flattened traffic matrix the admitted flows
        form (background flows sit outside the managed matrix)."""
        counts = [0] * (len(APP_CLASSES) * n_levels)
        for app_class, level, bg in zip(self.app_classes, self.snr_levels, self.background):
            if not bg:
                counts[APP_CLASSES.index(app_class) * n_levels + level] += 1
        return tuple(counts)

    def records_for_class(self, app_class: str) -> Tuple[FlowRecord, ...]:
        return tuple(r for r in self.records if r.app_class == app_class)

    def median_qoe(self, app_class: str) -> Optional[float]:
        values = [r.qoe for r in self.records_for_class(app_class)]
        if not values:
            return None
        return float(np.median(values))


class ClientController:
    """Schedules apps on testbed devices and measures matrix runs."""

    def __init__(self, testbed: Any, rng: Optional[np.random.Generator] = None) -> None:
        self.testbed = testbed
        self.rng = rng or np.random.default_rng(0)

    def _specs_for_matrix(
        self,
        matrix: Sequence[int],
        snr_db_per_flow: Optional[Sequence[float]] = None,
    ) -> List[Tuple[str, float]]:
        """Expand a (#web, #streaming, #conferencing) matrix to flow specs.

        Devices are chosen uniformly at random among the idle ones, as
        the real controller does; each flow inherits its device's SNR
        unless ``snr_db_per_flow`` overrides placement.
        """
        if len(matrix) != len(APP_CLASSES):
            raise ValueError(
                f"matrix must have {len(APP_CLASSES)} entries, got {len(matrix)}"
            )
        total = int(sum(matrix))
        if total > self.testbed.max_clients:
            raise ValueError(
                f"matrix needs {total} devices, testbed has "
                f"{self.testbed.max_clients}"
            )
        device_ids = self.rng.permutation(len(self.testbed.devices))[:total]
        specs = []
        flow_idx = 0
        for cls_idx, count in enumerate(matrix):
            for _ in range(int(count)):
                device = self.testbed.devices[device_ids[flow_idx]]
                if snr_db_per_flow is not None:
                    snr = float(snr_db_per_flow[flow_idx])
                else:
                    snr = device.snr_db
                specs.append((APP_CLASSES[cls_idx], snr))
                flow_idx += 1
        return specs

    def run_traffic_matrix(
        self,
        matrix: Sequence[int],
        snr_db_per_flow: Optional[Sequence[float]] = None,
    ) -> MatrixRun:
        """Run one matrix and collect the QoE ground truth."""
        specs = self._specs_for_matrix(matrix, snr_db_per_flow)
        return self.testbed.run_flows(specs, rng=self.rng)

    def ping_rtt_s(self) -> float:
        """RTT probe to a UE, as the controller logs periodically."""
        # An idle network: the base path latency, shaped.
        base = getattr(self.testbed, "base_delay_s", 0.035)
        jitter = float(self.rng.uniform(-0.005, 0.005))
        return max(base + self.testbed.shaper.delay_s + jitter, 1e-4)
