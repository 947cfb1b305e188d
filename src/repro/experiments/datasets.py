"""Ground-truth (X_m, Y_m) dataset generation.

Turns a chronological sequence of traffic matrices (Random or LiveLab
scheme) into the labelled flow-arrival samples the paper's evaluation
feeds to the Admittance Classifier and the baselines:

- each traffic matrix is run on an emulated testbed (or the fluid
  simulation cell) and one of its flows is designated the newly arrived
  one, giving ``X_m`` = (matrix before, class, SNR level);
- the label ``Y_m`` is +1 iff every flow's QoE in the resulting network
  state is acceptable — measured from ground-truth app QoE (testbeds) or
  estimated through the IQX models (simulation), matching the paper's
  two methodologies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.excr import encode_event
from repro.core.qoe_estimator import QoEEstimator
from repro.testbed.base import EmulatedTestbed, measure_flows
from repro.testbed.controller import MatrixRun
from repro.traffic.arrival import FlowEvent
from repro.traffic.flows import APP_CLASSES
from repro.wireless.channel import SnrBinner

__all__ = ["LabeledSample", "build_testbed_dataset", "build_simulation_dataset"]


@dataclass(frozen=True)
class LabeledSample:
    """One (X_m, Y_m) tuple plus its run for per-class bookkeeping."""

    event: FlowEvent
    x: np.ndarray
    y: int
    run: MatrixRun

    @property
    def app_class(self) -> str:
        return APP_CLASSES[self.event.app_class_index]


def _expand_matrix_to_specs(
    matrix: Sequence[int],
    binner: SnrBinner,
    rng: np.random.Generator,
    mixed_snr: bool,
    low_fraction: float,
) -> List[Tuple[str, float]]:
    """Assign an SNR position to every flow of a matrix."""
    specs: List[Tuple[str, float]] = []
    for cls_idx, count in enumerate(matrix):
        for _ in range(int(count)):
            if mixed_snr and binner.n_levels > 1:
                level = (
                    0 if rng.random() < low_fraction else binner.n_levels - 1
                )
            else:
                level = binner.n_levels - 1
            specs.append((APP_CLASSES[cls_idx], binner.representative(level)))
    return specs


def _sample_from_run(
    run: MatrixRun,
    binner: SnrBinner,
    rng: np.random.Generator,
    label: int,
) -> Optional[LabeledSample]:
    """Designate a random flow of the run as the new arrival."""
    if not run.acceptable:
        return None
    flow = int(rng.integers(len(run.acceptable)))
    level = run.snr_levels[flow]
    counts = list(run.counts(binner.n_levels))
    cls_idx = APP_CLASSES.index(run.app_classes[flow])
    counts[cls_idx * binner.n_levels + level] -= 1
    event = FlowEvent(
        matrix_before=tuple(counts),
        app_class_index=cls_idx,
        snr_level=level,
    )
    return LabeledSample(event=event, x=encode_event(event), y=label, run=run)


def build_testbed_dataset(
    testbed: EmulatedTestbed,
    matrices: Sequence[Sequence[int]],
    rng: np.random.Generator,
    estimator: Optional[QoEEstimator] = None,
    mixed_snr: bool = False,
    low_snr_fraction: float = 0.5,
) -> List[LabeledSample]:
    """Run every matrix on an emulated testbed and label the samples.

    With ``estimator`` the label comes from network-side IQX estimates;
    without it, from the instrumented apps' ground-truth QoE (the
    testbed methodology of Section 5).
    """
    binner = testbed.binner
    samples: List[LabeledSample] = []
    for matrix in matrices:
        specs = _expand_matrix_to_specs(
            matrix, binner, rng, mixed_snr, low_snr_fraction
        )
        if not specs:
            continue
        run = testbed.run_flows(specs, rng=rng)
        if estimator is not None:
            label = estimator.label_matrix_run(run)
        else:
            label = run.label
        sample = _sample_from_run(run, binner, rng, label)
        if sample is not None:
            samples.append(sample)
    return samples


def build_simulation_dataset(
    cell: Any,
    matrices: Sequence[Sequence[int]],
    rng: np.random.Generator,
    estimator: QoEEstimator,
    binner: Optional[SnrBinner] = None,
    mixed_snr: bool = False,
    low_snr_fraction: float = 0.5,
    qos_noise: float = 0.03,
) -> List[LabeledSample]:
    """ns-3-equivalent dataset: fluid cell + IQX labels (Section 6).

    ``cell`` is a fluid WiFi/LTE cell; unlike the testbed path there is
    no client-count bound and labels always come through the IQX models,
    exactly as the paper's simulations compute ``Y_m``.
    """
    binner = binner or SnrBinner.single_level()
    samples: List[LabeledSample] = []
    for matrix in matrices:
        specs = _expand_matrix_to_specs(
            matrix, binner, rng, mixed_snr, low_snr_fraction
        )
        if not specs:
            continue
        run = measure_flows(specs, cell.allocate, binner, rng, qos_noise)
        label = estimator.label_matrix_run(run)
        sample = _sample_from_run(run, binner, rng, label)
        if sample is not None:
            samples.append(sample)
    return samples
