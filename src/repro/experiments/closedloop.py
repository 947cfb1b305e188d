"""Closed-loop outcome evaluation: what users actually experience.

The paper's metrics (precision/recall/accuracy) grade admission
*decisions*. This experiment grades *outcomes*: flows arrive as a
Poisson process, the admission scheme runs in the loop, admitted flows
hold the network for exponential durations, and we measure what the
schemes actually deliver —

- **QoE-OK fraction**: share of carried flow-minutes whose QoE cleared
  the class threshold,
- **carried load**: admitted flow-minutes (a scheme can trivially win
  QoE by admitting nothing, so both axes matter),
- **violation minutes**: flow-minutes spent below threshold.

Every scheme sees the identical arrival sequence (same seed), so the
numbers are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.baselines import AdmissionScheme
from repro.experiments.datasets import build_testbed_dataset
from repro.experiments.harness import ExBoxScheme
from repro.obs.facade import NULL_OBS, Obs
from repro.testbed.base import EmulatedTestbed
from repro.traffic.arrival import FlowEvent, random_matrix_sequence
from repro.traffic.flows import APP_CLASSES

__all__ = ["ClosedLoopResult", "run_closed_loop", "compare_closed_loop"]


@dataclass
class _ActiveFlow:
    app_class_index: int
    snr_db: float
    depart_minute: float


@dataclass
class ClosedLoopResult:
    """Outcome statistics of one closed-loop run."""

    scheme: str
    duration_min: int
    admitted: int = 0
    rejected: int = 0
    carried_flow_minutes: float = 0.0
    ok_flow_minutes: float = 0.0

    @property
    def qoe_ok_fraction(self) -> float:
        if self.carried_flow_minutes == 0:
            return 1.0
        return self.ok_flow_minutes / self.carried_flow_minutes

    @property
    def violation_minutes(self) -> float:
        return self.carried_flow_minutes - self.ok_flow_minutes

    def as_row(self) -> Dict[str, float]:
        return {
            "admitted": float(self.admitted),
            "rejected": float(self.rejected),
            "carried flow-min": self.carried_flow_minutes,
            "QoE-OK fraction": self.qoe_ok_fraction,
            "violation flow-min": self.violation_minutes,
        }


def _bootstrap_exbox_scheme(
    scheme: ExBoxScheme, testbed: EmulatedTestbed, rng: np.random.Generator
) -> None:
    matrices = random_matrix_sequence(
        160, max_per_class=testbed.max_clients, rng=rng,
        max_total=testbed.max_clients,
    )
    samples = build_testbed_dataset(testbed, matrices, rng)
    scheme.bootstrap(samples)


def run_closed_loop(
    scheme: AdmissionScheme,
    testbed: EmulatedTestbed,
    seed: int,
    duration_min: int = 240,
    arrivals_per_min: float = 1.0,
    mean_hold_min: float = 6.0,
    obs: Optional[Obs] = None,
) -> ClosedLoopResult:
    """Run one scheme in the loop for ``duration_min`` simulated minutes.

    A recording ``obs`` instruments the whole episode: per-decision
    ``exbox.decisions.admitted``/``rejected`` counters, a
    ``closedloop.decide`` span per admission call, per-arrival
    ``admission_decision`` events, and — for :class:`ExBoxScheme` — the
    classifier's own ``admittance.retrain`` spans, since the handle is
    attached to it for the episode. The inert default changes nothing:
    decision outcomes and RNG streams are bit-identical either way.
    """
    if duration_min < 1 or arrivals_per_min <= 0 or mean_hold_min <= 0:
        raise ValueError("duration, arrival rate and hold time must be positive")
    obs = obs if obs is not None else NULL_OBS
    if obs.enabled and isinstance(scheme, ExBoxScheme):
        scheme.classifier.instrument(obs)
    # Separate streams so the arrival sequence is identical for every
    # scheme under the same seed: measurement noise consumption varies
    # with how many flows each scheme admitted.
    arrival_rng = np.random.default_rng(seed)
    rng = np.random.default_rng(seed + 99991)
    if isinstance(scheme, ExBoxScheme) and not scheme.is_online:
        _bootstrap_exbox_scheme(scheme, testbed, np.random.default_rng(seed + 1))

    n_levels = testbed.binner.n_levels
    result = ClosedLoopResult(scheme=scheme.name, duration_min=duration_min)
    active: List[_ActiveFlow] = []

    for minute in range(duration_min):
        active = [f for f in active if f.depart_minute > minute]

        for _ in range(int(arrival_rng.poisson(arrivals_per_min))):
            cls_idx = int(arrival_rng.integers(len(APP_CLASSES)))
            level = int(arrival_rng.integers(n_levels))
            hold = max(float(arrival_rng.exponential(mean_hold_min)), 1.0)
            snr_db = testbed.binner.representative(level)
            counts = [0] * (len(APP_CLASSES) * n_levels)
            for flow in active:
                slot = flow.app_class_index * n_levels + testbed.binner.level_index(
                    flow.snr_db
                )
                counts[slot] += 1
            event = FlowEvent(
                matrix_before=tuple(counts),
                app_class_index=cls_idx,
                snr_level=level,
            )
            with obs.span("closedloop.decide"):
                decision = scheme.decide(event)
            room = len(active) < testbed.max_clients
            if decision == 1 and room:
                result.admitted += 1
                active.append(_ActiveFlow(cls_idx, snr_db, minute + hold))
                obs.counter("exbox.decisions.admitted").inc()
            else:
                result.rejected += 1
                obs.counter("exbox.decisions.rejected").inc()
            if obs.enabled:
                obs.gauge("exbox.flows.active").set(len(active))
                obs.emit(
                    "admission_decision",
                    scheme=scheme.name,
                    minute=minute,
                    app_class=APP_CLASSES[cls_idx],
                    snr_level=level,
                    admitted=bool(decision == 1 and room),
                    active_flows=len(active),
                )
            # The scheme observes the truth of the state it decided on
            # (a shadow measurement, as ExBox's online phase requires).
            specs = [
                (APP_CLASSES[f.app_class_index], f.snr_db) for f in active
            ] or [(APP_CLASSES[cls_idx], snr_db)]
            truth = testbed.run_flows(specs[: testbed.max_clients], rng=rng).label
            scheme.observe(event, truth)

        if active:
            specs = [(APP_CLASSES[f.app_class_index], f.snr_db) for f in active]
            run = testbed.run_flows(specs[: testbed.max_clients], rng=rng)
            result.carried_flow_minutes += len(run.acceptable)
            result.ok_flow_minutes += sum(run.acceptable)
    return result


def compare_closed_loop(
    schemes: Sequence[AdmissionScheme],
    testbed_factory: Callable[[], Any],
    seed: int = 0,
    **kwargs: Any,
) -> Dict[str, ClosedLoopResult]:
    """Run several schemes against identical arrivals on fresh testbeds."""
    return {
        scheme.name: run_closed_loop(
            scheme, testbed_factory(), seed=seed, **kwargs
        )
        for scheme in schemes
    }
