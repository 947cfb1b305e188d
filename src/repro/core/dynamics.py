"""Re-evaluating admitted flows (paper Section 4.3).

An admitted flow's situation can change: the app adapts its rate, the
user walks away from the AP, a slow station starts dragging down a
contention-based cell. ExBox periodically polls the network; when a
flow's characteristics or any device's SNR level changed drastically, it
rebuilds the flow's ``X_m`` against the *current* traffic matrix and asks
the Admittance Classifier again. Flows that now classify as -1 are
revoked through the admittance policy (offloaded or discontinued).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.admittance import AdmittanceClassifier
from repro.core.excr import TrafficMatrix, encode_event
from repro.core.policies import AdmittancePolicy, PolicyOutcome
from repro.obs.facade import NULL_OBS, Obs
from repro.traffic.arrival import FlowEvent
from repro.traffic.flows import APP_CLASSES, Flow

__all__ = ["FlowRevalidator", "RevalidationResult"]


@dataclass(frozen=True)
class RevalidationResult:
    """Outcome of one polling round."""

    checked: int
    revoked: Tuple[Flow, ...]
    outcomes: Tuple[PolicyOutcome, ...]


class FlowRevalidator:
    """Periodic admission re-check over the currently active flows."""

    def __init__(
        self,
        classifier: AdmittanceClassifier,
        policy: AdmittancePolicy,
        snr_change_threshold: int = 1,
        obs: Optional[Obs] = None,
    ) -> None:
        self.classifier = classifier
        self.policy = policy
        self.snr_change_threshold = int(snr_change_threshold)
        self.obs = obs if obs is not None else NULL_OBS
        self._last_levels: Dict[int, int] = {}

    @staticmethod
    def matrix_from_flows(flows: Sequence[Tuple[Flow, int]], n_levels: int) -> TrafficMatrix:
        """Current traffic matrix from (flow, snr_level) pairs."""
        matrix = TrafficMatrix.empty(n_levels)
        for flow, level in flows:
            matrix = matrix.with_arrival(APP_CLASSES.index(flow.app_class), level)
        return matrix

    def needs_recheck(self, flow_id: int, current_level: int) -> bool:
        """Has this flow's SNR level moved since the last poll?"""
        previous = self._last_levels.get(flow_id)
        self._last_levels[flow_id] = current_level
        if previous is None:
            return False
        return abs(current_level - previous) >= self.snr_change_threshold

    def poll(
        self,
        active_flows: Sequence[Tuple[Flow, int]],
        n_levels: int = 1,
        only_changed: bool = False,
    ) -> RevalidationResult:
        """Re-evaluate active flows against the current matrix.

        ``active_flows`` pairs each flow with its *current* SNR level.
        With ``only_changed`` the check is limited to flows whose SNR
        level moved since the previous poll (the paper's trigger);
        otherwise every flow is rechecked.
        """
        if not self.classifier.is_online:
            return RevalidationResult(checked=0, revoked=(), outcomes=())
        with self.obs.span("revalidator.poll"):
            matrix = self.matrix_from_flows(active_flows, n_levels)

            revoked: List[Flow] = []
            outcomes: List[PolicyOutcome] = []
            checked = 0
            for flow, level in active_flows:
                changed = self.needs_recheck(flow.flow_id, level)
                if only_changed and not changed:
                    continue
                checked += 1
                # Rebuild X_m as if this flow were arriving into the matrix
                # formed by the *other* flows.
                cls_idx = APP_CLASSES.index(flow.app_class)
                without = matrix.with_departure(cls_idx, level)
                event = FlowEvent(
                    matrix_before=without.counts,
                    app_class_index=cls_idx,
                    snr_level=level,
                )
                if self.classifier.classify(encode_event(event)) < 0:
                    revoked.append(flow)
                    outcomes.append(self.policy.revoke(flow))
            # Forget flows absent from this poll (they departed), so the
            # map never outgrows the active set.
            self._last_levels = {flow.flow_id: level for flow, level in active_flows}
        self.obs.counter("revalidator.rechecks").inc(checked)
        return RevalidationResult(
            checked=checked, revoked=tuple(revoked), outcomes=tuple(outcomes)
        )
