"""The ExBox middlebox facade (paper Figure 5).

Ties the components into the deployment story: a gateway-collocated
middlebox that classifies each arriving flow, encodes it against the
cell's current traffic matrix, asks the Admittance Classifier, executes
the admittance policy, and keeps learning from the observed network-wide
QoE labels (bootstrap first, then batched online updates).

Typical wiring::

    exbox = ExBox.with_defaults(batch_size=20)
    exbox.train_qoe_estimator(rng=rng)          # Figure 12 sweep
    decision = exbox.handle_arrival(request)    # assess, then commit
    ...                                         # network runs
    exbox.report_outcome(decision, matrix_run)  # learn from truth
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.classification.classifier import FlowClassifier
from repro.core.admittance import AdmittanceClassifier, Phase
from repro.core.dynamics import FlowRevalidator, RevalidationResult
from repro.core.excr import ExperientialCapacityRegion, TrafficMatrix, encode_event
from repro.core.policies import AdmittancePolicy, PolicyAction, PolicyOutcome
from repro.core.qoe_estimator import QoEEstimator
from repro.obs.facade import NULL_OBS, Obs
from repro.testbed.controller import MatrixRun
from repro.traffic.arrival import FlowEvent
from repro.traffic.flows import APP_CLASSES, Flow, FlowRequest
from repro.traffic.packets import Packet
from repro.wireless.channel import SnrBinner

__all__ = ["AdmissionDecision", "ExBox"]


@dataclass
class AdmissionDecision:
    """Everything about one arrival's handling, for learning and audit."""

    request: FlowRequest
    app_class: str
    snr_level: int
    event: FlowEvent
    admitted: bool
    phase: Phase
    margin: Optional[float] = None
    flow: Optional[Flow] = None
    policy_outcome: Optional[PolicyOutcome] = None
    learned: bool = False


class ExBox:
    """Experience middlebox for one wireless cell."""

    def __init__(
        self,
        admittance: AdmittanceClassifier,
        qoe_estimator: Optional[QoEEstimator] = None,
        binner: Optional[SnrBinner] = None,
        policy: Optional[AdmittancePolicy] = None,
        flow_classifier: Optional[FlowClassifier] = None,
        obs: Optional[Obs] = None,
    ) -> None:
        self.admittance = admittance
        self.qoe_estimator = qoe_estimator or QoEEstimator()
        self.binner = binner or SnrBinner.single_level()
        self.policy = policy or AdmittancePolicy()
        self.flow_classifier = flow_classifier
        self.obs = obs if obs is not None else NULL_OBS
        if self.obs.enabled:
            self.admittance.instrument(self.obs)
        self.revalidator = FlowRevalidator(self.admittance, self.policy, obs=self.obs)
        self._matrix = TrafficMatrix.empty(self.binner.n_levels)
        self._active: Dict[int, Flow] = {}
        self._levels: Dict[int, int] = {}
        self._background: Dict[int, Flow] = {}

    @classmethod
    def with_defaults(
        cls,
        batch_size: int = 20,
        n_snr_levels: int = 1,
        obs: Optional[Obs] = None,
        **kwargs: Any,
    ) -> "ExBox":
        """A ready-to-use instance with paper-default components."""
        binner = (
            SnrBinner.single_level()
            if n_snr_levels == 1
            else SnrBinner.two_level()
            if n_snr_levels == 2
            else SnrBinner(boundaries_db=tuple(np.linspace(20, 50, n_snr_levels - 1)))
        )
        return cls(
            admittance=AdmittanceClassifier(batch_size=batch_size, obs=obs, **kwargs),
            binner=binner,
            obs=obs,
        )

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def current_matrix(self) -> TrafficMatrix:
        return self._matrix

    @property
    def active_flows(self) -> List[Flow]:
        return list(self._active.values())

    @property
    def background_flows(self) -> List[Flow]:
        """Flows demoted to the low-priority access category (Section
        4.2): carried best-effort, outside the managed traffic matrix."""
        return list(self._background.values())

    @property
    def phase(self) -> Phase:
        return self.admittance.phase

    @property
    def excr(self) -> ExperientialCapacityRegion:
        """The learned capacity region (valid once online)."""
        return ExperientialCapacityRegion(
            self.admittance, n_levels=self.binner.n_levels
        )

    # ------------------------------------------------------------------
    # QoE model training (Figure 5 left side)
    # ------------------------------------------------------------------
    def train_qoe_estimator(
        self, rng: Optional[np.random.Generator] = None, **kwargs: Any
    ) -> None:
        """Run the training-device sweep and fit per-class IQX models."""
        self.qoe_estimator.train_from_device(rng=rng, **kwargs)

    # ------------------------------------------------------------------
    # Arrival handling (Figure 4)
    # ------------------------------------------------------------------
    def _resolve_class(
        self, request: FlowRequest, packets: Optional[Sequence[Packet]]
    ) -> str:
        if request.app_class is not None:
            return request.app_class
        if self.flow_classifier is None:
            raise ValueError(
                "request has no app_class and no flow classifier is configured"
            )
        if packets is None:
            raise ValueError("early packets are required to classify the flow")
        return self.flow_classifier.classify(packets)

    def assess(
        self,
        request: FlowRequest,
        packets: Optional[Sequence[Packet]] = None,
    ) -> AdmissionDecision:
        """Decide on one arriving flow without changing any state.

        During bootstrap every flow is admitted (ExBox only observes);
        online, one SVM margin read against the learned ExCR decides,
        through the classifier's guard rule. :meth:`commit` applies the
        result.
        """
        app_class = self._resolve_class(request, packets)
        level = self.binner.level_index(request.snr_db)
        event = FlowEvent(
            matrix_before=self._matrix.counts,
            app_class_index=APP_CLASSES.index(app_class),
            snr_level=level,
        )
        decision = AdmissionDecision(
            request=request,
            app_class=app_class,
            snr_level=level,
            event=event,
            admitted=True,
            phase=self.phase,
        )
        if self.admittance.is_online:
            with self.obs.span("exbox.decide"):
                decision.margin = margin = self.admittance.margin(encode_event(event))
                decision.admitted = self.admittance.admits(margin)
        return decision

    def commit(self, decision: AdmissionDecision) -> AdmissionDecision:
        """Apply an :meth:`assess` result: an admitted flow joins the
        matrix, a rejected one goes to the policy.

        Instrumented, this writes the decision's one ``admission_decision``
        event: the matrix the classifier saw, class, SNR level, phase,
        verdict, and margin (None in bootstrap).
        """
        request, app_class, level = decision.request, decision.app_class, decision.snr_level
        flow = Flow(app_class=app_class, snr_db=request.snr_db, client_id=request.client_id)
        if decision.admitted:
            self._active[flow.flow_id] = flow
            self._levels[flow.flow_id] = level
            self._matrix = self._matrix.with_arrival(
                decision.event.app_class_index, level
            )
            decision.flow = flow
            self.obs.counter("exbox.decisions.admitted").inc()
        else:
            decision.policy_outcome = self.policy.reject(flow)
            if decision.policy_outcome.action is PolicyAction.LOW_PRIORITY:
                self._background[flow.flow_id] = flow
                self.obs.counter("exbox.decisions.demoted").inc()
            self.obs.counter("exbox.decisions.rejected").inc()
        self._update_occupancy_gauges()
        if self.obs.enabled:
            self.obs.emit(
                "admission_decision",
                app_class=app_class,
                snr_level=level,
                phase=decision.phase.value,
                admitted=decision.admitted,
                margin=decision.margin,
                matrix=list(decision.event.matrix_before),
            )
        return decision

    def handle_arrival(
        self,
        request: FlowRequest,
        packets: Optional[Sequence[Packet]] = None,
    ) -> AdmissionDecision:
        """Decide on one arriving flow and apply the decision.

        The caller must feed the observed outcome back via
        :meth:`report_outcome` for learning to happen.
        """
        with self.obs.span("exbox.handle_arrival"):
            return self.commit(self.assess(request, packets))

    def _update_occupancy_gauges(self) -> None:
        self.obs.gauge("exbox.flows.active").set(len(self._active))
        self.obs.gauge("exbox.flows.background").set(len(self._background))
        self.obs.gauge("exbox.matrix.occupancy").set(self._matrix.total_flows)

    def handle_departure(self, flow: Flow) -> None:
        """An active or demoted flow finished; update bookkeeping."""
        if flow.flow_id in self._background:
            del self._background[flow.flow_id]
            self.obs.counter("exbox.departures.background").inc()
            self._update_occupancy_gauges()
            return
        if flow.flow_id not in self._active:
            raise KeyError(f"flow {flow.flow_id} is not active")
        level = self._levels.pop(flow.flow_id)
        del self._active[flow.flow_id]
        self._matrix = self._matrix.with_departure(
            APP_CLASSES.index(flow.app_class), level
        )
        self.obs.counter("exbox.departures.active").inc()
        self._update_occupancy_gauges()

    # ------------------------------------------------------------------
    # Learning feedback
    # ------------------------------------------------------------------
    def report_outcome(self, decision: AdmissionDecision, run: MatrixRun) -> int:
        """Feed the observed network state back into the classifier.

        ``run`` is the network measurement with the new flow active (or,
        for a rejected flow, a counterfactual/shadow measurement). The
        label is computed network-side via the IQX models. Returns the
        label used.
        """
        with self.obs.span("exbox.report_outcome"):
            label = self.qoe_estimator.label_matrix_run(run)
            x = encode_event(decision.event)
            if self.admittance.phase is Phase.BOOTSTRAP:
                self.admittance.observe_bootstrap(x, label)
            else:
                self.admittance.observe_online(x, label)
            decision.learned = True
        self.obs.counter(
            "exbox.outcomes.positive" if label > 0 else "exbox.outcomes.negative"
        ).inc()
        return label

    # ------------------------------------------------------------------
    # Dynamics (Section 4.3)
    # ------------------------------------------------------------------
    def update_flow_snr(self, flow: Flow, snr_db: float) -> None:
        """A device moved; update the flow's SNR level and the matrix."""
        if flow.flow_id not in self._active:
            raise KeyError(f"flow {flow.flow_id} is not active")
        old_level = self._levels[flow.flow_id]
        new_level = self.binner.level_index(snr_db)
        if new_level == old_level:
            return
        cls_idx = APP_CLASSES.index(flow.app_class)
        self._matrix = self._matrix.with_departure(cls_idx, old_level).with_arrival(
            cls_idx, new_level
        )
        self._levels[flow.flow_id] = new_level
        flow.snr_db = snr_db

    def poll_network(self, only_changed: bool = False) -> RevalidationResult:
        """Periodic re-evaluation of admitted flows; revoked flows leave
        the managed matrix via the policy (a LOW_PRIORITY revoke demotes
        the flow to the background access category instead of ending it)."""
        with self.obs.span("exbox.poll_network"):
            pairs = [
                (flow, self._levels[flow.flow_id]) for flow in self._active.values()
            ]
            result = self.revalidator.poll(
                pairs, n_levels=self.binner.n_levels, only_changed=only_changed
            )
            for flow in result.revoked:
                self.handle_departure(flow)
                if self.policy.on_revoke is PolicyAction.LOW_PRIORITY:
                    self._background[flow.flow_id] = flow
        self.obs.counter("exbox.revalidation.polls").inc()
        self.obs.counter("exbox.revalidation.checked").inc(result.checked)
        if result.revoked:
            self.obs.counter("exbox.revalidation.revoked").inc(len(result.revoked))
            self._update_occupancy_gauges()
            if self.obs.enabled:
                self.obs.emit(
                    "revalidation_revoked",
                    flows=[flow.flow_id for flow in result.revoked],
                    demoted=self.policy.on_revoke is PolicyAction.LOW_PRIORITY,
                    checked=result.checked,
                )
        return result
