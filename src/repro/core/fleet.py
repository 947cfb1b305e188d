"""Scaling ExBox to multi-cell deployments (paper Sections 4.1/4.4).

An enterprise network runs many WiFi APs and LTE small cells. ExBox
sits on the WiFi controller / PDN gateway with a view of all of them and
learns one Admittance Classifier *per cell* (the classifier is only a
``kr + 1``-dimensional model, so this scales linearly), while IQX models
— which depend on the applications, not the cell — are trained once and
*shared* across cells of similar characteristics.

:class:`ExBoxFleet` bundles per-cell :class:`~repro.core.exbox.ExBox`
instances behind one arrival entry point with margin-based placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.core.admittance import AdmittanceClassifier
from repro.core.exbox import AdmissionDecision, ExBox
from repro.core.qoe_estimator import QoEEstimator
from repro.traffic.flows import Flow, FlowRequest
from repro.wireless.channel import SnrBinner

__all__ = ["ExBoxFleet", "FleetDecision"]


@dataclass
class FleetDecision:
    """Outcome of a fleet-level arrival: which cell, and its decision."""

    cell: Optional[str]
    decision: Optional[AdmissionDecision]
    margins: Dict[str, float]

    @property
    def admitted(self) -> bool:
        return self.decision is not None and self.decision.admitted


class ExBoxFleet:
    """One ExBox per cell, shared QoE models, margin-based placement."""

    def __init__(self, qoe_estimator: Optional[QoEEstimator] = None) -> None:
        # The shared estimator is the Section 4.4 model-sharing story:
        # one training effort, reused by every cell's middlebox.
        self.qoe_estimator = qoe_estimator or QoEEstimator()
        self._cells: Dict[str, ExBox] = {}
        self._flow_home: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_cell(
        self,
        name: str,
        batch_size: int = 20,
        binner: Optional[SnrBinner] = None,
        **classifier_kwargs: Any,
    ) -> ExBox:
        """Register a cell; its ExBox shares the fleet's QoE estimator."""
        if name in self._cells:
            raise ValueError(f"cell {name!r} already registered")
        exbox = ExBox(
            admittance=AdmittanceClassifier(batch_size=batch_size, **classifier_kwargs),
            qoe_estimator=self.qoe_estimator,
            binner=binner,
        )
        self._cells[name] = exbox
        return exbox

    def cell(self, name: str) -> ExBox:
        try:
            return self._cells[name]
        except KeyError:
            raise KeyError(f"unknown cell {name!r}") from None

    @property
    def cells(self) -> Tuple[str, ...]:
        return tuple(self._cells)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def handle_arrival(
        self,
        request: FlowRequest,
        candidate_cells: Optional[Tuple[str, ...]] = None,
    ) -> FleetDecision:
        """Place an arriving flow on the best candidate cell.

        ``candidate_cells`` restricts placement to the cells actually in
        radio range of the client (default: all). Each candidate assesses
        the flow once; it goes to the admitting cell whose admission
        lands deepest inside its region (bootstrapping cells admit
        everything, ranked at margin 0), and that cell commits the same
        assessment. A FleetDecision with ``cell=None`` means every
        candidate would reject it.
        """
        if request.app_class is None:
            raise ValueError("fleet placement needs a classified request")
        names = candidate_cells or self.cells
        if not names:
            raise RuntimeError("no cells registered")
        assessed = {name: self._cells[name].assess(request) for name in names}
        margins = {name: 0.0 if d.margin is None else d.margin for name, d in assessed.items()}
        viable = [name for name, d in assessed.items() if d.admitted]
        if not viable:
            return FleetDecision(cell=None, decision=None, margins=margins)
        best = max(viable, key=lambda name: margins[name])
        decision = self._cells[best].commit(assessed[best])
        self._flow_home[decision.flow.flow_id] = best
        return FleetDecision(cell=best, decision=decision, margins=margins)

    def handle_departure(self, flow: Flow) -> None:
        """A fleet-admitted flow finished."""
        home = self._flow_home.pop(flow.flow_id, None)
        if home is None:
            raise KeyError(f"flow {flow.flow_id} was not placed by this fleet")
        self._cells[home].handle_departure(flow)

    def home_of(self, flow: Flow) -> Optional[str]:
        return self._flow_home.get(flow.flow_id)

    # ------------------------------------------------------------------
    # Fleet-wide state
    # ------------------------------------------------------------------
    def total_active_flows(self) -> int:
        return sum(len(exbox.active_flows) for exbox in self._cells.values())

    def online_cells(self) -> Tuple[str, ...]:
        return tuple(
            name for name, exbox in self._cells.items() if exbox.admittance.is_online
        )
