"""Multi-cell network selection (paper Section 4.1).

When WiFi and LTE (or several APs) cover a client, ExBox learns one
Admittance Classifier per cell and, for a new flow that is admissible in
more than one, selects the network where the admission lands deepest
inside the capacity region — i.e. farthest from the separating
hyperplane, read straight off the SVM margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.admittance import AdmittanceClassifier
from repro.core.excr import TrafficMatrix, encode_event
from repro.traffic.arrival import FlowEvent

__all__ = ["NetworkSelector", "SelectionResult"]


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a selection query."""

    network: Optional[str]  # None = no network can take the flow
    margins: Dict[str, float]
    admissible: Dict[str, bool]


class NetworkSelector:
    """Chooses among cells with independently learned ExCRs."""

    def __init__(self) -> None:
        self._cells: Dict[str, AdmittanceClassifier] = {}
        self._matrices: Dict[str, TrafficMatrix] = {}

    def add_cell(
        self,
        name: str,
        classifier: AdmittanceClassifier,
        matrix: Optional[TrafficMatrix] = None,
        n_levels: int = 1,
    ) -> None:
        if name in self._cells:
            raise ValueError(f"cell {name!r} already registered")
        self._cells[name] = classifier
        self._matrices[name] = matrix or TrafficMatrix.empty(n_levels)

    def update_matrix(self, name: str, matrix: TrafficMatrix) -> None:
        if name not in self._cells:
            raise KeyError(f"unknown cell {name!r}")
        self._matrices[name] = matrix

    def matrix_of(self, name: str) -> TrafficMatrix:
        return self._matrices[name]

    @property
    def cells(self) -> Dict[str, AdmittanceClassifier]:
        return dict(self._cells)

    def select(self, app_class_index: int, snr_level: int = 0) -> SelectionResult:
        """Pick the best cell for an arriving flow.

        An online cell is admissible when its classifier's own guard rule
        (:meth:`AdmittanceClassifier.admits`) accepts the margin. Cells
        whose classifier is still bootstrapping are treated as admissible
        with margin 0 (they admit everything by definition of the
        bootstrap phase).
        """
        if not self._cells:
            raise RuntimeError("no cells registered")
        margins: Dict[str, float] = {}
        admissible: Dict[str, bool] = {}
        for name, classifier in self._cells.items():
            matrix = self._matrices[name]
            event = FlowEvent(
                matrix_before=matrix.counts,
                app_class_index=app_class_index,
                snr_level=snr_level,
            )
            x = encode_event(event)
            if classifier.is_online:
                margin = classifier.margin(x)
                margins[name] = margin
                admissible[name] = classifier.admits(margin)
            else:
                margins[name] = 0.0
                admissible[name] = True

        viable = [name for name, ok in admissible.items() if ok]
        if not viable:
            return SelectionResult(network=None, margins=margins, admissible=admissible)
        best = max(viable, key=lambda name: margins[name])
        return SelectionResult(network=best, margins=margins, admissible=admissible)

    def commit(self, name: str, app_class_index: int, snr_level: int = 0) -> None:
        """Record that the flow was placed on ``name``."""
        self._matrices[name] = self._matrices[name].with_arrival(
            app_class_index, snr_level
        )

    def release(self, name: str, app_class_index: int, snr_level: int = 0) -> None:
        """Record a departure from ``name``."""
        self._matrices[name] = self._matrices[name].with_departure(
            app_class_index, snr_level
        )
