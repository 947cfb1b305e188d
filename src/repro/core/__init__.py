"""ExBox core: the paper's contribution.

- :mod:`repro.core.excr` — traffic matrices and the Experiential
  Capacity Region abstraction (Section 2.1),
- :mod:`repro.core.qoe_estimator` — network-side QoE estimation via
  per-class IQX models (Section 3.2),
- :mod:`repro.core.admittance` — the two-phase online SVM Admittance
  Classifier (Section 3.1, Figure 4),
- :mod:`repro.core.baselines` — the RateBased and MaxClient comparison
  schemes (Section 5.3),
- :mod:`repro.core.exbox` — the middlebox facade tying the components
  together (Figure 5),
- :mod:`repro.core.dynamics` — periodic re-evaluation of admitted flows
  (Section 4.3),
- :mod:`repro.core.policies` — what happens to rejected/revoked flows
  (Section 4.2),
- :mod:`repro.core.app_admission` — app-level admission via dominant
  flows (Section 4.5),
- :mod:`repro.core.fleet` — multi-cell network selection via the SVM
  margin (Section 4.1) and scale-out with shared IQX models (Section 4.4).
"""

from repro.core.admittance import AdmittanceClassifier, Phase
from repro.core.app_admission import AppAdmissionController, AppFlowSpec, AppVerdict
from repro.core.baselines import AdmissionScheme, MaxClientAdmission, RateBasedAdmission
from repro.core.dynamics import FlowRevalidator, RevalidationResult
from repro.core.exbox import AdmissionDecision, ExBox
from repro.core.excr import ExperientialCapacityRegion, TrafficMatrix, encode_event
from repro.core.fleet import ExBoxFleet, FleetDecision
from repro.core.policies import AdmittancePolicy, PolicyAction
from repro.core.qoe_estimator import QoEEstimator

__all__ = [
    "AdmissionDecision",
    "AdmissionScheme",
    "AdmittanceClassifier",
    "AdmittancePolicy",
    "AppAdmissionController",
    "AppFlowSpec",
    "AppVerdict",
    "ExBox",
    "ExBoxFleet",
    "FleetDecision",
    "ExperientialCapacityRegion",
    "FlowRevalidator",
    "MaxClientAdmission",
    "Phase",
    "PolicyAction",
    "QoEEstimator",
    "RateBasedAdmission",
    "RevalidationResult",
    "TrafficMatrix",
    "encode_event",
]
