"""ExBox: Experience Management Middlebox for Wireless Networks.

A full reproduction of Chakraborty et al., ACM CoNEXT 2016. The package
implements the paper's contribution (the ExCR-learning middlebox) plus
every substrate its evaluation depends on: an SVM trained from scratch,
fluid WiFi/LTE cell models checked against a packet-level discrete-event
reference, synthetic
application traffic and LiveLab-style workloads, IQX-based QoE
estimation, emulated WiFi/LTE testbeds, and the complete experiment
harness regenerating each figure of the paper.

Quickstart::

    import numpy as np
    from repro import ExBox, FlowRequest

    rng = np.random.default_rng(0)
    exbox = ExBox.with_defaults(batch_size=20)
    exbox.train_qoe_estimator(rng=rng)
    decision = exbox.handle_arrival(FlowRequest(client_id=1, app_class="web"))
"""

from repro.core import (
    AdmissionDecision,
    AdmittanceClassifier,
    AdmittancePolicy,
    ExBox,
    ExperientialCapacityRegion,
    MaxClientAdmission,
    Phase,
    PolicyAction,
    QoEEstimator,
    RateBasedAdmission,
    TrafficMatrix,
)
from repro.testbed import ClientController, LTETestbed, WiFiTestbed
from repro.traffic.flows import CONFERENCING, STREAMING, WEB, Flow, FlowRequest

__version__ = "1.0.0"

__all__ = [
    "AdmissionDecision",
    "AdmittanceClassifier",
    "AdmittancePolicy",
    "CONFERENCING",
    "ClientController",
    "ExBox",
    "ExperientialCapacityRegion",
    "Flow",
    "FlowRequest",
    "LTETestbed",
    "MaxClientAdmission",
    "Phase",
    "PolicyAction",
    "QoEEstimator",
    "RateBasedAdmission",
    "STREAMING",
    "TrafficMatrix",
    "WEB",
    "WiFiTestbed",
]
