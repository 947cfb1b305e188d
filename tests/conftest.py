"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.core.qoe_estimator import QoEEstimator
from repro.ml.svm import SVC
from repro.testbed.lte_testbed import LTETestbed
from repro.testbed.wifi_testbed import WiFiTestbed


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def wifi_testbed():
    return WiFiTestbed()


@pytest.fixture
def lte_testbed():
    return LTETestbed()


@pytest.fixture
def kernel_passes(monkeypatch):
    """Rows per ``SVC.decision_function`` call, one entry per kernel pass
    against the support vectors (``SVC.predict`` passes through it too)."""
    passes = []
    inner = SVC.decision_function

    def counting(self, X):
        passes.append(np.atleast_2d(X).shape[0])
        return inner(self, X)

    monkeypatch.setattr(SVC, "decision_function", counting)
    return passes


@pytest.fixture(scope="session")
def estimator():
    """A session-scoped trained QoE estimator (IQX fitting is not free)."""
    est = QoEEstimator()
    est.train_from_device(rng=np.random.default_rng(99), runs_per_point=3)
    return est
