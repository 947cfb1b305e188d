"""Tests for early-packet flow classification."""

import numpy as np
import pytest

from repro.classification.classifier import FlowClassifier
from repro.classification.features import FLOW_FEATURE_NAMES, early_packet_features
from repro.traffic.flows import APP_CLASSES
from repro.traffic.generators import generator_for_class
from repro.traffic.packets import Packet


class TestFeatures:
    def test_feature_vector_shape(self):
        packets = [Packet(0.01 * i, 100 + i) for i in range(30)]
        features = early_packet_features(packets)
        assert features.shape == (len(FLOW_FEATURE_NAMES),)

    def test_only_first_n_used(self):
        packets = [Packet(0.01 * i, 100) for i in range(100)]
        a = early_packet_features(packets, n_packets=10)
        b = early_packet_features(packets[:10], n_packets=10)
        assert np.allclose(a, b)

    def test_too_few_packets_raises(self):
        with pytest.raises(ValueError):
            early_packet_features([Packet(0.0, 100)])

    def test_rate_feature_reflects_load(self):
        slow = [Packet(0.1 * i, 100) for i in range(20)]
        fast = [Packet(0.001 * i, 1400) for i in range(20)]
        idx = FLOW_FEATURE_NAMES.index("early_rate_bps")
        assert early_packet_features(fast)[idx] > early_packet_features(slow)[idx]


class TestFlowClassifier:
    @pytest.fixture(scope="class")
    def trained(self):
        return FlowClassifier.train_synthetic(
            np.random.default_rng(21), flows_per_class=15, trace_duration_s=15.0
        )

    def test_accuracy_on_fresh_traces(self, trained):
        rng = np.random.default_rng(22)
        traces, labels = [], []
        for app_class in APP_CLASSES:
            generator = generator_for_class(app_class)
            for _ in range(10):
                traces.append(list(generator.generate(15.0, rng)))
                labels.append(app_class)
        assert trained.accuracy(traces, labels) >= 0.8

    def test_classify_returns_known_class(self, trained):
        rng = np.random.default_rng(23)
        trace = list(generator_for_class("conferencing").generate(15.0, rng))
        assert trained.classify(trace) in APP_CLASSES

    def test_untrained_raises(self):
        with pytest.raises(RuntimeError):
            FlowClassifier().classify([Packet(0.0, 100), Packet(0.1, 100)])

    def test_fit_validates_labels(self):
        packets = [[Packet(0.0, 100), Packet(0.1, 100)]]
        with pytest.raises(ValueError):
            FlowClassifier().fit(packets, ["gaming"])

    def test_fit_validates_lengths(self):
        with pytest.raises(ValueError):
            FlowClassifier().fit([], ["web"])

    def test_is_trained_flag(self, trained):
        assert trained.is_trained
        assert not FlowClassifier().is_trained
