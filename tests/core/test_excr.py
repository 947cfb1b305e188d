"""Tests for traffic matrices and the ExCR abstraction."""

import numpy as np
import pytest

from repro.core.excr import ExperientialCapacityRegion, TrafficMatrix, encode_event
from repro.traffic.arrival import FlowEvent


class TestTrafficMatrix:
    def test_empty(self):
        matrix = TrafficMatrix.empty()
        assert matrix.total_flows == 0
        assert matrix.counts == (0, 0, 0)

    def test_empty_two_levels(self):
        matrix = TrafficMatrix.empty(n_levels=2)
        assert len(matrix.counts) == 6

    def test_from_class_counts(self):
        matrix = TrafficMatrix.from_class_counts((2, 1, 0))
        assert matrix.count(0) == 2
        assert matrix.count(1) == 1
        assert matrix.total_flows == 3

    def test_arrival_departure_roundtrip(self):
        matrix = TrafficMatrix.empty(n_levels=2)
        grown = matrix.with_arrival(1, 1)
        assert grown.count(1, 1) == 1
        assert grown.with_departure(1, 1) == matrix

    def test_departure_from_empty_slot_raises(self):
        with pytest.raises(ValueError):
            TrafficMatrix.empty().with_departure(0, 0)

    def test_immutable(self):
        matrix = TrafficMatrix.empty()
        matrix.with_arrival(0, 0)
        assert matrix.total_flows == 0

    def test_per_class_totals(self):
        matrix = TrafficMatrix(counts=(1, 2, 0, 3, 1, 0), n_levels=2)
        assert matrix.per_class_totals() == (3, 3, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficMatrix(counts=(1, 2), n_levels=1)
        with pytest.raises(ValueError):
            TrafficMatrix(counts=(-1, 0, 0), n_levels=1)
        with pytest.raises(ValueError):
            TrafficMatrix.empty().slot(5, 0)


class TestEncodeEvent:
    def test_single_level_layout(self):
        # With r=1 the paper's <a_web, a_str, a_conf, j> layout applies.
        event = FlowEvent(matrix_before=(1, 0, 2), app_class_index=1, snr_level=0)
        x = encode_event(event)
        assert x.tolist() == [1.0, 1.0, 2.0, 1.0]

    def test_two_level_layout_appends_level(self):
        event = FlowEvent(
            matrix_before=(0, 1, 0, 0, 0, 0), app_class_index=0, snr_level=1
        )
        x = encode_event(event)
        assert x.tolist() == [0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]

    def test_matrix_after_included(self):
        event = FlowEvent(matrix_before=(0, 0, 0), app_class_index=2, snr_level=0)
        assert encode_event(event)[2] == pytest.approx(1.0)


class _FakeClassifier:
    """Admits while total flows after arrival <= 4."""

    def classify(self, x):
        return 1 if sum(x[:-1]) <= 4 else -1

    def margin(self, x):
        return 4.0 - float(sum(x[:-1]))


class TestExperientialCapacityRegion:
    def test_admits_and_depth(self):
        region = ExperientialCapacityRegion(_FakeClassifier(), n_levels=1)
        small = TrafficMatrix.from_class_counts((1, 1, 0))
        big = TrafficMatrix.from_class_counts((3, 2, 0))
        assert region.admits(small, app_class_index=0)
        assert not region.admits(big, app_class_index=0)
        assert region.depth(small, 0) > region.depth(big, 0)

    def test_boundary_profile(self):
        region = ExperientialCapacityRegion(_FakeClassifier(), n_levels=1)
        assert region.boundary_profile(app_class_index=0) == 4

    def test_level_mismatch_rejected(self):
        region = ExperientialCapacityRegion(_FakeClassifier(), n_levels=2)
        with pytest.raises(ValueError):
            region.admits(TrafficMatrix.empty(n_levels=1), 0)


class TestEstimateVolume:
    def test_fraction_matches_rule(self):
        # Rule: admissible while total after <= 4; with slots in [0,3]^3
        # plus the arrival, the admissible fraction is computable.
        region = ExperientialCapacityRegion(_FakeClassifier(), n_levels=1)
        rng = np.random.default_rng(0)
        volume = region.estimate_volume(
            rng, max_per_slot=3, n_samples=4000, app_class_index=0
        )
        # Count exactly: matrices with sum <= 3 out of 4^3 = 64.
        exact = sum(
            1
            for a in range(4)
            for b in range(4)
            for c in range(4)
            if a + b + c <= 3
        ) / 64
        assert volume == pytest.approx(exact, abs=0.03)

    def test_empty_region_zero(self):
        class _Never:
            def classify(self, x):
                return -1

            def margin(self, x):
                return -1.0

        region = ExperientialCapacityRegion(_Never(), n_levels=1)
        assert region.estimate_volume(np.random.default_rng(1), n_samples=200) == pytest.approx(0.0)

    def test_validation(self):
        region = ExperientialCapacityRegion(_FakeClassifier(), n_levels=1)
        with pytest.raises(ValueError):
            region.estimate_volume(np.random.default_rng(2), n_samples=0)
