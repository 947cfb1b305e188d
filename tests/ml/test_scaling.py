"""Tests for repro.ml.scaling."""

import numpy as np
import pytest

from repro.ml.scaling import StandardScaler


class TestStandardScaler:
    def test_zero_mean_unit_variance(self, rng):
        X = rng.normal(5.0, 3.0, size=(200, 4))
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_no_nan(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        Z = StandardScaler().fit_transform(X)
        assert not np.isnan(Z).any()
        assert np.allclose(Z[:, 0], 0.0)

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((2, 2)))

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            StandardScaler().fit(np.zeros((0, 3)))

    def test_applies_training_stats_to_new_data(self, rng):
        X = rng.normal(10.0, 2.0, size=(100, 2))
        scaler = StandardScaler().fit(X)
        point = np.array([[10.0, 10.0]])
        Z = scaler.transform(point)
        expected = (point - X.mean(axis=0)) / X.std(axis=0)
        assert np.allclose(Z, expected)

