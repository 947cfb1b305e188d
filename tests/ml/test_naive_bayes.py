"""Tests for the Gaussian naive-Bayes classifier."""

import numpy as np
import pytest

from repro.ml.naive_bayes import GaussianNaiveBayes


def _blobs(seed=0, n=60):
    rng = np.random.default_rng(seed)
    X = np.vstack(
        [
            rng.normal([0, 0], 0.5, size=(n, 2)),
            rng.normal([4, 0], 0.5, size=(n, 2)),
            rng.normal([0, 4], 0.5, size=(n, 2)),
        ]
    )
    y = np.array(["a"] * n + ["b"] * n + ["c"] * n)
    return X, y


class TestGaussianNaiveBayes:
    def test_separable_blobs(self):
        X, y = _blobs()
        model = GaussianNaiveBayes().fit(X, y)
        assert model.score(X, y) >= 0.98

    def test_multiclass_labels_preserved(self):
        X, y = _blobs(seed=1)
        model = GaussianNaiveBayes().fit(X, y)
        assert set(model.classes_) == {"a", "b", "c"}
        assert set(model.predict(X)) <= {"a", "b", "c"}

    def test_prior_influences_ties(self):
        # Strongly imbalanced training tilts ambiguous points.
        rng = np.random.default_rng(4)
        X = np.vstack([rng.normal(0, 1, size=(95, 1)), rng.normal(0.2, 1, size=(5, 1))])
        y = np.array(["big"] * 95 + ["small"] * 5)
        model = GaussianNaiveBayes().fit(X, y)
        assert model.predict([[0.1]])[0] == "big"

    def test_constant_feature_smoothed(self):
        X = np.column_stack([np.ones(20), np.r_[np.zeros(10), np.ones(10)]])
        y = np.array(["x"] * 10 + ["y"] * 10)
        model = GaussianNaiveBayes(var_smoothing=1e-6).fit(X, y)
        assert model.score(X, y) == pytest.approx(1.0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GaussianNaiveBayes().predict([[0.0]])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            GaussianNaiveBayes().fit(np.zeros((0, 2)), [])

    def test_mismatched_raises(self):
        with pytest.raises(ValueError):
            GaussianNaiveBayes().fit(np.zeros((2, 2)), ["a"])

    def test_negative_smoothing_rejected(self):
        with pytest.raises(ValueError):
            GaussianNaiveBayes(var_smoothing=-1.0)
