"""Tests for incremental (warm-start) SVM training."""

import numpy as np
import pytest

from repro.core.admittance import AdmittanceClassifier
from repro.ml.svm import SVC
from tests.ml.test_online import _observe


def _problem(n, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 3))
    y = np.where((X**2).sum(axis=1) < 4.0, 1.0, -1.0)
    return X, y


class TestSvcWarmStart:
    def test_same_quality_as_cold_start(self):
        X, y = _problem(400)
        cold = SVC(C=10.0).fit(X, y)
        warm = SVC(C=10.0).fit(X, y, alpha_init=cold.alpha_all_)
        Xt, yt = _problem(200, seed=1)
        assert warm.score(Xt, yt) >= cold.score(Xt, yt) - 0.03

    def test_growing_set_reuses_solution(self):
        X, y = _problem(300, seed=2)
        model = SVC(C=10.0).fit(X, y)
        X2, y2 = _problem(360, seed=2)  # superset-like regeneration
        alpha0 = np.concatenate([model.alpha_all_, np.zeros(60)])
        warm = SVC(C=10.0).fit(X2, y2, alpha_init=alpha0)
        assert warm.score(X2, y2) >= 0.9

    def test_repairs_constraint_violation(self):
        X, y = _problem(100, seed=3)
        # A deliberately unbalanced init: all-positive alphas.
        alpha0 = np.full(100, 0.5)
        model = SVC(C=10.0).fit(X, y, alpha_init=alpha0)
        assert model.score(X, y) >= 0.85

    def test_unrepairable_init_falls_back_to_cold_start(self):
        # Duals on positive rows only: the negative side has no mass to
        # balance them, so the repair gives up and SMO starts cold.
        X, y = _problem(80, seed=7)
        alpha0 = np.where(y > 0, 0.5, 0.0)
        cold = SVC(C=10.0).fit(X, y)
        warm = SVC(C=10.0).fit(X, y, alpha_init=alpha0)
        assert np.array_equal(warm.alpha_all_, cold.alpha_all_)
        assert warm.intercept_ == cold.intercept_
        assert warm.n_iter_ == cold.n_iter_

    def test_clips_out_of_bounds(self):
        X, y = _problem(60, seed=4)
        alpha0 = np.full(60, 1e6)  # way past C
        model = SVC(C=1.0).fit(X, y, alpha_init=alpha0)
        assert model.score(X, y) >= 0.8

    def test_wrong_length_rejected(self):
        X, y = _problem(30, seed=5)
        with pytest.raises(ValueError, match="alpha_init"):
            SVC().fit(X, y, alpha_init=np.zeros(7))

    def test_alpha_all_exposed(self):
        X, y = _problem(50, seed=6)
        model = SVC(C=5.0).fit(X, y)
        assert model.alpha_all_.shape == (50,)
        assert (model.alpha_all_ >= 0).all()
        assert (model.alpha_all_ <= 5.0 + 1e-9).all()
        # Constraint satisfied at the solution.
        assert abs(model.alpha_all_ @ y) < 1e-6


class TestOnlineWarmStart:
    def _feed(self, clf, n, seed):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            x = rng.uniform(-2, 2, size=3)
            _observe(clf, x, 1.0 if (x**2).sum() < 4.0 else -1.0)

    def test_warm_matches_cold_accuracy(self):
        cold = AdmittanceClassifier(batch_size=40, warm_start=False)
        warm = AdmittanceClassifier(batch_size=40, warm_start=True)
        self._feed(cold, 240, seed=7)
        self._feed(warm, 240, seed=7)
        Xt, yt = _problem(150, seed=8)
        acc_cold = np.mean(cold.classify_batch(Xt) == yt)
        acc_warm = np.mean(warm.classify_batch(Xt) == yt)
        assert acc_warm >= acc_cold - 0.05
        assert acc_warm >= 0.85

    def test_warm_start_with_tree_factory_is_ignored(self):
        from repro.ml.tree import DecisionTreeClassifier

        clf = AdmittanceClassifier(
            batch_size=30,
            warm_start=True,
            model_factory=lambda: DecisionTreeClassifier(max_depth=5),
        )
        self._feed(clf, 90, seed=9)
        assert clf.n_retrains == 3 and clf._alpha_by_key == {}
