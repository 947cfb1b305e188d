"""Tests for the CART decision tree."""

import numpy as np
import pytest

from repro.ml.tree import DecisionTreeClassifier


def _axis_problem(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 3))
    y = np.where((X[:, 0] > 0.2) & (X[:, 1] < 0.5), 1.0, -1.0)
    return X, y


class TestFit:
    def test_axis_aligned_boundary(self):
        X, y = _axis_problem()
        tree = DecisionTreeClassifier(max_depth=6).fit(X, y)
        assert tree.score(X, y) >= 0.98

    def test_generalizes(self):
        X, y = _axis_problem(seed=1)
        Xt, yt = _axis_problem(seed=2)
        tree = DecisionTreeClassifier(max_depth=6).fit(X, y)
        assert tree.score(Xt, yt) >= 0.9

    def test_depth_cap_respected(self):
        X, y = _axis_problem()
        tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert tree.depth_ <= 2

    def test_pure_node_stops_early(self):
        X = np.array([[0.0], [1.0], [2.0]])
        tree = DecisionTreeClassifier().fit(X, np.ones(3))
        assert tree.depth_ == 0
        assert tree.n_leaves_ == 1

    def test_single_class_constant(self):
        X = np.random.default_rng(3).normal(size=(10, 2))
        tree = DecisionTreeClassifier().fit(X, -np.ones(10))
        # predict() emits the exact sentinels ±1.0, never arithmetic.
        assert np.all(tree.predict(X) == -1.0)  # repro: noqa[NUM001]

    def test_min_samples_split(self):
        X, y = _axis_problem(n=3)
        tree = DecisionTreeClassifier(min_samples_split=10).fit(X, y)
        assert tree.n_leaves_ == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((2, 1)), [0.0, 1.0])
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((0, 1)), [])


class TestInference:
    def test_decision_function_bounded(self):
        X, y = _axis_problem(seed=4)
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        values = tree.decision_function(X)
        assert np.all(values >= -1.0) and np.all(values <= 1.0)

    def test_sign_matches_predict(self):
        X, y = _axis_problem(seed=5)
        tree = DecisionTreeClassifier().fit(X, y)
        assert np.all(np.sign(tree.decision_function(X) + 1e-15) == tree.predict(X))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict([[0.0]])

    def test_feature_count_checked(self):
        X, y = _axis_problem(n=50)
        tree = DecisionTreeClassifier().fit(X, y)
        with pytest.raises(ValueError):
            tree.predict(np.zeros((1, 7)))

    def test_drop_in_for_svc_in_online_learner(self):
        # The paper's claim: the Admittance Classifier's learner is
        # modular — a tree must work through it unchanged.
        from repro.core.admittance import AdmittanceClassifier
        from tests.ml.test_online import _observe

        clf = AdmittanceClassifier(
            batch_size=25, model_factory=lambda: DecisionTreeClassifier(max_depth=6)
        )
        rng = np.random.default_rng(6)
        for _ in range(100):
            x = rng.uniform(-1, 1, size=2)
            _observe(clf, x, 1.0 if x[0] > 0 else -1.0)
        X = rng.uniform(-1, 1, size=(50, 2))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        assert np.mean(clf.classify_batch(X) == y) >= 0.9
