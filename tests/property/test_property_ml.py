"""Property-based tests for the ML substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml.kernels import LinearKernel, RBFKernel
from repro.ml.metrics import accuracy_score, confusion_matrix, precision_score, recall_score
from repro.ml.validation import KFold

# Bounded to the post-StandardScaler magnitudes the kernels actually see;
# ||x||^2 via the dot-product expansion cancels catastrophically for
# coordinates around 1e6, which is a numerics property, not a bug.
finite_floats = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def matrices(min_rows=2, max_rows=20, min_cols=1, max_cols=5):
    return st.integers(min_rows, max_rows).flatmap(
        lambda n: st.integers(min_cols, max_cols).flatmap(
            lambda d: arrays(np.float64, (n, d), elements=finite_floats)
        )
    )


labels = st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=60)


class TestKernelProperties:
    @given(matrices())
    @settings(max_examples=30, deadline=None)
    def test_rbf_gram_symmetric_unit_diagonal(self, X):
        K = RBFKernel(gamma=0.5)(X, X)
        assert np.allclose(K, K.T, atol=1e-9)
        assert np.allclose(np.diag(K), 1.0)
        assert (K >= 0).all() and (K <= 1.0 + 1e-12).all()

    @given(matrices())
    @settings(max_examples=30, deadline=None)
    def test_linear_gram_psd(self, X):
        K = LinearKernel()(X, X)
        eigenvalues = np.linalg.eigvalsh(K)
        assert eigenvalues.min() >= -1e-6 * max(1.0, abs(eigenvalues).max())


class TestMetricProperties:
    @given(labels, st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_confusion_matrix_partitions(self, y_true, rnd):
        y_pred = [rnd.choice([-1, 1]) for _ in y_true]
        cm = confusion_matrix(y_true, y_pred)
        assert cm.sum() == len(y_true)
        assert (cm >= 0).all()

    @given(labels, st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_scores_bounded(self, y_true, rnd):
        y_pred = [rnd.choice([-1, 1]) for _ in y_true]
        for fn in (precision_score, recall_score, accuracy_score):
            assert 0.0 <= fn(y_true, y_pred) <= 1.0

    @given(labels)
    @settings(max_examples=40, deadline=None)
    def test_perfect_prediction_scores_one(self, y_true):
        assert accuracy_score(y_true, y_true) == pytest.approx(1.0)
        assert precision_score(y_true, y_true) == pytest.approx(1.0)
        assert recall_score(y_true, y_true) == pytest.approx(1.0)


class TestKFoldProperties:
    @given(st.integers(4, 200), st.integers(2, 6), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_folds_partition_indices(self, n, k, seed):
        if n < k:
            return
        seen = []
        for train_idx, test_idx in KFold(k, random_state=seed).split(n):
            assert set(train_idx).isdisjoint(test_idx)
            seen.extend(test_idx.tolist())
        assert sorted(seen) == list(range(n))


class TestTreeProperties:
    @given(st.integers(0, 10_000), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_predictions_always_pm1_and_depth_bounded(self, seed, depth):
        from repro.ml.tree import DecisionTreeClassifier

        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 3))
        y = np.where(rng.random(40) < 0.5, 1.0, -1.0)
        tree = DecisionTreeClassifier(max_depth=depth).fit(X, y)
        assert tree.depth_ <= depth
        assert set(np.unique(tree.predict(X))) <= {-1.0, 1.0}

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_training_accuracy_beats_majority_class(self, seed):
        from repro.ml.tree import DecisionTreeClassifier

        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, 2))
        y = np.where(X[:, 0] > 0.3, 1.0, -1.0)
        if len(np.unique(y)) < 2:
            return
        tree = DecisionTreeClassifier(max_depth=6).fit(X, y)
        # Labels are exact ±1.0 sentinels; equality is bit-safe.
        majority = max(np.mean(y == 1.0), np.mean(y == -1.0))  # repro: noqa[NUM001]
        assert tree.score(X, y) >= majority
