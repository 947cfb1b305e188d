"""Tests for k-fold cross-validation and splits."""

import numpy as np
import pytest

from repro.core.admittance import default_svc_factory
from repro.ml.svm import SVC
from repro.ml.validation import KFold, cross_val_accuracy


class TestKFold:
    def test_partitions_everything_exactly_once(self):
        kf = KFold(n_splits=4, random_state=0)
        seen = []
        for train_idx, test_idx in kf.split(22):
            assert set(train_idx).isdisjoint(test_idx)
            assert len(train_idx) + len(test_idx) == 22
            seen.extend(test_idx.tolist())
        assert sorted(seen) == list(range(22))

    def test_fold_sizes_balanced(self):
        kf = KFold(n_splits=5, random_state=1)
        sizes = [len(test) for _, test in kf.split(23)]
        assert max(sizes) - min(sizes) <= 1

    def test_no_shuffle_is_contiguous(self):
        kf = KFold(n_splits=2, shuffle=False)
        folds = [test.tolist() for _, test in kf.split(4)]
        assert folds == [[0, 1], [2, 3]]

    def test_too_few_samples_raises(self):
        with pytest.raises(ValueError):
            list(KFold(n_splits=5).split(3))

    def test_min_splits(self):
        with pytest.raises(ValueError):
            KFold(n_splits=1)

    def test_deterministic_given_seed(self):
        a = [t.tolist() for _, t in KFold(4, random_state=7).split(16)]
        b = [t.tolist() for _, t in KFold(4, random_state=7).split(16)]
        assert a == b


class TestCrossValAccuracy:
    def test_high_on_separable(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(80, 2))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        acc = cross_val_accuracy(
            lambda: SVC(C=10.0, kernel="linear"), X, y, n_splits=4, random_state=0
        )
        assert acc >= 0.9

    def test_near_chance_on_random_labels(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 2))
        y = np.where(rng.random(60) < 0.5, 1.0, -1.0)
        acc = cross_val_accuracy(
            lambda: SVC(C=1.0), X, y, n_splits=3, random_state=0
        )
        assert acc < 0.75

    def test_single_class_folds_dont_crash(self):
        # Early in bootstrap everything can carry the same label.
        X = np.random.default_rng(4).normal(size=(12, 2))
        y = np.ones(12)
        acc = cross_val_accuracy(lambda: SVC(), X, y, n_splits=3)
        assert acc == pytest.approx(1.0)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            cross_val_accuracy(lambda: SVC(), np.zeros((4, 1)), np.ones(3))


def _ring_problem(n, seed, d=3):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, d))
    y = np.where((X**2).sum(axis=1) < 4.0, 1.0, -1.0)
    return X, y


class TestParallelCV:
    def test_parallel_equals_serial_exactly(self):
        # Scores reduce in fold order regardless of worker scheduling,
        # so the parallel result must be bit-identical to the serial one.
        X, y = _ring_problem(200, seed=5)
        serial = cross_val_accuracy(
            default_svc_factory, X, y, n_splits=5, random_state=5, n_jobs=1
        )
        parallel = cross_val_accuracy(
            default_svc_factory, X, y, n_splits=5, random_state=5, n_jobs=5
        )
        assert serial == parallel

    def test_jobs_clamped_to_fold_count(self):
        X, y = _ring_problem(60, seed=6)
        serial = cross_val_accuracy(
            default_svc_factory, X, y, n_splits=3, random_state=6, n_jobs=1
        )
        greedy = cross_val_accuracy(
            default_svc_factory, X, y, n_splits=3, random_state=6, n_jobs=64
        )
        assert serial == greedy

    def test_unpicklable_factory_falls_back_to_serial(self):
        # Lambdas cannot cross a process boundary; the pool path must
        # degrade to the serial loop, not crash.
        X, y = _ring_problem(60, seed=7)
        acc = cross_val_accuracy(
            lambda: SVC(C=10.0, kernel="rbf"),
            X, y, n_splits=3, random_state=7, n_jobs=3,
        )
        reference = cross_val_accuracy(
            default_svc_factory, X, y, n_splits=3, random_state=7, n_jobs=1
        )
        assert acc == reference

    def test_auto_heuristic_stays_serial_below_threshold(self):
        # Small problems never pay pool spawn overhead; lambda + default
        # n_jobs must therefore succeed without touching a pool.
        X, y = _ring_problem(40, seed=8)
        acc = cross_val_accuracy(
            lambda: SVC(C=1.0, kernel="linear"), X, y, n_splits=4, random_state=8
        )
        assert 0.0 <= acc <= 1.0

