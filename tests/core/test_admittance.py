"""Tests for the two-phase Admittance Classifier."""

import numpy as np
import pytest

from repro.core.admittance import AdmittanceClassifier, Phase


def _boundary_label(x):
    """Ground truth: admissible while total flows (first 3 dims) <= 5."""
    return 1 if sum(x[:3]) <= 5 else -1


def _sample_stream(n, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        counts = rng.integers(0, 5, size=3).astype(float)
        cls = float(rng.integers(0, 3))
        x = np.append(counts, cls)
        yield x, _boundary_label(x)


class TestBootstrapPhase:
    def test_starts_in_bootstrap(self):
        clf = AdmittanceClassifier()
        assert clf.phase is Phase.BOOTSTRAP
        assert not clf.is_online

    def test_classify_during_bootstrap_raises(self):
        clf = AdmittanceClassifier()
        with pytest.raises(RuntimeError, match="bootstrapping"):
            clf.classify([0, 0, 0, 0])

    def test_exits_on_cv_threshold(self):
        clf = AdmittanceClassifier(
            cv_threshold=0.7, min_bootstrap_samples=30, max_bootstrap_samples=None,
            cv_check_every=10,
        )
        for x, y in _sample_stream(200, seed=1):
            if clf.observe_bootstrap(x, y):
                break
        assert clf.is_online
        assert clf.last_cv_accuracy >= 0.7
        assert clf.bootstrap_samples_used <= 200

    def test_forced_exit_at_cap(self):
        # Unlearnable labels: bootstrap must still terminate at the cap.
        rng = np.random.default_rng(2)
        clf = AdmittanceClassifier(
            cv_threshold=0.99, min_bootstrap_samples=10, max_bootstrap_samples=40,
        )
        done = False
        for i in range(60):
            x = rng.normal(size=4)
            y = 1 if rng.random() < 0.5 else -1
            if clf.observe_bootstrap(x, y):
                done = True
                break
        assert done and clf.is_online
        assert clf.n_samples <= 41

    def test_one_label_scan_per_due_check(self):
        # The class check scans the whole buffer: once per due (or
        # forced) check, and never on an observation that is not due.
        rng = np.random.default_rng(2)
        clf = AdmittanceClassifier(
            cv_threshold=0.99, min_bootstrap_samples=10, max_bootstrap_samples=40,
            cv_check_every=5,
        )
        scans = []
        inner = clf._both_classes_present

        def counting():
            scans.append(clf.n_samples)
            return inner()

        clf._both_classes_present = counting
        for i in range(60):
            x = rng.normal(size=4)
            y = 1 if i < 12 or rng.random() < 0.5 else -1
            if clf.observe_bootstrap(x, y):
                break
        assert clf.is_online and clf.n_samples == 40
        assert len(scans) == len(set(scans))
        # All +1 up to 12: due checks at 10, 11 and 12 find one class
        # and are not reset; every later check is 5 observations apart.
        assert scans[:3] == [10, 11, 12]
        assert min(scans) >= clf.min_bootstrap_samples

    def test_force_online(self):
        clf = AdmittanceClassifier(min_bootstrap_samples=5)
        for i, (x, y) in enumerate(_sample_stream(8, seed=3)):
            clf.observe_bootstrap(x, y)
        clf.force_online()
        assert clf.is_online

    def test_force_online_without_samples_raises(self):
        with pytest.raises(RuntimeError):
            AdmittanceClassifier().force_online()

    def test_observe_bootstrap_after_online_raises(self):
        clf = AdmittanceClassifier(min_bootstrap_samples=5)
        for x, y in _sample_stream(6, seed=4):
            clf.observe_bootstrap(x, y)
        clf.force_online()
        with pytest.raises(RuntimeError):
            clf.observe_bootstrap(np.zeros(4), 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmittanceClassifier(cv_threshold=0.0)
        with pytest.raises(ValueError):
            AdmittanceClassifier(cv_folds=10, min_bootstrap_samples=5)


class TestOnlinePhase:
    def _online_classifier(self, batch_size=20):
        clf = AdmittanceClassifier(
            batch_size=batch_size, min_bootstrap_samples=30,
            max_bootstrap_samples=60,
        )
        for x, y in _sample_stream(60, seed=5):
            if clf.observe_bootstrap(x, y):
                break
        if not clf.is_online:
            clf.force_online()
        return clf

    def test_learns_the_boundary(self):
        clf = self._online_classifier()
        correct = 0
        stream = list(_sample_stream(100, seed=6))
        for x, y in stream:
            if clf.classify(x) == y:
                correct += 1
            clf.observe_online(x, y)
        assert correct / len(stream) >= 0.85

    def test_batch_retraining_cadence(self):
        clf = self._online_classifier(batch_size=10)
        start = clf.n_retrains
        for x, y in _sample_stream(35, seed=7):
            clf.observe_online(x, y)
        assert clf.n_retrains == start + 3

    def test_margin_sign_matches_classification(self):
        clf = self._online_classifier()
        for x, y in _sample_stream(20, seed=8):
            margin = clf.margin(x)
            assert (margin >= 0) == (clf.classify(x) == 1)

    def test_adapts_to_boundary_shift(self):
        # Shrink the true region from <=5 to <=2 flows; the classifier
        # must re-learn (the Figure 11 behaviour).
        clf = self._online_classifier(batch_size=10)
        rng = np.random.default_rng(9)
        for _ in range(150):
            counts = rng.integers(0, 5, size=3).astype(float)
            x = np.append(counts, float(rng.integers(0, 3)))
            y = 1 if counts.sum() <= 2 else -1
            clf.observe_online(x, y)
        correct = 0
        trials = 100
        for _ in range(trials):
            counts = rng.integers(0, 5, size=3).astype(float)
            x = np.append(counts, float(rng.integers(0, 3)))
            y = 1 if counts.sum() <= 2 else -1
            if clf.classify(x) == y:
                correct += 1
        assert correct / trials >= 0.8


class TestGuardMargin:
    def _online(self, guard):
        clf = AdmittanceClassifier(
            batch_size=20, min_bootstrap_samples=60, max_bootstrap_samples=100,
            guard_margin=guard,
        )
        for x, y in _sample_stream(100, seed=11):
            if clf.observe_bootstrap(x, y):
                break
        if not clf.is_online:
            clf.force_online()
        return clf

    def test_zero_guard_is_sign_rule(self):
        clf = self._online(0.0)
        for x, _ in _sample_stream(30, seed=12):
            assert (clf.classify(x) == 1) == (clf.margin(x) >= 0)

    @pytest.mark.parametrize("guard", [-0.8, 0.0, 0.8])
    def test_every_view_applies_the_same_guard(self, guard):
        clf = self._online(guard)
        X = np.vstack([x for x, _ in _sample_stream(40, seed=15)])
        batch = clf.classify_batch(X)
        for i, x in enumerate(X):
            expected = 1 if clf.margin(x) >= guard else -1
            assert batch[i] == clf.classify(x) == expected

    def test_positive_guard_is_conservative(self):
        plain = self._online(0.0)
        strict = self._online(0.8)
        admits_plain = sum(
            1 for x, _ in _sample_stream(100, seed=13) if plain.classify(x) == 1
        )
        admits_strict = sum(
            1 for x, _ in _sample_stream(100, seed=13) if strict.classify(x) == 1
        )
        assert admits_strict < admits_plain

    def test_negative_guard_is_permissive(self):
        plain = self._online(0.0)
        loose = self._online(-0.8)
        admits_plain = sum(
            1 for x, _ in _sample_stream(100, seed=14) if plain.classify(x) == 1
        )
        admits_loose = sum(
            1 for x, _ in _sample_stream(100, seed=14) if loose.classify(x) == 1
        )
        assert admits_loose > admits_plain

    def test_margin_unaffected_by_guard(self):
        plain = self._online(0.0)
        strict = self._online(0.8)
        x = np.array([1.0, 1.0, 0.0, 0.0])
        # Same training stream -> same model -> same raw margin.
        assert plain.margin(x) == pytest.approx(strict.margin(x))
