"""Tests for the Admittance Classifier's online learner (replay buffer
+ batch retraining), driven batch by batch from the first sample."""

import numpy as np
import pytest

from repro.core.admittance import AdmittanceClassifier, default_svc_factory
from repro.ml.scaling import StandardScaler
from repro.obs import NULL_OBS, Obs


def _classifier(**kwargs):
    """A classifier that starts cold unless asked to warm-start."""
    kwargs.setdefault("warm_start", False)
    return AdmittanceClassifier(**kwargs)


def _observe(clf, x, y):
    """Record a sample; the first full batch takes the classifier online
    and every later one retrains it. Returns True when it retrained."""
    if clf.is_online:
        return clf.observe_online(x, y)
    clf.add_sample(x, y)
    if clf.samples_until_retrain:
        return False
    clf.force_online()
    return True


def _feed_linear(clf, n, seed=0):
    rng = np.random.default_rng(seed)
    retrains = 0
    for _ in range(n):
        x = rng.uniform(-2, 2, size=2)
        if _observe(clf, x, 1.0 if x.sum() > 0 else -1.0):
            retrains += 1
    return retrains


class TestBuffer:
    def test_add_sample_grows_buffer(self):
        clf = _classifier(batch_size=5)
        clf.add_sample([1.0, 2.0], 1)
        clf.add_sample([3.0, 4.0], -1)
        assert clf.n_samples == 2

    def test_replacement_rule_updates_label(self):
        # The paper: a repeated traffic matrix takes the latest label.
        clf = _classifier(batch_size=100, replace_repeated=True)
        clf.add_sample([1.0, 1.0], 1)
        clf.add_sample([1.0, 1.0], -1)
        assert clf.n_samples == 1
        _, y = clf.training_set()
        assert y[0] == -1

    def test_append_only_variant_keeps_both(self):
        clf = _classifier(batch_size=100, replace_repeated=False)
        clf.add_sample([1.0, 1.0], 1)
        clf.add_sample([1.0, 1.0], -1)
        assert clf.n_samples == 2

    def test_invalid_label_rejected(self):
        with pytest.raises(ValueError):
            _classifier().add_sample([0.0], 2)

    def test_max_buffer_evicts_oldest(self):
        clf = _classifier(batch_size=100, max_buffer=3, replace_repeated=False)
        for i in range(5):
            clf.add_sample([float(i)], 1)
        X, _ = clf.training_set()
        assert clf.n_samples == 3
        assert X.ravel().tolist() == [2.0, 3.0, 4.0]

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            _classifier(batch_size=0)

    def test_samples_until_retrain_counts_down(self):
        clf = _classifier(batch_size=5)
        assert clf.samples_until_retrain == 5
        rng = np.random.default_rng(27)
        for expected in (4, 3, 2, 1):
            clf.add_sample(rng.uniform(-2, 2, size=3), 1.0)
            assert clf.samples_until_retrain == expected


class TestRetraining:
    def test_retrains_every_batch(self):
        clf = _classifier(batch_size=10)
        retrains = _feed_linear(clf, 35)
        assert retrains == 3
        assert clf.n_retrains == 3

    def test_learns_linear_boundary(self):
        clf = _classifier(batch_size=20)
        _feed_linear(clf, 100, seed=1)
        rng = np.random.default_rng(2)
        X = rng.uniform(-2, 2, size=(50, 2))
        y = np.where(X.sum(axis=1) > 0, 1.0, -1.0)
        assert np.mean(clf.classify_batch(X) == y) >= 0.9

    def test_retrain_without_samples_raises(self):
        with pytest.raises(RuntimeError):
            _classifier().force_online()

    def test_adapts_to_concept_drift(self):
        # Train on one boundary, drift the labels, keep feeding:
        # the replacement rule plus retraining must track the change.
        clf = _classifier(batch_size=20)
        rng = np.random.default_rng(3)
        grid = [np.array([a, b]) for a in np.linspace(-2, 2, 9) for b in np.linspace(-2, 2, 9)]
        for x in grid:
            _observe(clf, x, 1.0 if x.sum() > 0 else -1.0)
        # Drift: boundary flips sign.
        for _ in range(3):
            for x in grid:
                _observe(clf, x, 1.0 if x.sum() < 0 else -1.0)
        X = rng.uniform(-2, 2, size=(60, 2))
        y_new = np.where(X.sum(axis=1) < 0, 1.0, -1.0)
        assert np.mean(clf.classify_batch(X) == y_new) >= 0.85

    def test_margin_one_sign_consistent(self):
        clf = _classifier(batch_size=10)
        _feed_linear(clf, 60, seed=4)
        point = np.array([1.5, 1.5])
        assert clf.margin(point) > 0
        assert clf.classify(point) == 1


class TestWarmStartMemory:
    def _feed(self, clf, n, seed, d=3):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            x = rng.uniform(-2, 2, size=d)
            _observe(clf, x, 1.0 if (x**2).sum() < 4.0 else -1.0)

    def test_alpha_by_key_bounded_by_buffer(self):
        # Regression: evicted keys used to stay in the warm-start dict
        # forever, so memory grew with the total stream length instead
        # of the buffer cap.
        clf = _classifier(batch_size=10, warm_start=True, max_buffer=50)
        self._feed(clf, 400, seed=20)
        assert clf.n_samples <= 50
        assert len(clf._alpha_by_key) <= 50

    def test_alpha_keys_subset_of_buffer(self):
        clf = _classifier(batch_size=10, warm_start=True, max_buffer=40)
        self._feed(clf, 250, seed=21)
        assert set(clf._alpha_by_key) <= set(clf._keys)

    def test_no_warm_start_keeps_dict_empty(self):
        clf = _classifier(batch_size=10, warm_start=False, max_buffer=40)
        self._feed(clf, 120, seed=22)
        assert clf._alpha_by_key == {}


class _ListUpkeepSVM(AdmittanceClassifier):
    """Reference buffer upkeep: lists, ``pop(0)`` and a key index
    rebuilt from scratch after every eviction burst."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._keys, self._X, self._y = [], [], []

    def add_sample(self, x, y):
        x = np.asarray(x, dtype=float).ravel()
        key = tuple(x.tolist())
        if self.replace_repeated and key in self._index:
            pos = self._index[key]
            if self._y[pos] != float(y):  # repro: noqa[NUM001]
                self._alpha_by_key.pop(key, None)
            self._y[pos] = float(y)
        else:
            self._keys.append(key)
            self._X.append(x)
            self._y.append(float(y))
            self._index[key] = len(self._X) - 1
            self._evict_if_needed()
        self._since_retrain += 1

    def _evict_if_needed(self):
        if self.max_buffer is None or len(self._X) <= self.max_buffer:
            return
        evicted = []
        while len(self._X) > self.max_buffer:
            evicted.append(self._keys.pop(0))
            self._X.pop(0)
            self._y.pop(0)
        self._index = {k: i for i, k in enumerate(self._keys)}
        for key in evicted:
            if key not in self._index:
                self._alpha_by_key.pop(key, None)


class TestEvictionUpkeep:
    @pytest.mark.parametrize("replace_repeated", [True, False])
    def test_matches_list_upkeep(self, replace_repeated):
        # A stream over a small grid repeats (and relabels) keys, so the
        # replacement rule, duplicate keys and evictions all interleave.
        kwargs = dict(
            batch_size=7, max_buffer=30, warm_start=True,
            replace_repeated=replace_repeated,
        )
        clf, reference = AdmittanceClassifier(**kwargs), _ListUpkeepSVM(**kwargs)
        rng = np.random.default_rng(31)
        for _ in range(300):
            x = rng.integers(-4, 5, size=2).astype(float)
            y = 1.0 if x.sum() + rng.normal() > 0 else -1.0
            assert _observe(clf, x, y) == _observe(reference, x, y)
            positions = {
                key: seq - clf._n_evicted for key, seq in clf._index.items()
            }
            assert positions == reference._index
            assert clf._alpha_by_key == reference._alpha_by_key
            X, labels = clf.training_set()
            X_ref, labels_ref = reference.training_set()
            assert np.array_equal(X, X_ref) and np.array_equal(labels, labels_ref)
            if clf.is_online:
                assert np.array_equal(
                    clf._model.alpha_all_, reference._model.alpha_all_
                )
        assert clf._n_evicted > 100


class TestSmoStepCounter:
    def test_counts_every_retrain(self):
        obs = Obs.recording()
        clf = _classifier(batch_size=10, warm_start=True, obs=obs)
        steps = 0
        rng = np.random.default_rng(32)
        for _ in range(60):
            x = rng.uniform(-2, 2, size=2)
            if _observe(clf, x, 1.0 if x.sum() > 0 else -1.0):
                steps += clf._model.n_iter_
        assert steps > 0
        assert obs.registry.counter("svm.smo.steps").value == steps

    def test_inert_under_null_obs(self):
        plain = _classifier(batch_size=10)
        recorded = _classifier(batch_size=10, obs=Obs.recording())
        _feed_linear(plain, 30, seed=33)
        _feed_linear(recorded, 30, seed=33)
        assert plain.obs is NULL_OBS and len(NULL_OBS.registry) == 0
        assert np.array_equal(plain._model.alpha_all_, recorded._model.alpha_all_)


class TestRefitEveryRetrain:
    """Paper §3.1: each retrain fits over all tuples observed so far, so
    the scaler and the RBF bandwidth are refit on the current buffer."""

    @pytest.mark.parametrize("max_buffer", [None, 60])
    def test_retrain_is_a_fresh_fit_on_the_buffer(self, max_buffer):
        clf = _classifier(batch_size=10, max_buffer=max_buffer)
        rng = np.random.default_rng(23)
        probe = rng.uniform(-2, 2, size=(30, 3))
        retrains = 0
        for _ in range(150):
            x = rng.uniform(-2, 2, size=3)
            label = 1.0 if (x**2).sum() < 4.0 else -1.0
            if retrains and rng.random() < 0.2:
                # A repeated tuple, relabelled under the replacement rule.
                X, y = clf.training_set()
                i = int(rng.integers(clf.n_samples))
                x, label = X[i], -y[i]
            if not _observe(clf, x, label):
                continue
            retrains += 1
            X, y = clf.training_set()
            scaler = StandardScaler().fit(X)
            assert np.array_equal(clf._scaler.mean_, scaler.mean_)
            assert np.array_equal(clf._scaler.scale_, scaler.scale_)
            fresh = default_svc_factory().fit(scaler.transform(X), y)
            assert np.array_equal(
                clf._margins(probe),
                fresh.decision_function(scaler.transform(probe)),
            )
        assert retrains == 15
