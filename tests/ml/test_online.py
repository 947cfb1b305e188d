"""Tests for the batch-online SVM (replay buffer + retraining)."""

import numpy as np
import pytest

from repro.ml.online import BatchOnlineSVM, default_svc_factory
from repro.ml.scaling import StandardScaler
from repro.obs import NULL_OBS, Obs


def _feed_linear(learner, n, seed=0, flip=None):
    rng = np.random.default_rng(seed)
    retrains = 0
    for _ in range(n):
        x = rng.uniform(-2, 2, size=2)
        y = 1.0 if x.sum() > 0 else -1.0
        if flip:
            y = flip(x, y)
        if learner.observe(x, y):
            retrains += 1
    return retrains


class TestBuffer:
    def test_add_sample_grows_buffer(self):
        learner = BatchOnlineSVM(batch_size=5)
        learner.add_sample([1.0, 2.0], 1)
        learner.add_sample([3.0, 4.0], -1)
        assert len(learner) == 2

    def test_replacement_rule_updates_label(self):
        # The paper: a repeated traffic matrix takes the latest label.
        learner = BatchOnlineSVM(batch_size=100, replace_repeated=True)
        learner.add_sample([1.0, 1.0], 1)
        learner.add_sample([1.0, 1.0], -1)
        assert len(learner) == 1
        _, y = learner.training_set()
        assert y[0] == -1

    def test_append_only_variant_keeps_both(self):
        learner = BatchOnlineSVM(batch_size=100, replace_repeated=False)
        learner.add_sample([1.0, 1.0], 1)
        learner.add_sample([1.0, 1.0], -1)
        assert len(learner) == 2

    def test_invalid_label_rejected(self):
        learner = BatchOnlineSVM()
        with pytest.raises(ValueError):
            learner.add_sample([0.0], 2)

    def test_max_buffer_evicts_oldest(self):
        learner = BatchOnlineSVM(batch_size=100, max_buffer=3, replace_repeated=False)
        for i in range(5):
            learner.add_sample([float(i)], 1)
        X, _ = learner.training_set()
        assert len(learner) == 3
        assert X.ravel().tolist() == [2.0, 3.0, 4.0]

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            BatchOnlineSVM(batch_size=0)

    def test_samples_until_retrain_counts_down(self):
        learner = BatchOnlineSVM(batch_size=5)
        assert learner.samples_until_retrain == 5
        rng = np.random.default_rng(27)
        for expected in (4, 3, 2, 1):
            learner.add_sample(rng.uniform(-2, 2, size=3), 1.0)
            assert learner.samples_until_retrain == expected


class TestRetraining:
    def test_retrains_every_batch(self):
        learner = BatchOnlineSVM(batch_size=10)
        retrains = _feed_linear(learner, 35)
        assert retrains == 3
        assert learner.n_retrains == 3

    def test_learns_linear_boundary(self):
        learner = BatchOnlineSVM(batch_size=20)
        _feed_linear(learner, 100, seed=1)
        rng = np.random.default_rng(2)
        X = rng.uniform(-2, 2, size=(50, 2))
        y = np.where(X.sum(axis=1) > 0, 1.0, -1.0)
        assert np.mean(learner.predict(X) == y) >= 0.9

    def test_predict_before_training_raises(self):
        learner = BatchOnlineSVM()
        with pytest.raises(RuntimeError):
            learner.predict([[0.0, 0.0]])

    def test_retrain_without_samples_raises(self):
        with pytest.raises(RuntimeError):
            BatchOnlineSVM().retrain()

    def test_adapts_to_concept_drift(self):
        # Train on one boundary, drift the labels, keep feeding:
        # the replacement rule plus retraining must track the change.
        learner = BatchOnlineSVM(batch_size=20)
        rng = np.random.default_rng(3)
        grid = [np.array([a, b]) for a in np.linspace(-2, 2, 9) for b in np.linspace(-2, 2, 9)]
        for x in grid:
            learner.observe(x, 1.0 if x.sum() > 0 else -1.0)
        # Drift: boundary flips sign.
        for _ in range(3):
            for x in grid:
                learner.observe(x, 1.0 if x.sum() < 0 else -1.0)
        X = rng.uniform(-2, 2, size=(60, 2))
        y_new = np.where(X.sum(axis=1) < 0, 1.0, -1.0)
        assert np.mean(learner.predict(X) == y_new) >= 0.85

    def test_margin_one_sign_consistent(self):
        learner = BatchOnlineSVM(batch_size=10)
        _feed_linear(learner, 60, seed=4)
        point = np.array([1.5, 1.5])
        assert learner.decision_function(point)[0] > 0
        assert learner.predict(point)[0] == pytest.approx(1.0)

    def test_is_trained_flag(self):
        learner = BatchOnlineSVM(batch_size=5)
        assert not learner.is_trained
        _feed_linear(learner, 6, seed=5)
        assert learner.is_trained


class TestWarmStartMemory:
    def _feed(self, learner, n, seed, d=3):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            x = rng.uniform(-2, 2, size=d)
            learner.observe(x, 1.0 if (x**2).sum() < 4.0 else -1.0)

    def test_alpha_by_key_bounded_by_buffer(self):
        # Regression: evicted keys used to stay in the warm-start dict
        # forever, so memory grew with the total stream length instead
        # of the buffer cap.
        learner = BatchOnlineSVM(batch_size=10, warm_start=True, max_buffer=50)
        self._feed(learner, 400, seed=20)
        assert len(learner) <= 50
        assert len(learner._alpha_by_key) <= 50

    def test_alpha_keys_subset_of_buffer(self):
        learner = BatchOnlineSVM(batch_size=10, warm_start=True, max_buffer=40)
        self._feed(learner, 250, seed=21)
        assert set(learner._alpha_by_key) <= set(learner._keys)

    def test_no_warm_start_keeps_dict_empty(self):
        learner = BatchOnlineSVM(batch_size=10, warm_start=False, max_buffer=40)
        self._feed(learner, 120, seed=22)
        assert learner._alpha_by_key == {}


class _ListUpkeepSVM(BatchOnlineSVM):
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
        learner, reference = BatchOnlineSVM(**kwargs), _ListUpkeepSVM(**kwargs)
        rng = np.random.default_rng(31)
        for _ in range(300):
            x = rng.integers(-4, 5, size=2).astype(float)
            y = 1.0 if x.sum() + rng.normal() > 0 else -1.0
            assert learner.observe(x, y) == reference.observe(x, y)
            positions = {
                key: seq - learner._n_evicted for key, seq in learner._index.items()
            }
            assert positions == reference._index
            assert learner._alpha_by_key == reference._alpha_by_key
            X, labels = learner.training_set()
            X_ref, labels_ref = reference.training_set()
            assert np.array_equal(X, X_ref) and np.array_equal(labels, labels_ref)
            if learner.is_trained:
                assert np.array_equal(
                    learner._model.alpha_all_, reference._model.alpha_all_
                )
        assert learner._n_evicted > 100


class TestSmoStepCounter:
    def test_counts_every_retrain(self):
        obs = Obs.recording()
        learner = BatchOnlineSVM(batch_size=10, warm_start=True, obs=obs)
        steps = 0
        rng = np.random.default_rng(32)
        for _ in range(60):
            x = rng.uniform(-2, 2, size=2)
            if learner.observe(x, 1.0 if x.sum() > 0 else -1.0):
                steps += learner._model.n_iter_
        assert steps > 0
        assert obs.registry.counter("svm.smo.steps").value == steps

    def test_inert_under_null_obs(self):
        plain = BatchOnlineSVM(batch_size=10)
        recorded = BatchOnlineSVM(batch_size=10, obs=Obs.recording())
        _feed_linear(plain, 30, seed=33)
        _feed_linear(recorded, 30, seed=33)
        assert plain.obs is NULL_OBS and len(NULL_OBS.registry) == 0
        assert np.array_equal(plain._model.alpha_all_, recorded._model.alpha_all_)


class TestRefitEveryRetrain:
    """Paper §3.1: each retrain fits over all tuples observed so far, so
    the scaler and the RBF bandwidth are refit on the current buffer."""

    @pytest.mark.parametrize("max_buffer", [None, 60])
    def test_retrain_is_a_fresh_fit_on_the_buffer(self, max_buffer):
        learner = BatchOnlineSVM(batch_size=10, max_buffer=max_buffer)
        rng = np.random.default_rng(23)
        probe = rng.uniform(-2, 2, size=(30, 3))
        retrains = 0
        for _ in range(150):
            x = rng.uniform(-2, 2, size=3)
            label = 1.0 if (x**2).sum() < 4.0 else -1.0
            if retrains and rng.random() < 0.2:
                # A repeated tuple, relabelled under the replacement rule.
                X, y = learner.training_set()
                i = int(rng.integers(len(learner)))
                x, label = X[i], -y[i]
            if not learner.observe(x, label):
                continue
            retrains += 1
            X, y = learner.training_set()
            scaler = StandardScaler().fit(X)
            assert np.array_equal(learner._scaler.mean_, scaler.mean_)
            assert np.array_equal(learner._scaler.scale_, scaler.scale_)
            fresh = default_svc_factory().fit(scaler.transform(X), y)
            assert np.array_equal(
                learner.decision_function(probe),
                fresh.decision_function(scaler.transform(probe)),
            )
        assert retrains == 15
