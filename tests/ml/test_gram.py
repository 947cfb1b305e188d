"""Exactness tests for the incremental Gram cache.

The cache's contract is strict bit-identity: however the training set
evolved (appends, front evictions, label replacements, invalidations),
the matrix handed to the solver must equal a from-scratch
``kernel(X, X)`` call to the last bit. These tests drive randomized
add/evict/invalidate sequences and compare with ``np.array_equal``.
"""

import numpy as np
import pytest

from repro.ml.gram import GramCache
from repro.ml.kernels import (
    LinearKernel,
    PolynomialKernel,
    RBFKernel,
    freeze_kernel,
    pairwise_dot,
    pairwise_sq_dists,
)
from repro.ml.online import BatchOnlineSVM
from repro.obs.facade import Obs

KERNELS = [
    LinearKernel(),
    RBFKernel(gamma=0.35),
    PolynomialKernel(degree=3, coef0=1.0),
]


def _rows(rng, n, d=5):
    return rng.normal(size=(n, d))


class TestEntryExactness:
    """The kernel-level property the cache is built on: every Gram entry
    is a pure function of its row pair, independent of matrix shape."""

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
    def test_block_assembly_matches_full_call(self, kernel):
        rng = np.random.default_rng(0)
        X = _rows(rng, 97)
        full = kernel(X, X)
        # Single-row slices, sub-blocks, and transposed borders must all
        # reproduce the same entries bit-for-bit.
        assert np.array_equal(kernel(X[40:], X), full[40:, :])
        assert np.array_equal(kernel(X[:40], X[:40]), full[:40, :40])
        assert np.array_equal(kernel(X[13:14], X), full[13:14, :])

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
    def test_symmetry_is_exact(self, kernel):
        rng = np.random.default_rng(1)
        X, Z = _rows(rng, 31), _rows(rng, 17)
        assert np.array_equal(kernel(X, Z), kernel(Z, X).T)

    def test_pairwise_helpers_shape_independent(self):
        rng = np.random.default_rng(2)
        X, Z = _rows(rng, 53), _rows(rng, 29)
        assert np.array_equal(pairwise_dot(X, Z)[7:9], pairwise_dot(X[7:9], Z))
        assert np.array_equal(
            pairwise_sq_dists(X, Z)[11:12], pairwise_sq_dists(X[11:12], Z)
        )
        assert (pairwise_sq_dists(X, X) >= 0).all()


class TestGramCacheExactness:
    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
    def test_append_only_growth(self, kernel):
        rng = np.random.default_rng(3)
        cache = GramCache()
        X = _rows(rng, 20)
        for _ in range(8):
            K = cache.gram(kernel, X)
            assert np.array_equal(K, kernel(X, X))
            X = np.vstack([X, _rows(rng, 7)])

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
    def test_eviction_plus_append(self, kernel):
        rng = np.random.default_rng(4)
        cache = GramCache()
        X = _rows(rng, 40)
        cache.gram(kernel, X)
        for _ in range(6):
            evicted = 5
            X = np.vstack([X[evicted:], _rows(rng, 9)])
            K = cache.gram(kernel, X, evicted=evicted)
            assert np.array_equal(K, kernel(X, X))

    def test_randomized_operation_sequences(self):
        # Property-style: seeded random interleavings of append, evict,
        # in-place row replacement, and invalidation, checked for
        # bit-identity after every single operation.
        kernel = RBFKernel(gamma=0.5)
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            cache = GramCache()
            X = _rows(rng, 12)
            evicted = 0
            for _ in range(25):
                op = rng.integers(4)
                if op == 0:  # append a small batch
                    X = np.vstack([X, _rows(rng, int(rng.integers(1, 6)))])
                elif op == 1 and X.shape[0] > 8:  # evict from the front
                    k = int(rng.integers(1, 4))
                    X = X[k:]
                    evicted += k
                elif op == 2:  # replace a row in place (relabel-style
                    # mutation of the matrix: must be detected, not reused)
                    X = X.copy()
                    X[int(rng.integers(X.shape[0]))] = _rows(rng, 1)[0]
                else:
                    cache.invalidate()
                K = cache.gram(kernel, X, evicted=evicted)
                evicted = 0
                assert np.array_equal(K, kernel(X, X))

    def test_wrong_eviction_hint_still_exact(self):
        kernel = LinearKernel()
        rng = np.random.default_rng(6)
        cache = GramCache()
        X = _rows(rng, 30)
        cache.gram(kernel, X)
        X2 = np.vstack([X[4:], _rows(rng, 3)])  # actually evicted 4
        for bad_hint in (0, 2, 11, -3, 999):
            K = cache.gram(kernel, X2, evicted=bad_hint)
            assert np.array_equal(K, kernel(X2, X2))
            cache.invalidate()
            cache.gram(kernel, X)

    def test_kernel_change_is_detected(self):
        rng = np.random.default_rng(7)
        cache = GramCache()
        X = _rows(rng, 25)
        cache.gram(RBFKernel(gamma=0.5), X)
        K = cache.gram(RBFKernel(gamma=0.9), X)
        assert np.array_equal(K, RBFKernel(gamma=0.9)(X, X))

    def test_unfrozen_rbf_rejected(self):
        cache = GramCache()
        with pytest.raises(ValueError, match="frozen"):
            cache.gram(RBFKernel(gamma="scale"), np.eye(3))

    def test_frozen_kernel_accepted(self):
        rng = np.random.default_rng(8)
        X = _rows(rng, 10)
        frozen = freeze_kernel(RBFKernel(gamma="scale"), X)
        K = GramCache().gram(frozen, X)
        assert np.array_equal(K, frozen(X, X))


class TestGramCacheObservability:
    def test_hit_miss_invalidation_counters(self):
        obs = Obs.recording()
        cache = GramCache(obs=obs)
        kernel = LinearKernel()
        rng = np.random.default_rng(9)
        X = _rows(rng, 15)
        cache.gram(kernel, X)  # cold: miss
        X = np.vstack([X, _rows(rng, 5)])
        cache.gram(kernel, X)  # hit
        cache.invalidate()
        cache.gram(kernel, X)  # miss again
        reg = obs.registry
        assert reg.counter("gram.cache.misses").value == 2
        assert reg.counter("gram.cache.hits").value == 1
        assert reg.counter("gram.cache.invalidations").value == 1
        assert reg.gauge("gram.rows_reused").value == 0  # last call was a miss

    def test_rows_reused_gauge_on_hit(self):
        obs = Obs.recording()
        cache = GramCache(obs=obs)
        kernel = LinearKernel()
        rng = np.random.default_rng(10)
        X = _rows(rng, 15)
        cache.gram(kernel, X)
        cache.gram(kernel, np.vstack([X, _rows(rng, 4)]))
        assert obs.registry.gauge("gram.rows_reused").value == 15
        assert cache.last_rows_reused == 15

    def test_invalidate_on_empty_cache_counts_nothing(self):
        obs = Obs.recording()
        cache = GramCache(obs=obs)
        cache.invalidate()
        assert obs.registry.counter("gram.cache.invalidations").value == 0


class TestLearnerCacheBitIdentity:
    """The acceptance property: with the Gram cache as the only delta,
    every retrain's model — and therefore every decision and margin —
    is bit-identical."""

    def _run(self, use_cache, n, seed, max_buffer=None):
        learner = BatchOnlineSVM(
            batch_size=15, use_gram_cache=use_cache, max_buffer=max_buffer
        )
        rng = np.random.default_rng(seed)
        margins = []
        for _ in range(n):
            x = rng.uniform(-2, 2, size=4)
            learner.observe(x, 1.0 if (x**2).sum() < 4.0 else -1.0)
            if learner.is_trained:
                margins.append(float(learner.decision_function(x)[0]))
        return learner, np.asarray(margins)

    @pytest.mark.parametrize("max_buffer", [None, 120])
    def test_margins_bit_identical_cache_on_off(self, max_buffer):
        _, cold = self._run(False, 400, seed=11, max_buffer=max_buffer)
        _, cached = self._run(True, 400, seed=11, max_buffer=max_buffer)
        assert np.array_equal(cold, cached)

    def test_cache_actually_hits(self):
        obs = Obs.recording()
        learner = BatchOnlineSVM(batch_size=15, use_gram_cache=True, obs=obs)
        rng = np.random.default_rng(12)
        for _ in range(200):
            x = rng.uniform(-2, 2, size=4)
            learner.observe(x, 1.0 if (x**2).sum() < 4.0 else -1.0)
        reg = obs.registry
        assert reg.counter("gram.cache.hits").value > 0
        hist = reg.histogram("retrain.amortization")
        assert hist.count == learner.n_retrains
        assert hist.max > 0.5  # most retrains reuse most of the matrix

    def test_cache_off_records_cold_amortization(self):
        obs = Obs.recording()
        learner = BatchOnlineSVM(batch_size=10, use_gram_cache=False, obs=obs)
        rng = np.random.default_rng(13)
        for _ in range(40):
            x = rng.uniform(-2, 2, size=3)
            learner.observe(x, 1.0 if x.sum() > 0 else -1.0)
        hist = obs.registry.histogram("retrain.amortization")
        assert hist.count == learner.n_retrains
        assert hist.max == 0.0  # repro: noqa[NUM001] -- exact cold-path sentinel
