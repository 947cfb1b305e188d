"""Tests for repro.ml.kernels."""

import numpy as np
import pytest

from repro.ml.kernels import (
    LinearKernel,
    PolynomialKernel,
    RBFKernel,
    pairwise_dot,
    pairwise_sq_dists,
    resolve_kernel,
)


class TestLinearKernel:
    def test_matches_inner_product(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        Z = np.array([[5.0, 6.0]])
        K = LinearKernel()(X, Z)
        assert K.shape == (2, 1)
        assert K[0, 0] == pytest.approx(17.0)
        assert K[1, 0] == pytest.approx(39.0)

    def test_symmetric_gram(self):
        X = np.random.default_rng(0).normal(size=(6, 3))
        K = LinearKernel()(X, X)
        assert np.allclose(K, K.T)

    def test_equality_and_hash(self):
        assert LinearKernel() == LinearKernel()
        assert hash(LinearKernel()) == hash(LinearKernel())


class TestRBFKernel:
    def test_diagonal_is_one(self):
        X = np.random.default_rng(1).normal(size=(5, 4))
        K = RBFKernel(gamma=0.7)(X, X)
        assert np.allclose(np.diag(K), 1.0)

    def test_values_in_unit_interval(self):
        X = np.random.default_rng(2).normal(size=(8, 3))
        K = RBFKernel(gamma=1.3)(X, X)
        assert np.all(K > 0)
        assert np.all(K <= 1.0 + 1e-12)

    def test_known_value(self):
        X = np.array([[0.0]])
        Z = np.array([[1.0]])
        K = RBFKernel(gamma=2.0)(X, Z)
        assert K[0, 0] == pytest.approx(np.exp(-2.0))

    def test_scale_gamma_resolution(self):
        X = np.random.default_rng(3).normal(size=(10, 4))
        k = RBFKernel(gamma="scale")
        expected_gamma = 1.0 / (4 * X.var())
        K = k(X, X)
        manual = RBFKernel(gamma=expected_gamma)(X, X)
        assert np.allclose(K, manual)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            RBFKernel(gamma=-1.0)
        with pytest.raises(ValueError):
            RBFKernel(gamma="banana")

    def test_farther_points_smaller_kernel(self):
        k = RBFKernel(gamma=1.0)
        near = k(np.array([[0.0]]), np.array([[0.1]]))[0, 0]
        far = k(np.array([[0.0]]), np.array([[2.0]]))[0, 0]
        assert near > far


class TestPolynomialKernel:
    def test_degree_one_is_affine_linear(self):
        X = np.array([[1.0, 1.0]])
        Z = np.array([[2.0, 3.0]])
        K = PolynomialKernel(degree=1, coef0=1.0)(X, Z)
        assert K[0, 0] == pytest.approx(6.0)

    def test_degree_two(self):
        X = np.array([[1.0]])
        Z = np.array([[2.0]])
        K = PolynomialKernel(degree=2, coef0=0.0)(X, Z)
        assert K[0, 0] == pytest.approx(4.0)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            PolynomialKernel(degree=0)


class TestResolveKernel:
    def test_by_name(self):
        assert isinstance(resolve_kernel("linear"), LinearKernel)
        assert isinstance(resolve_kernel("rbf"), RBFKernel)
        assert isinstance(resolve_kernel("poly"), PolynomialKernel)

    def test_kwargs_forwarded(self):
        k = resolve_kernel("rbf", gamma=0.25)
        assert k.gamma == pytest.approx(0.25)

    def test_callable_passthrough(self):
        def custom(X, Z):
            return np.zeros((len(X), len(Z)))

        assert resolve_kernel(custom) is custom

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel("sigmoid")


KERNELS = [
    LinearKernel(),
    RBFKernel(gamma=0.35),
    PolynomialKernel(degree=3, coef0=1.0),
]


def _rows(rng, n, d=5):
    return rng.normal(size=(n, d))


class TestEntryExactness:
    """Every Gram entry is a pure function of its row pair, independent
    of matrix shape: what makes a single decision bit-identical to its
    row of a batched ``classify_batch`` call."""

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
