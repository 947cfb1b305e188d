"""Tests for the from-scratch SMO-trained SVC."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.closedloop import run_closed_loop
from repro.experiments.harness import ExBoxScheme
from repro.ml.svm import NotFittedError, SVC
from repro.testbed.wifi_testbed import WiFiTestbed


def _linear_problem(n=200, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = np.where(X @ np.array([1.0, 2.0, -1.0]) > 0, 1.0, -1.0)
    if noise:
        flip = rng.random(n) < noise
        y[flip] *= -1
    return X, y


class TestFitBasics:
    def test_linearly_separable_high_accuracy(self):
        X, y = _linear_problem()
        model = SVC(C=10.0, kernel="linear").fit(X, y)
        assert model.score(X, y) >= 0.98

    def test_rbf_on_nonlinear_boundary(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-2, 2, size=(400, 2))
        y = np.where(X[:, 0] ** 2 + X[:, 1] ** 2 < 2.0, 1.0, -1.0)
        model = SVC(C=10.0, kernel="rbf").fit(X, y)
        assert model.score(X, y) >= 0.93

    def test_generalizes_to_held_out(self):
        X, y = _linear_problem(n=300, seed=2)
        Xt, yt = _linear_problem(n=150, seed=3)
        model = SVC(C=10.0, kernel="rbf").fit(X, y)
        assert model.score(Xt, yt) >= 0.9

    def test_tolerates_label_noise(self):
        X, y = _linear_problem(n=300, seed=4, noise=0.05)
        model = SVC(C=1.0, kernel="rbf").fit(X, y)
        assert model.score(X, y) >= 0.85

    def test_fit_returns_self(self):
        X, y = _linear_problem(n=20)
        model = SVC()
        assert model.fit(X, y) is model


class TestDegenerateInputs:
    def test_single_class_positive(self):
        X = np.random.default_rng(5).normal(size=(10, 2))
        model = SVC().fit(X, np.ones(10))
        # predict() emits the exact sentinels ±1.0 via np.where.
        assert np.all(model.predict(X) == 1.0)  # repro: noqa[NUM001]
        assert model.is_constant_

    def test_single_class_negative(self):
        X = np.random.default_rng(6).normal(size=(10, 2))
        model = SVC().fit(X, -np.ones(10))
        # predict() emits the exact sentinels ±1.0 via np.where.
        assert np.all(model.predict(X) == -1.0)  # repro: noqa[NUM001]

    def test_two_points(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([-1.0, 1.0])
        model = SVC(C=10.0, kernel="linear").fit(X, y)
        assert model.score(X, y) == pytest.approx(1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            SVC().fit(np.zeros((0, 2)), np.zeros(0))

    def test_bad_labels_raise(self):
        X = np.zeros((3, 1))
        with pytest.raises(ValueError, match="labels"):
            SVC().fit(X, [0.0, 1.0, 2.0])

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            SVC().fit(np.zeros((3, 1)), [1.0, -1.0])

    def test_bad_C_raises(self):
        with pytest.raises(ValueError):
            SVC(C=0.0)


class TestInference:
    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            SVC().predict(np.zeros((1, 2)))
        with pytest.raises(NotFittedError):
            SVC().decision_function(np.zeros((1, 2)))

    def test_feature_count_checked(self):
        X, y = _linear_problem(n=30)
        model = SVC().fit(X, y)
        with pytest.raises(ValueError, match="features"):
            model.predict(np.zeros((1, 5)))

    def test_decision_sign_matches_predict(self):
        X, y = _linear_problem(n=100, seed=7)
        model = SVC(C=5.0).fit(X, y)
        scores = model.decision_function(X)
        preds = model.predict(X)
        assert np.all(np.sign(scores + 1e-15) == preds)

    def test_margin_larger_deep_inside(self):
        # Points far from the boundary should carry larger margins —
        # the property ExBox's network selection relies on.
        X, y = _linear_problem(n=400, seed=8)
        model = SVC(C=10.0, kernel="linear").fit(X, y)
        w = np.array([1.0, 2.0, -1.0])
        deep = (w / np.linalg.norm(w)) * 3.0
        shallow = (w / np.linalg.norm(w)) * 0.2
        assert model.decision_function([deep])[0] > model.decision_function([shallow])[0]

    def test_support_vector_introspection(self):
        X, y = _linear_problem(n=80, seed=9)
        model = SVC(C=10.0).fit(X, y)
        assert 0 < model.n_support_ <= 80
        assert model.support_vectors_.shape[1] == 3
        assert isinstance(model.intercept_, float)

    def test_repr_mentions_params(self):
        text = repr(SVC(C=2.0))
        assert "C=2.0" in text


class TestDeterminism:
    def test_same_data_same_model(self):
        X, y = _linear_problem(n=120, seed=10)
        a = SVC(C=10.0).fit(X, y)
        b = SVC(C=10.0).fit(X, y)
        Xt = np.random.default_rng(11).normal(size=(40, 3))
        assert np.allclose(a.decision_function(Xt), b.decision_function(Xt))

    def test_fits_bit_identical_across_repeated_calls_with_same_seed(self):
        # The SMO pair selection is deterministic, so repeated fits must
        # agree to the last bit, not merely within tolerance.
        X, y = _linear_problem(n=150, seed=12, noise=0.05)
        Xt = np.random.default_rng(13).normal(size=(60, 3))
        a = SVC(C=5.0, kernel="rbf").fit(X, y)
        b = SVC(C=5.0, kernel="rbf").fit(X, y)
        assert np.array_equal(a.alpha_all_, b.alpha_all_)
        assert a.intercept_ == b.intercept_  # repro: noqa[NUM001] — bit-identity is the property under test
        assert np.array_equal(a.support_vectors_, b.support_vectors_)
        assert a.decision_function(Xt).tobytes() == b.decision_function(Xt).tobytes()


class TestGammaFreezing:
    def test_scale_gamma_frozen_at_fit(self):
        # gamma="scale" must resolve against the *training* rows once;
        # re-resolving against the support vectors (the old behaviour)
        # gives a different bandwidth and different margins.
        X, y = _linear_problem(n=180, seed=20, noise=0.05)
        Xt = np.random.default_rng(21).normal(size=(80, 3))
        auto = SVC(C=10.0, kernel="rbf", gamma="scale").fit(X, y)
        explicit_gamma = 1.0 / (X.shape[1] * float(X.var()))
        explicit = SVC(C=10.0, kernel="rbf", gamma=explicit_gamma).fit(X, y)
        assert np.array_equal(
            auto.decision_function(Xt), explicit.decision_function(Xt)
        )

    def test_frozen_gamma_differs_from_sv_resolved(self):
        # Regression guard for the old bug: unless every training row is
        # a support vector, variance over SVs differs from variance over
        # the training set, so the bandwidths must differ.
        X, y = _linear_problem(n=180, seed=22, noise=0.05)
        model = SVC(C=10.0, kernel="rbf", gamma="scale").fit(X, y)
        assert model.n_support_ < X.shape[0]
        sv_gamma = 1.0 / (X.shape[1] * float(model.support_vectors_.var()))
        assert model._fit_kernel.gamma != pytest.approx(sv_gamma, rel=1e-6)


class TestOptimality:
    def test_solution_satisfies_kkt(self):
        X, y = _linear_problem(n=400, seed=28, noise=0.1)
        model = SVC(C=10.0, kernel="rbf").fit(X, y)
        alpha, b = model.alpha_all_, model.intercept_
        K = model._fit_kernel(X, X)
        f = (alpha * y) @ K + b
        eps, tol = 1e-8, model.tol
        margins = y * f
        # Free SVs sit on the margin; bound-0 points outside, bound-C inside.
        free = (alpha > eps) & (alpha < model.C - eps)
        assert np.all(np.abs(margins[free] - 1.0) < 20 * tol)
        assert np.all(margins[alpha <= eps] > 1.0 - 20 * tol)
        assert np.all(margins[alpha >= model.C - eps] < 1.0 + 20 * tol)

    def test_warm_start_keeps_training_accuracy(self):
        X, y = _linear_problem(n=300, seed=30, noise=0.05)
        cold = SVC(C=10.0).fit(X, y)
        warm = SVC(C=10.0).fit(X, y, alpha_init=cold.alpha_all_)
        assert warm.score(X, y) >= cold.score(X, y) - 0.02


def _oracle_decision_function(model, X):
    """The inference body ``SVC`` had before its per-row reduction: one
    kernel matrix against the support vectors, contracted by BLAS
    (``coef @ K``), whose rounding depends on the batch shape."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if model.is_constant_:
        return np.full(X.shape[0], model.intercept_)
    if model.n_support_ == 0:
        return np.full(X.shape[0], model._b)
    alpha_sv_y = model._coef  # alpha * sv_y, formed once at fit time
    K = model._fit_kernel(model._sv_X, X)
    return np.asarray(alpha_sv_y @ K + model._b)


def _mixed_fit(kernel, n, d, seed):
    """A two-class fit with label noise, so many rows are support vectors."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = np.where(X[:, 0] + 0.5 * X[:, -1] ** 2 > 0.5, 1.0, -1.0)
    y[rng.random(n) < 0.15] *= -1
    y[:2] = (1.0, -1.0)
    model = SVC(C=10.0, kernel=kernel).fit(X, y)
    return model, rng.normal(size=(40, d))


class TestEntryExactMargins:
    """A row's margin is a pure function of that row: alone, in any
    subset or in any order it equals its row of the full batch."""

    @given(
        kernel=st.sampled_from(["rbf", "linear", "poly"]),
        n=st.integers(8, 300),
        d=st.integers(1, 10),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_row_alone_subset_and_permutation_match_batch(
        self, kernel, n, d, seed, data
    ):
        model, Xq = _mixed_fit(kernel, n, d, seed)
        full = model.decision_function(Xq)
        for i in range(Xq.shape[0]):
            assert model.decision_function(Xq[i]).tobytes() == full[i : i + 1].tobytes()
        order = data.draw(st.permutations(range(Xq.shape[0])))
        subset = order[: data.draw(st.integers(1, Xq.shape[0]))]
        assert model.decision_function(Xq[subset]).tobytes() == full[subset].tobytes()

    @pytest.mark.parametrize("d", [1, 4, 7, 8, 10])
    def test_rbf_rows_match_training_kernel(self, d):
        """Inference RBF rows equal the training kernel
        (``pairwise_sq_dists``) bit for bit below 8 features; from 8 on,
        numpy's pairwise sum over features may round the squared distance
        differently, by a relative ``(d - 1) * eps`` at most."""
        model, Xq = _mixed_fit("rbf", 200, d, seed=d)
        K = model._fit_kernel(Xq, model.support_vectors_)
        via_training_kernel = (K * model._coef).sum(axis=1) + model.intercept_
        margins = model.decision_function(Xq)
        if d < 8:
            assert margins.tobytes() == via_training_kernel.tobytes()
        else:
            # |ds| <= (d - 1) eps s moves exp(-gamma s) by at most
            # (d - 1) eps / e (+ 1 ulp), and reducing slightly different
            # terms over m support vectors rounds apart by <= m eps each.
            eps = np.finfo(float).eps
            m = model.n_support_
            atol = (d + m) * eps * np.abs(model._coef).sum()
            assert np.all(np.abs(margins - via_training_kernel) <= atol)


class TestOracleMargins:
    """Against the old ``coef @ K`` body, margins move only by rounding."""

    @pytest.mark.parametrize("kernel", ["rbf", "linear", "poly"])
    @pytest.mark.parametrize("n,d", [(200, 4), (600, 3), (400, 9)])
    def test_margins_within_rounding_of_oracle(self, kernel, n, d):
        model, Xq = _mixed_fit(kernel, n, d, seed=n + d)
        Xq = np.vstack([Xq, np.random.default_rng(d).normal(size=(400, d))])
        ours = model.decision_function(Xq)
        oracle = _oracle_decision_function(model, Xq)
        if kernel == "poly":
            # Cubic kernel values reach the hundreds here and their
            # weighted sum cancels, so both summation orders are exact
            # only to within ~m ulps of the terms' absolute sum.
            terms = np.abs(model._fit_kernel(Xq, model.support_vectors_) * model._coef)
            bound = 2 * model.n_support_ * np.finfo(float).eps * terms.sum(axis=1)
        else:
            bound = 1e-12 * (1.0 + np.abs(oracle))
        assert np.all(np.abs(ours - oracle) <= bound)
        assert np.array_equal(ours >= 0, oracle >= 0)

    def test_closed_loop_makes_the_oracles_decisions(self, monkeypatch):
        def episode():
            decisions = []
            inner = SVC.decision_function

            def recording(self, X):
                margins = inner(self, X)
                decisions.extend((margins >= 0).tolist())
                return margins

            monkeypatch.setattr(SVC, "decision_function", recording)
            result = run_closed_loop(
                ExBoxScheme(batch_size=20), WiFiTestbed(), seed=17,
                duration_min=60, arrivals_per_min=4.0,
            )
            return decisions, result.as_row()

        ours = episode()
        monkeypatch.setattr(SVC, "decision_function", _oracle_decision_function)
        oracle = episode()
        assert len(ours[0]) >= 200
        assert ours == oracle
