"""Tests for the IQX hypothesis fitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.qoe_estimator import _DEFAULT_DELAYS_S, _DEFAULT_RATES_BPS
from repro.experiments.figures import trained_estimator
from repro.qoe.iqx import GAMMA_MAX, GAMMA_MIN, IQXModel, fit_iqx, normalize_qos
from repro.testbed.devices import TrainingDevice
from repro.traffic.flows import APP_CLASSES, CONFERENCING, STREAMING, WEB


def _rss(x, qoe, alpha, beta, gamma):
    return float(np.sum((alpha + beta * np.exp(-gamma * x) - qoe) ** 2))


def oracle_rss(x, qoe, n_gammas=20001):
    """Brute force: the best RSS over a dense log grid of gammas, with
    alpha and beta solved in closed form at each one."""
    best = float("inf")
    for gammas in np.array_split(np.geomspace(GAMMA_MIN, GAMMA_MAX, n_gammas), 20):
        e = np.exp(-gammas[:, None] * x[None, :])
        e_c = e - e.mean(axis=1, keepdims=True)
        beta = e_c @ (qoe - qoe.mean()) / np.sum(e_c**2, axis=1)
        alpha = qoe.mean() - beta * e.mean(axis=1)
        resid = alpha[:, None] + beta[:, None] * e - qoe[None, :]
        best = min(best, float(np.min(np.sum(resid**2, axis=1))))
    return best


def assert_fit_matches_oracle(qos, qoe):
    qoe = np.asarray(qoe, dtype=float)
    model = fit_iqx(qos, qoe)
    x, _, _ = normalize_qos(qos)
    rss = _rss(x, qoe, model.alpha, model.beta, model.gamma)
    # 1e-20 * sum(qoe^2) only absorbs rounding when both RSS are ~0.
    assert rss <= oracle_rss(x, qoe) * (1 + 1e-9) + 1e-20 * float(np.sum(qoe**2))
    assert GAMMA_MIN <= model.gamma <= GAMMA_MAX
    return model


def _iqx_samples(alpha, beta, gamma, n, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    qos = np.exp(rng.uniform(0.0, 6.0, n))
    x, _, _ = normalize_qos(qos)
    return qos, alpha + beta * np.exp(-gamma * x) + rng.normal(0.0, noise, n)


class TestNormalizeQos:
    def test_unit_interval(self):
        scaled, lo, hi = normalize_qos([1.0, 10.0, 100.0])
        assert scaled.min() == pytest.approx(0.0) and scaled.max() == pytest.approx(1.0)
        assert lo == pytest.approx(1.0) and hi == pytest.approx(100.0)

    def test_log_scale_spreads_orders_of_magnitude(self):
        scaled, _, _ = normalize_qos([1.0, 10.0, 100.0], log_scale=True)
        assert scaled[1] == pytest.approx(0.5)

    def test_linear_scale(self):
        scaled, _, _ = normalize_qos([0.0, 5.0, 10.0], log_scale=False)
        assert scaled[1] == pytest.approx(0.5)

    def test_pinned_bounds_clip(self):
        scaled, _, _ = normalize_qos([200.0], lo=1.0, hi=100.0)
        assert scaled[0] == pytest.approx(1.0)

    def test_degenerate_range_raises(self):
        with pytest.raises(ValueError):
            normalize_qos([5.0, 5.0])

    def test_log_scale_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            normalize_qos([0.0, 1.0], log_scale=True)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            normalize_qos([])


class TestFitIqx:
    def _synthetic(self, alpha, beta, gamma, noise=0.0, n=80, seed=0):
        rng = np.random.default_rng(seed)
        qos = np.geomspace(0.5, 500.0, n)
        x = (np.log(qos) - np.log(qos.min())) / (np.log(qos.max()) - np.log(qos.min()))
        qoe = alpha + beta * np.exp(-gamma * x)
        if noise:
            qoe = qoe + rng.normal(0, noise, n)
        return qos, qoe

    def test_recovers_parameters(self):
        qos, qoe = self._synthetic(2.0, 10.0, 4.0)
        model = fit_iqx(qos, qoe)
        assert model.alpha == pytest.approx(2.0, abs=0.2)
        assert model.beta == pytest.approx(10.0, abs=0.5)
        assert model.gamma == pytest.approx(4.0, abs=0.5)
        assert model.rmse < 0.05

    def test_noisy_fit_reasonable(self):
        qos, qoe = self._synthetic(2.0, 10.0, 4.0, noise=0.5)
        model = fit_iqx(qos, qoe)
        assert model.rmse < 1.0

    def test_increasing_metric_orientation(self):
        # PSNR-like: QoE grows toward a ceiling with QoS.
        qos, qoe = self._synthetic(37.0, -20.0, 3.0)
        model = fit_iqx(qos, qoe)
        assert model.beta < 0
        assert model.predict(qos[-1]) > model.predict(qos[0])

    def test_predict_matches_curve(self):
        qos, qoe = self._synthetic(1.0, 5.0, 2.0)
        model = fit_iqx(qos, qoe)
        mid = float(np.sqrt(qos[0] * qos[-1]))
        assert model.predict(mid) == pytest.approx(
            float(model.predict_many([mid])[0]), rel=1e-9
        )

    def test_predict_clamps_out_of_range(self):
        qos, qoe = self._synthetic(1.0, 5.0, 2.0)
        model = fit_iqx(qos, qoe)
        assert model.predict(1e9) == pytest.approx(model.predict(qos[-1]), rel=1e-6)
        assert model.predict(1e-9) == pytest.approx(model.predict(qos[0]), rel=1e-6)

    def test_too_few_samples_raises(self):
        with pytest.raises(ValueError):
            fit_iqx([1.0, 2.0], [1.0, 2.0])

    def test_mismatched_raises(self):
        with pytest.raises(ValueError):
            fit_iqx([1.0, 2.0, 3.0], [1.0])


class TestFitAgainstOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(-50.0, 50.0),
        beta=st.floats(-100.0, 100.0),
        log10_gamma=st.floats(-3.0, 3.0),
        n=st.integers(3, 60),
        noise=st.floats(0.0, 5.0),
        seed=st.integers(0, 2**16),
    )
    def test_rss_no_worse_than_dense_grid(self, alpha, beta, log10_gamma, n, noise, seed):
        qos, qoe = _iqx_samples(alpha, beta, 10.0**log10_gamma, n, noise, seed)
        assert_fit_matches_oracle(qos, qoe)

    @pytest.mark.parametrize("gamma", [0.05, 4.0, 150.0])
    def test_exact_data_locates_gamma_to_tolerance(self, gamma):
        # Noise-free data has a sharp RSS minimum at the true gamma, so
        # the 1e-10 bracket the docstring states shows up in gamma itself.
        qos, qoe = _iqx_samples(2.0, 10.0, gamma, n=40, seed=7)
        model = fit_iqx(qos, qoe)
        assert model.gamma == pytest.approx(gamma, rel=1e-9)
        assert (model.alpha, model.beta) == pytest.approx((2.0, 10.0), rel=1e-6)

    def test_flat_qoe(self):
        qos = np.geomspace(1.0, 100.0, 30)
        model = assert_fit_matches_oracle(qos, np.full(30, 3.7))
        assert model.rmse == pytest.approx(0.0, abs=1e-12)
        assert model.predict(10.0) == pytest.approx(3.7, rel=1e-12)

    def test_optimum_at_upper_bound(self):
        # A step steeper than GAMMA_MAX allows: the best fit sits on it.
        qos, qoe = _iqx_samples(1.0, 5.0, 2000.0, n=50, seed=3)
        model = assert_fit_matches_oracle(qos, qoe)
        assert model.gamma == pytest.approx(GAMMA_MAX, rel=1e-9)

    def test_optimum_near_zero(self):
        qos, qoe = _iqx_samples(1.0, 400.0, 0.01, n=50, noise=0.01, seed=4)
        model = assert_fit_matches_oracle(qos, qoe)
        assert model.gamma < 0.1

    def test_three_samples(self):
        qos, qoe = _iqx_samples(2.0, 10.0, 4.0, n=3, seed=5)
        model = assert_fit_matches_oracle(qos, qoe)
        assert model.rmse < 1e-6

    @pytest.mark.parametrize("beta", [-20.0, 20.0])
    def test_rising_and_falling_need_no_hint(self, beta):
        qos, qoe = _iqx_samples(37.0, beta, 3.0, n=80, noise=0.3, seed=6)
        model = assert_fit_matches_oracle(qos, qoe)
        assert np.sign(model.beta) == np.sign(beta)
        assert model.decreasing == (beta > 0)


class TestMatchesPreviousSolver:
    """(alpha, beta, gamma) of the iterative solver this fit replaced (a
    bounded non-linear least-squares search started from a guessed
    point, which stops at its own tolerance) on the three classes of
    ``trained_estimator(seed=3)``."""

    ITERATIVE_FIT = {
        WEB: (-21.273671320763487, 59.10799613331398, 1.2214722135888891),
        STREAMING: (-102.49179854333599, 140.28858986588568, 0.37684169458270683),
        CONFERENCING: (43.12893821082504, -40.30526370727057, 1.722098690112286),
    }

    def test_no_worse_and_within_1e3(self):
        data = TrainingDevice().collect_training_data(
            APP_CLASSES, _DEFAULT_RATES_BPS, _DEFAULT_DELAYS_S,
            runs_per_point=4, rng=np.random.default_rng(3),
        )
        estimator = trained_estimator(seed=3)
        for cls, old in self.ITERATIVE_FIT.items():
            qos = [s[0] for s in data[cls]]
            qoe = np.array([s[1] for s in data[cls]])
            model = fit_iqx(qos, qoe)
            assert estimator.model_for(cls) == model
            x, _, _ = normalize_qos(qos)
            assert _rss(x, qoe, model.alpha, model.beta, model.gamma) <= _rss(x, qoe, *old)
            new = (model.alpha, model.beta, model.gamma)
            assert new == pytest.approx(old, rel=1e-3)


class TestIQXModel:
    def test_decreasing_flag(self):
        falling = IQXModel(alpha=1.0, beta=5.0, gamma=2.0, qos_lo=1, qos_hi=10)
        rising = IQXModel(alpha=37.0, beta=-5.0, gamma=2.0, qos_lo=1, qos_hi=10)
        assert falling.decreasing
        assert not rising.decreasing

    def test_monotone_prediction(self):
        model = IQXModel(alpha=1.0, beta=5.0, gamma=2.0, qos_lo=1.0, qos_hi=100.0)
        values = [model.predict(q) for q in (1.0, 5.0, 20.0, 100.0)]
        assert values == sorted(values, reverse=True)
