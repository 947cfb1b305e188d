"""Parity of the SMO inner loop with its reference implementation.

``SVC._rounds`` is written for few numpy calls per pair round and no
allocation in it: additive set masks, buffers written with ``out=``, an
inline Python-float pair update and a per-call cache of ``eta`` rows. It
must perform the same floating-point operations in
the same order as the straightforward loop kept here as ``_OracleSVC``,
so every fit's duals, bias and round count are bit-identical to it.
A fit that stops as converged must also be optimal over the full set:
its Keerthi gap, recomputed from its duals, is below ``2 tol``.
"""

from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.closedloop import run_closed_loop
from repro.experiments.harness import ExBoxScheme
from repro.ml.svm import SVC
from repro.testbed.wifi_testbed import WiFiTestbed


class _OracleSVC(SVC):
    """SVC with the reference SMO inner loop: masks rebuilt through
    ``np.where``, numpy-scalar arithmetic, no ``eta`` cache and the pair
    update in its own ``_step``, which counts the pair steps that fail
    (each failure sends a round to the fallback scan)."""

    failed_steps = 0

    def _rounds(
        self,
        alpha: np.ndarray,
        errors: np.ndarray,
        y: np.ndarray,
        K: np.ndarray,
        max_rounds: int,
        eps: float,
    ) -> Tuple[int, str]:
        n = alpha.shape[0]
        pos = y > 0
        neg = ~pos
        bound_lo, bound_hi = alpha > eps, alpha < self.C - eps
        up = (pos & bound_hi) | (neg & bound_lo)
        low = (pos & bound_lo) | (neg & bound_hi)
        Kdiag = np.ascontiguousarray(K.diagonal())

        def _refresh(t: int) -> None:
            movable_lo, movable_hi = alpha[t] > eps, alpha[t] < self.C - eps
            if pos[t]:
                up[t], low[t] = movable_hi, movable_lo
            else:
                up[t], low[t] = movable_lo, movable_hi

        for used in range(max_rounds):
            f_up = np.where(up, errors, np.inf)
            f_low = np.where(low, errors, -np.inf)
            i = int(np.argmin(f_up))
            j = int(np.argmax(f_low))
            if not up[i] or not low[j]:
                return used, "converged"
            if errors[j] - errors[i] < 2.0 * self.tol:
                return used, "converged"
            diff = errors - errors[i]
            eta_vec = np.maximum(Kdiag + K[i, i] - 2.0 * K[i], 1e-12)
            gain = np.where(low & (diff > 0.0), diff * diff / eta_vec, -np.inf)
            j2 = int(np.argmax(gain))
            if gain[j2] > 0.0:
                j = j2
            if self._step(i, j, alpha, errors, y, K):
                _refresh(i)
                _refresh(j)
                continue
            order = np.argsort(-f_low)
            moved = False
            for k in order[: min(10, n)]:
                k = int(k)
                if k != j and low[k] and self._step(i, k, alpha, errors, y, K):
                    _refresh(i)
                    _refresh(k)
                    moved = True
                    break
            if not moved:
                return used + 1, "stuck"
        return max_rounds, "budget"

    def _step(self, i, j, alpha, errors, y, K) -> bool:
        moved = self._pair(i, j, alpha, errors, y, K)
        self.failed_steps += not moved
        return moved

    def _pair(self, i, j, alpha, errors, y, K) -> bool:
        if i == j:
            return False
        ai_old, aj_old = alpha[i], alpha[j]
        yi, yj = y[i], y[j]
        Ei, Ej = errors[i], errors[j]
        if yi != yj:
            lo = max(0.0, aj_old - ai_old)
            hi = min(self.C, self.C + aj_old - ai_old)
        else:
            lo = max(0.0, ai_old + aj_old - self.C)
            hi = min(self.C, ai_old + aj_old)
        if lo >= hi:
            return False
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if eta <= 1e-12:
            return False
        aj_new = aj_old + yj * (Ei - Ej) / eta
        aj_new = min(max(aj_new, lo), hi)
        if abs(aj_new - aj_old) < 1e-7 * (aj_new + aj_old + 1e-7):
            return False
        ai_new = ai_old + yi * yj * (aj_old - aj_new)

        di = yi * (ai_new - ai_old)
        dj = yj * (aj_new - aj_old)
        alpha[i], alpha[j] = ai_new, aj_new
        errors += di * K[i] + dj * K[j]
        return True


class _StatusSVC(SVC):
    """SVC that records why each ``_rounds`` call stopped."""

    def _rounds(self, *args, **kwargs) -> Tuple[int, str]:
        used, status = super()._rounds(*args, **kwargs)
        self.statuses.append(status)
        return used, status

    def fit(self, *args, **kwargs) -> "SVC":
        self.statuses: List[str] = []
        return super().fit(*args, **kwargs)


def _problem(
    n: int, d: int, seed: int, duplicates: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Noisy nonlinear two-class data; the last ``duplicates`` rows copy
    earlier rows with the opposite label (zero-curvature pairs)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = np.where(X[:, 0] * X[:, -1] + 0.3 * rng.normal(size=n) > 0, 1.0, -1.0)
    y[0], y[1] = 1.0, -1.0  # both classes present
    for k in range(min(duplicates, n // 2)):
        src = k % (n - duplicates)
        X[n - 1 - k] = X[src]
        y[n - 1 - k] = -y[src]
    return X, y


def _fit_pair(
    params: dict,
    X: np.ndarray,
    y: np.ndarray,
    alpha_init: Optional[np.ndarray],
) -> Tuple[SVC, SVC]:
    fast = _StatusSVC(**params).fit(X, y, alpha_init=alpha_init)
    oracle = _OracleSVC(**params).fit(X, y, alpha_init=alpha_init)
    return fast, oracle


def _assert_identical(fast: SVC, oracle: SVC) -> None:
    assert np.array_equal(fast.alpha_all_, oracle.alpha_all_)
    assert fast.intercept_ == oracle.intercept_
    assert fast.n_iter_ == oracle.n_iter_


def _keerthi_gap(model: SVC, X: np.ndarray, y: np.ndarray) -> float:
    """Full-set maximal-violating-pair gap ``max_low F - min_up F`` of a
    fit, with ``F`` recomputed from its duals (not the solver's error
    cache); ``-inf`` when one side is empty."""
    alpha, eps, C = model.alpha_all_, 1e-10, model.C
    errors = (alpha * y) @ model._fit_kernel(X, X) - y
    pos, neg = y > 0, y < 0
    up = (pos & (alpha < C - eps)) | (neg & (alpha > eps))
    low = (pos & (alpha > eps)) | (neg & (alpha < C - eps))
    if not up.any() or not low.any():
        return -np.inf
    return float(errors[low].max() - errors[up].min())


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(4, 80),
    d=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    warm=st.booleans(),
    max_iter=st.sampled_from([1, 3, 17, 100000]),
    duplicates=st.sampled_from([0, 0, 3]),
    C=st.sampled_from([0.5, 10.0, 1000.0]),
    kernel=st.sampled_from(["rbf", "linear"]),
)
@example(n=20, d=3, seed=5, warm=False, max_iter=100000, duplicates=0, C=10.0, kernel="rbf")
@example(n=20, d=3, seed=5, warm=True, max_iter=100000, duplicates=0, C=10.0, kernel="rbf")
@example(n=70, d=3, seed=6, warm=False, max_iter=100000, duplicates=0, C=10.0, kernel="rbf")
@example(n=70, d=3, seed=6, warm=True, max_iter=100000, duplicates=0, C=10.0, kernel="rbf")
def test_fit_matches_oracle(n, d, seed, warm, max_iter, duplicates, C, kernel):
    """Bit parity with the oracle, and every fit that stops as converged
    is optimal over the full set: its Keerthi gap is below ``2 tol``."""
    X, y = _problem(n, d, seed, duplicates)
    alpha_init = None
    if warm:
        # Out-of-box values exercise the clip + equality repair.
        alpha_init = np.random.default_rng(seed + 1).uniform(-0.2, 1.2 * C, n)
    params = dict(C=C, kernel=kernel, max_iter=max_iter)
    fast, oracle = _fit_pair(params, X, y, alpha_init)
    _assert_identical(fast, oracle)
    assert len(fast.statuses) == 1  # one scan per fit
    if fast.statuses == ["converged"]:
        # The solver stopped on its incremental error cache; recomputed
        # errors differ from it by rounding only (≤ 2e-11 measured).
        assert _keerthi_gap(fast, X, y) < 2.0 * fast.tol + 1e-9


@pytest.mark.parametrize(
    "n, duplicates, seed, max_iter, status",
    [
        (24, 0, 1, 5, "budget"),
        (120, 0, 3, 100000, "converged"),
        (60, 20, 4, 100000, "converged"),
        (10, 3, 0, 100000, "stuck"),
    ],
)
def test_solver_paths_match_oracle(n, duplicates, seed, max_iter, status):
    """Each stopping path of ``_rounds`` is reached and stays identical;
    duplicated rows with opposite labels drive the fallback scan (the
    oracle, identical round for round, counts its failed pair steps)."""
    X, y = _problem(n, 3, seed, duplicates)
    params = dict(C=1000.0, kernel="rbf", max_iter=max_iter)
    fast, oracle = _fit_pair(params, X, y, None)
    assert fast.statuses == [status]
    assert (oracle.failed_steps > 0) == (duplicates > 0)
    _assert_identical(fast, oracle)


def test_closed_loop_fits_match_oracle(monkeypatch):
    """Every fit of a seeded closed loop — bootstrap cross-validation,
    warm-started online retrains — matches the oracle."""
    inner_fit = SVC.fit
    fits = []

    def checked_fit(self, X, y, alpha_init=None):
        inner_fit(self, X, y, alpha_init=alpha_init)
        oracle = _OracleSVC(
            C=self.C, kernel=self.kernel, tol=self.tol,
            max_iter=self.max_iter,
        )
        inner_fit(oracle, X, y, alpha_init=alpha_init)
        _assert_identical(self, oracle)
        fits.append(self.n_iter_)
        return self

    monkeypatch.setattr(SVC, "fit", checked_fit)
    scheme = ExBoxScheme(batch_size=20, cv_jobs=1)
    run_closed_loop(
        scheme, WiFiTestbed(), seed=17, duration_min=100, arrivals_per_min=4.0
    )
    assert scheme.classifier.n_retrains > 10
    assert len(fits) > scheme.classifier.n_retrains and sum(fits) > 1000
