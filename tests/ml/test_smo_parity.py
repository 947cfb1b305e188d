"""Tol-equivalence of the SMO solver with its pure pair-round reference.

``SVC._rounds`` runs WSS2 pair rounds in preallocated buffers and, once
the active set has gone unchanged for the rounds ``SVC._newton_due``
allows, finishes the free multipliers with one Newton step
(``SVC._newton``). ``_OracleSVC`` keeps the plain pair loop with no
Newton step. Both stop on the same rule, a full-set Keerthi gap below
``2 tol``, so their fits are tol-equivalent rather than bit-identical.
This file states what that means and checks it:

- every fit keeps ``0 <= alpha <= C`` and ``|y . alpha| <= 1e-12 C n``,
  and a fit that stops as converged has a Keerthi gap, recomputed from
  its duals, below ``2 tol``;
- when both converge, their dual objectives differ by less than
  ``tol * sum|alpha - alpha_oracle|``. For a feasible ``alpha`` with
  maximal violation ``delta``, convexity bounds ``W(a') - W(alpha)`` by
  ``delta/2 * |a' - alpha|_1`` for any feasible ``a'``, and ``delta < 2 tol``
  for both fits;
- training-row verdicts agree, except on rows whose margin under either
  fit is within ``MARGIN_TOL`` of 0.

With the Newton step switched off, the solver is the oracle round for
round: equal duals, bias and round count, bit for bit.
"""

from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.admittance import default_svc_factory
from repro.experiments.closedloop import run_closed_loop
from repro.experiments.harness import ExBoxScheme
from repro.ml.svm import SVC
from repro.obs.facade import Obs
from repro.testbed.wifi_testbed import WiFiTestbed

#: Largest margin, under either solver, of a training row whose verdict
#: may differ between them. Over 400 random problems drawn like the
#: property below (rbf/linear/poly, warm and cold), the 368 that both
#: solvers converged on flipped no verdict, and their objectives used at
#: most 0.6 of the bound checked here.
MARGIN_TOL = 0.05


class _OracleSVC(SVC):
    """SVC with the reference SMO inner loop: masks rebuilt through
    ``np.where``, numpy-scalar arithmetic, no ``eta`` cache, no Newton
    step and the pair update in its own ``_step``, which counts the pair
    steps that fail (each failure sends a round to the fallback scan)."""

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
    """SVC that records why each ``_rounds`` call stopped and the
    outcome of each Newton step it attempted."""

    def _rounds(self, *args, **kwargs) -> Tuple[int, str]:
        used, status = super()._rounds(*args, **kwargs)
        self.statuses.append(status)
        return used, status

    def _newton(self, *args, **kwargs) -> bool:
        taken = super()._newton(*args, **kwargs)
        self.newton.append(taken)
        self.free_sets.append(tuple(args[-1].tolist()))
        return taken

    def fit(self, *args, **kwargs) -> "SVC":
        self.statuses: List[str] = []
        self.newton: List[bool] = []
        self.free_sets: List[Tuple[int, ...]] = []
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


def _assert_invariants(model: SVC, X: np.ndarray, y: np.ndarray, converged: bool) -> None:
    """The box, the equality constraint and, for a converged fit, the
    stopping rule recomputed from the duals (the solver stopped on its
    incremental error cache, which differs by rounding, ≤ 2e-11 measured)."""
    alpha = model.alpha_all_
    assert (alpha >= 0.0).all() and (alpha <= model.C).all()
    assert abs(float(alpha @ y)) <= 1e-12 * model.C * len(y)
    if converged:
        assert _keerthi_gap(model, X, y) < 2.0 * model.tol + 1e-9


def _dual_objective(model: SVC, X: np.ndarray, y: np.ndarray) -> float:
    v = model.alpha_all_ * y
    return float(model.alpha_all_.sum() - 0.5 * v @ model._fit_kernel(X, X) @ v)


def _assert_tol_equivalent(fast: SVC, oracle: SVC, X: np.ndarray, y: np.ndarray) -> None:
    """Two converged fits of one problem: objectives within the bound the
    shared stopping rule implies, and equal verdicts away from 0."""
    w_fast, w_oracle = _dual_objective(fast, X, y), _dual_objective(oracle, X, y)
    spread = float(np.abs(fast.alpha_all_ - oracle.alpha_all_).sum())
    rounding = 1e-9 * (1.0 + abs(w_oracle))
    assert abs(w_fast - w_oracle) <= fast.tol * spread + rounding
    m_fast, m_oracle = fast.decision_function(X), oracle.decision_function(X)
    flipped = (m_fast >= 0) != (m_oracle >= 0)
    near_zero = np.minimum(np.abs(m_fast), np.abs(m_oracle)) < MARGIN_TOL
    assert not (flipped & ~near_zero).any()


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(4, 80),
    d=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    warm=st.booleans(),
    max_iter=st.sampled_from([1, 3, 17, 20000]),
    duplicates=st.sampled_from([0, 0, 3]),
    C=st.sampled_from([0.5, 10.0, 1000.0]),
    kernel=st.sampled_from(["rbf", "linear", "poly"]),
)
@example(n=20, d=3, seed=5, warm=False, max_iter=20000, duplicates=0, C=10.0, kernel="rbf")
@example(n=20, d=3, seed=5, warm=True, max_iter=20000, duplicates=0, C=10.0, kernel="rbf")
@example(n=70, d=3, seed=6, warm=False, max_iter=20000, duplicates=0, C=10.0, kernel="rbf")
@example(n=70, d=3, seed=6, warm=True, max_iter=20000, duplicates=0, C=10.0, kernel="poly")
@example(n=60, d=2, seed=225, warm=False, max_iter=20000, duplicates=0, C=10.0, kernel="linear")
def test_fit_matches_oracle(n, d, seed, warm, max_iter, duplicates, C, kernel):
    """Every fit keeps the invariants; when both solvers converge, the
    fits are tol-equivalent."""
    X, y = _problem(n, d, seed, duplicates)
    alpha_init = None
    if warm:
        # Out-of-box values exercise the clip + equality repair.
        alpha_init = np.random.default_rng(seed + 1).uniform(-0.2, 1.2 * C, n)
    params = dict(C=C, kernel=kernel, max_iter=max_iter)
    fast, oracle = _fit_pair(params, X, y, alpha_init)
    assert len(fast.statuses) == 1  # one scan per fit
    converged = fast.statuses == ["converged"]
    _assert_invariants(fast, X, y, converged)
    assert fast.n_iter_ <= max_iter
    oracle_converged = oracle.n_iter_ < max_iter and _keerthi_gap(oracle, X, y) < 2 * oracle.tol
    if converged and oracle_converged:
        _assert_tol_equivalent(fast, oracle, X, y)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(4, 60),
    seed=st.integers(0, 2**16),
    warm=st.booleans(),
    duplicates=st.sampled_from([0, 3]),
    kernel=st.sampled_from(["rbf", "linear"]),
)
def test_pair_rounds_match_oracle_without_newton(n, seed, warm, duplicates, kernel):
    """With no Newton step ever due, the pair rounds are the oracle's:
    equal duals, bias and round count, bit for bit."""
    X, y = _problem(n, 3, seed, duplicates)
    alpha_init = np.random.default_rng(seed).uniform(0.0, 10.0, n) if warm else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SVC, "_newton_due", staticmethod(lambda n_free, n: np.inf))
        fast, oracle = _fit_pair(dict(C=10.0, kernel=kernel), X, y, alpha_init)
    assert fast.newton == []
    _assert_identical(fast, oracle)


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
    """Each stopping path of ``_rounds`` is reached by both solvers;
    duplicated rows with opposite labels drive the fallback scan (the
    oracle counts its failed pair steps). The solver keeps its
    invariants on every path and is tol-equivalent where both converge."""
    X, y = _problem(n, 3, seed, duplicates)
    params = dict(C=1000.0, kernel="rbf", max_iter=max_iter)
    fast, oracle = _fit_pair(params, X, y, None)
    assert fast.statuses == [status]
    assert (oracle.failed_steps > 0) == (duplicates > 0)
    _assert_invariants(fast, X, y, status == "converged")
    if status == "converged":
        assert any(fast.newton)
        assert fast.n_iter_ < oracle.n_iter_
        _assert_tol_equivalent(fast, oracle, X, y)


def _free_state(
    X: np.ndarray, y: np.ndarray, model: SVC, seed: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every multiplier free and ``y . alpha = 0``, with a consistent
    error cache: the state ``_newton`` sees mid-solve."""
    alpha = np.random.default_rng(seed).uniform(0.2, 0.8, len(y)) * model.C
    pos = y > 0
    alpha[pos] *= alpha[~pos].sum() / alpha[pos].sum()
    K = model.kernel(X, X)
    errors = (alpha * y) @ K - y
    return alpha, errors, K


class TestNewtonStep:
    def test_rejects_linear_kernel_with_more_free_than_dimensions(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(12, 2))
        y = np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
        model = SVC(C=10.0, kernel="linear")
        alpha, errors, K = _free_state(X, y, model, seed=4)
        before = alpha.copy(), errors.copy()
        assert not model._newton(alpha, errors, y, K, np.arange(12))
        assert np.array_equal(alpha, before[0]) and np.array_equal(errors, before[1])

    def test_rejects_duplicate_rows_with_opposite_labels(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(8, 3))
        X[7] = X[2]
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        model = SVC(C=10.0, kernel="rbf", gamma=0.5)
        alpha, errors, K = _free_state(X, y, model, seed=6)
        before = alpha.copy(), errors.copy()
        assert not model._newton(alpha, errors, y, K, np.arange(8))
        assert np.array_equal(alpha, before[0]) and np.array_equal(errors, before[1])

    def test_rejected_step_waits_for_the_active_set_to_change(self):
        # Linear kernel in 2-D: the free set soon outgrows the feature
        # space, and every step on it is singular.
        X, y = _problem(60, 2, seed=225, duplicates=0)
        fast = _StatusSVC(C=1000.0, kernel="linear", max_iter=3000).fit(X, y)
        assert len(fast.newton) > 5 and not any(fast.newton)
        for before, after in zip(fast.free_sets, fast.free_sets[1:]):
            assert before != after

    def test_clipped_step_keeps_box_and_equality(self):
        X, y = _problem(40, 3, seed=8, duplicates=0)
        model = SVC(C=10.0, kernel="rbf", gamma=0.5)
        alpha, errors, K = _free_state(X, y, model, seed=9)
        assert model._newton(alpha, errors, y, K, np.arange(40))
        assert (alpha >= 0.0).all() and (alpha <= model.C).all()
        assert abs(float(alpha @ y)) <= 1e-12 * model.C * len(y)
        assert np.allclose(errors, (alpha * y) @ K - y, atol=1e-9)
        # The full step would leave the box: the ratio test stops it
        # where one multiplier lands exactly on its bound, not near it.
        on_bound = (alpha == 0.0) | (alpha == model.C)  # repro: noqa[NUM001]
        assert on_bound.sum() == 1

    def test_step_from_a_perturbed_optimum_lands_back_on_it(self):
        X, y = _problem(60, 2, seed=10, duplicates=0)
        model = SVC(C=10.0, kernel="rbf", gamma=0.5, tol=1e-6).fit(X, y)
        alpha = model.alpha_all_.copy()
        free = np.flatnonzero((alpha > 1e-3) & (alpha < model.C - 1e-3))
        assert len(free) >= 4
        # A small feasible move of the free multipliers: y_F . shift = 0.
        shift = np.random.default_rng(11).normal(size=len(free)) * 1e-3
        shift -= y[free] * (y[free] @ shift) / len(free)
        alpha[free] += shift
        K = model._fit_kernel(X, X)
        errors = (alpha * y) @ K - y
        assert model._newton(alpha, errors, y, K, free)
        assert np.allclose(alpha, model.alpha_all_, atol=1e-4)
        # Unclipped: the free set's errors are all -b, the KKT point.
        assert np.ptp(errors[free]) < 1e-9
        assert abs(float(alpha @ y)) <= 1e-12 * model.C * len(y)


def _oracle_factory() -> SVC:
    """The stock Admittance Classifier model on the pure pair loop."""
    return _OracleSVC(C=10.0, kernel="rbf")


class _RecordingScheme(ExBoxScheme):
    """ExBox adapter that records each decided verdict and observed label."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.verdicts: List[int] = []
        self.labels: List[int] = []

    def decide(self, event):
        verdict = super().decide(event)
        self.verdicts.append(int(verdict))
        return verdict

    def observe(self, event, truth):
        self.labels.append(int(truth))
        super().observe(event, truth)


@pytest.fixture(scope="module")
def seeded_episodes():
    """The seeded unit of work (WiFi testbed, seed 17, 250 minutes at 4
    arrivals/min, batch 20) run with each solver, checking the
    invariants after every fit."""
    inner_fit = SVC.fit
    fits: List[int] = []

    def checked_fit(self, X, y, alpha_init=None):
        inner_fit(self, X, y, alpha_init=alpha_init)
        X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
        if not self.is_constant_:
            _assert_invariants(self, X, y, converged=self.n_iter_ < self.max_iter)
        fits.append(self.n_iter_)
        return self

    def episode(model_factory):
        obs = Obs.recording()
        scheme = _RecordingScheme(
            batch_size=20, cv_jobs=1, model_factory=model_factory
        )
        result = run_closed_loop(
            scheme, WiFiTestbed(), seed=17, duration_min=250,
            arrivals_per_min=4.0, obs=obs,
        )
        steps = obs.registry.counter("svm.smo.steps").value
        return scheme, result, steps

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SVC, "fit", checked_fit)
        fast = episode(default_svc_factory)
        oracle = episode(_oracle_factory)
    return fast, oracle, fits


def test_closed_loop_fits_match_oracle(seeded_episodes):
    """Either solver makes the seeded episode's verdicts and labels,
    every one of them, and every fit keeps the invariants."""
    (fast, fast_result, _), (oracle, oracle_result, _), fits = seeded_episodes
    assert len(fast.verdicts) == 972
    assert fast.verdicts == oracle.verdicts
    assert fast.labels == oracle.labels
    assert fast_result.as_row() == oracle_result.as_row()
    assert fast.classifier.n_retrains > 40 and len(fits) > 2 * 40


def test_closed_loop_step_count(seeded_episodes):
    """``svm.smo.steps`` (pair rounds plus Newton steps) of the seeded
    episode, pinned; the pure pair loop needs over twice as many."""
    (_, _, steps), (_, _, oracle_steps), _ = seeded_episodes
    assert steps == 3463
    assert steps < 0.4 * oracle_steps
