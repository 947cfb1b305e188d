"""Binary C-SVM trained with Sequential Minimal Optimization (SMO).

This is the learning core behind ExBox's Admittance Classifier. The paper
uses an off-the-shelf SVM (libsvm-style); this module provides an
equivalent trained from scratch on numpy, sized for the paper's regime of
tens to a few thousand training samples.

The dual soft-margin problem solved is::

    max  sum_i a_i - 1/2 sum_ij a_i a_j y_i y_j k(x_i, x_j)
    s.t. 0 <= a_i <= C,  sum_i a_i y_i = 0

using SMO (Platt 1998) with a full cached Gram matrix, an incrementally
maintained error cache and second-order working-set selection. Every
round scans the full multiplier set: libsvm's active-set heuristic pays
by computing fewer kernel columns, and here the whole Gram is built
before SMO starts, so it would only shorten a numpy scan.

Once the active set (which multipliers sit at 0, at C, or in between)
stops changing, pair rounds only polish the free multipliers. The solver
then finishes them with one Newton step, a linear solve on the free set,
as active-set SVM solvers do (SimpleSVM, Vishwanathan, Smola & Murty
2003; Scheinberg 2006), and goes on with pair rounds under the same
stopping rule.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.ml.arrays import ArrayLike
from repro.ml.kernels import Kernel, RBFKernel, freeze_kernel, resolve_kernel
from repro.obs.facade import NULL_OBS, Obs

__all__ = ["SVC", "NotFittedError"]

class NotFittedError(RuntimeError):
    """Raised when predict/decision_function is called before fit."""


class SVC:
    """Support-vector classifier for labels in {-1, +1}.

    Parameters
    ----------
    C:
        Soft-margin penalty; larger values fit the training data harder.
    kernel:
        ``"linear"``, ``"rbf"``, ``"poly"``, a kernel object from
        :mod:`repro.ml.kernels`, or any callable ``k(X, Z) -> Gram``.
    gamma:
        RBF bandwidth (only used when ``kernel == "rbf"``).
    tol:
        Duality-gap tolerance for the working-set stopping rule.
    max_iter:
        Hard cap on pair optimizations (safety valve).
    obs:
        Observability handle; a recording handle times each fit under
        the ``svm.fit`` span (Section 5.3's training-latency metric) and
        gauges the training-set and support-vector sizes. The inert
        default records nothing.

    Fits are pure: the same inputs give the same ``alpha_all_``,
    ``intercept_`` and ``n_iter_``, bit for bit. The SMO inner loop
    (:meth:`_rounds`, with the pair update inline) is tuned for few
    numpy calls and no allocation per pair round, and adds a Newton
    step on the free multipliers once the active set settles. It is
    *tol-equivalent* to the pure pair loop that
    ``tests/ml/test_smo_parity.py`` keeps as its oracle, not
    bit-identical: both stop on the same full-set Keerthi gap
    ``< 2 tol``, so their dual objectives differ by less than
    ``tol * sum|alpha - alpha_oracle|``, and that test states and checks
    how far their training margins may move.
    """

    # Fit products; populated by :meth:`fit` (guarded by ``_fitted``).
    _n_features: int
    _constant: Optional[float]
    _sv_X: np.ndarray
    _coef: np.ndarray  # alpha_i * y_i per support vector
    _alpha_all_: np.ndarray
    _b: float
    _fit_kernel: Kernel
    _gamma: Optional[float]
    _n_iter: int

    def __init__(
        self,
        C: float = 1.0,
        kernel: Union[str, Kernel] = "rbf",
        gamma: Union[float, str] = "scale",
        tol: float = 1e-3,
        max_iter: int = 100000,
        obs: Optional[Obs] = None,
    ) -> None:
        if C <= 0:
            raise ValueError("C must be positive")
        self.C = float(C)
        if kernel == "rbf":
            self.kernel = resolve_kernel("rbf", gamma=gamma)
        else:
            self.kernel = resolve_kernel(kernel)
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self.obs = obs if obs is not None else NULL_OBS
        self._fitted = False

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(
        self,
        X: ArrayLike,
        y: ArrayLike,
        alpha_init: Optional[ArrayLike] = None,
    ) -> "SVC":
        """Fit the classifier on ``X`` (n, d) and labels ``y`` in {-1, +1}.

        Degenerate single-class training sets are accepted: the model then
        becomes a constant predictor for the observed class. This happens
        early in ExBox's bootstrap phase, before the network has been
        driven past its capacity region for the first time.

        ``alpha_init`` warm-starts SMO from a previous solution's dual
        variables (incremental SVM learning, as in the online-SVM
        literature the paper cites). Out-of-bound values are clipped and
        the equality constraint ``sum alpha_i y_i = 0`` is repaired, so
        any stale vector is a legal starting point.

        Data-dependent kernel parameters (``gamma="scale"``) are
        resolved against the *training* rows exactly once, here, and
        frozen on the fitted model; inference reuses the frozen kernel
        instead of re-resolving against whatever matrix it is handed.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have mismatched lengths")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty training set")
        labels = set(y.tolist())
        if not labels <= {-1.0, 1.0}:
            raise ValueError(f"labels must be in {{-1, +1}}, got {sorted(labels)}")

        self._n_features = X.shape[1]
        self._fit_kernel = freeze_kernel(self.kernel, X)
        self._gamma = (
            float(self._fit_kernel.gamma)
            if isinstance(self._fit_kernel, RBFKernel)
            else None
        )
        if len(labels) == 1:
            # Constant predictor: no separating boundary exists yet.
            self._constant = float(y[0])
            self._sv_X = np.zeros((0, X.shape[1]))
            self._coef = np.zeros(0)
            self._alpha_all_ = np.zeros(X.shape[0])
            self._b = 0.0
            self._n_iter = 0
            self._fitted = True
            return self

        self._constant = None
        alpha0 = self._sanitize_alpha_init(alpha_init, y)
        K = np.asarray(self._fit_kernel(X, X), dtype=float)
        with self.obs.span("svm.fit"):
            self._smo(X, y, K, alpha0)
        self._fitted = True
        self.obs.counter("svm.fits").inc()
        self.obs.gauge("svm.train_samples").set(X.shape[0])
        self.obs.gauge("svm.support_vectors").set(self._sv_X.shape[0])
        return self

    def _sanitize_alpha_init(
        self, alpha_init: Optional[ArrayLike], y: np.ndarray
    ) -> Optional[np.ndarray]:
        """Clip a warm-start vector into the feasible region."""
        if alpha_init is None:
            return None
        alpha = np.clip(np.asarray(alpha_init, dtype=float).ravel(), 0.0, self.C)
        if alpha.shape[0] != y.shape[0]:
            raise ValueError("alpha_init length does not match the training set")
        # Repair the equality constraint by scaling down the heavy side.
        imbalance = float(alpha @ y)
        if abs(imbalance) > 1e-12:
            side = y == np.sign(imbalance)
            mass = float(alpha[side].sum())
            if mass <= abs(imbalance):
                return None  # cannot repair; cold-start instead
            alpha[side] *= (mass - abs(imbalance)) / mass
        return alpha

    def _smo(
        self,
        X: np.ndarray,
        y: np.ndarray,
        K: np.ndarray,
        alpha0: Optional[np.ndarray] = None,
    ) -> None:
        """SMO with second-order working-set selection.

        With ``F_i = f(x_i) - y_i``, each iteration takes ``i = argmin F``
        over the "up" set (Keerthi et al. 2001) and pairs it with the
        low-set ``j`` of maximal analytic gain (see :meth:`_rounds`);
        optimality is reached when the maximal-violating pair's gap
        closes below the tolerance.

        ``K`` is the full training Gram matrix. One :meth:`_rounds` call
        runs the whole solve over every multiplier, so a fit that stops
        as converged meets the Keerthi gap ``< 2 tol`` on the full set.
        Rounding in the pair update can leave a multiplier a few ulps
        outside ``[0, C]``; the duals are clipped into the box at the end.
        """
        n = X.shape[0]
        if alpha0 is None:
            alpha = np.zeros(n)
            # errors[i] = f_raw(x_i) - y_i with f_raw excluding the bias;
            # b cancels in every pairwise quantity SMO uses, so it is
            # reconstructed once after convergence.
            errors = -y.astype(float).copy()
        else:
            alpha = alpha0.copy()
            errors = (alpha * y) @ K - y
        eps = 1e-10

        self._n_iter, _ = self._rounds(alpha, errors, y, K, self.max_iter, eps)
        np.clip(alpha, 0.0, self.C, out=alpha)

        self._b = self._bias_from_kkt(alpha, errors, y, eps)
        sv = alpha > 1e-8
        self._sv_X = X[sv]
        self._coef = alpha[sv] * y[sv]
        self._alpha_all_ = alpha
        if not sv.any():
            # Optimizer found no boundary; predict the majority class.
            self._b = float(np.sign(y.sum()) or 1.0)

    def _rounds(
        self,
        alpha: np.ndarray,
        errors: np.ndarray,
        y: np.ndarray,
        K: np.ndarray,
        max_rounds: int,
        eps: float,
    ) -> Tuple[int, str]:
        """Run up to ``max_rounds`` solver steps in place: pair
        optimizations, and Newton steps on the free set.

        Working-set selection is second order (libsvm's WSS2 /
        Fan-Chen-Lin 2005): ``i`` is the extreme of the "up" set, and
        ``j`` maximizes the analytic dual gain ``(F_j - F_i)^2 / eta_ij``
        over the violating part of the "low" set, rather than just the
        KKT gap — the same optimum in far fewer, better-chosen steps.
        The stopping rule is unchanged (the *maximal-violating* pair's
        gap below tolerance), so convergence means exactly what it did
        for the first-order scan.

        A round costs a handful of numpy calls on length-n vectors plus
        Python-float scalar work, and allocates nothing: the masked
        extremes, the gain and the two error-update terms are written
        with ``out=`` into buffers made once per call, which lasts the
        whole solve. Up/low membership is kept as additive penalties
        (0 inside, ±inf outside), so ``errors + up_pen`` is the masked
        up-set vector; errors are finite, so an infinite extreme means
        the set is empty. Membership only changes at the indices a step
        touches, so the penalties are updated in place. ``K`` is fixed
        for the call, so its rows are listed once and each ``i``'s row
        of pair curvatures ``eta`` is computed once and reused.

        The pair update runs inline on Python floats (the same IEEE
        doubles as numpy scalars, without their dispatch cost). When it
        makes no numerical progress (degenerate kernel rows), the same
        update is tried with the next-most-violating partners of ``i``
        before the scan gives up.

        Each multiplier's place in the active set (at 0, free, at C) is
        kept in a list and refreshed at the touched indices, so the loop
        knows how many rounds the set has gone unchanged. When that
        count reaches :meth:`_newton_due`, one :meth:`_newton` step
        replaces the round's pair update; a rejected step is not retried
        until the set changes. A Newton step counts as one step, so
        ``max_rounds`` and the returned count cover both kinds.

        Returns the steps consumed and why the scan stopped:
        ``"converged"`` (KKT gap below tolerance, or nothing movable),
        ``"stuck"`` (no candidate pair makes numerical progress) or
        ``"budget"`` (round cap reached)."""
        n = alpha.shape[0]
        C = self.C
        ys = y.tolist()
        pos = y > 0
        bound_lo, bound_hi = alpha > eps, alpha < C - eps
        up_pen = np.where(np.where(pos, bound_hi, bound_lo), 0.0, np.inf)
        low_pen = np.where(np.where(pos, bound_lo, bound_hi), 0.0, -np.inf)
        # Each multiplier's place in the active set: 0 at the lower bound,
        # 1 free, 2 at C. Its penalties are a function of place and label.
        place = (bound_lo.astype(int) + ~bound_hi).tolist()
        up_of = {1.0: (0.0, 0.0, np.inf), -1.0: (np.inf, 0.0, 0.0)}
        low_of = {1.0: (-np.inf, 0.0, 0.0), -1.0: (0.0, 0.0, -np.inf)}
        n_free = place.count(1)
        # Rounds since the active set last changed, and the count at
        # which a Newton step on the free set is due.
        stable, due = 0, self._newton_due(n_free, n)

        def _refresh(t: int, a: float) -> bool:
            """Move ``t`` to the place of its multiplier ``a``; True if
            that changed the active set."""
            nonlocal n_free
            p = (1 if a < C - eps else 2) if a > eps else 0
            if p == place[t]:
                return False
            n_free += (p == 1) - (place[t] == 1)
            place[t] = p
            up_pen[t] = up_of[ys[t]][p]
            low_pen[t] = low_of[ys[t]][p]
            return True

        Kdiag = np.ascontiguousarray(K.diagonal())
        rows = list(K)
        etas: Dict[int, np.ndarray] = {}
        f_up, f_low, gain, delta_i, delta_j = (np.empty(n) for _ in range(5))
        zeros = np.zeros(n)  # a scalar 0.0 would be converted on every call
        add, subtract, multiply, divide, maximum = (
            np.add, np.subtract, np.multiply, np.divide, np.maximum
        )

        for used in range(max_rounds):
            add(errors, up_pen, out=f_up)
            add(errors, low_pen, out=f_low)
            i = int(f_up.argmin())
            j = int(f_low.argmax())
            Ei = f_up.item(i)
            Ej = f_low.item(j)
            if Ei == np.inf or Ej == -np.inf:
                return used, "converged"  # one side fully at bounds
            if Ej - Ei < 2.0 * self.tol:
                return used, "converged"
            if stable >= due:
                stable = 0
                free = np.flatnonzero(np.isfinite(up_pen) & np.isfinite(low_pen))
                if self._newton(alpha, errors, y, K, free):
                    a = alpha[free]
                    for t in free[(a <= eps) | (a >= C - eps)].tolist():
                        _refresh(t, alpha.item(t))
                    due = self._newton_due(n_free, n)
                    continue
                due = np.inf  # not retried until the active set changes
            eta_i = etas.get(i)
            if eta_i is None:
                eta_i = np.maximum(Kdiag + K[i, i] - 2.0 * K[i], 1e-12)
                etas[i] = eta_i
            # Second-order choice of j: maximal decrease of the dual
            # objective among low-set candidates that violate with i
            # (outside the low set, and for non-violators, the gain is 0).
            subtract(f_low, Ei, out=gain)
            maximum(gain, zeros, out=gain)
            multiply(gain, gain, out=gain)
            divide(gain, eta_i, out=gain)
            j2 = int(gain.argmax())
            if gain.item(j2) > 0.0:
                j = j2

            # Optimize the pair (i, j) analytically; errors are the
            # bias-free f_raw - y.
            ai_old, yi, Ei = alpha.item(i), ys[i], errors.item(i)
            j_first = j
            fallback: Optional[List[int]] = None
            while True:
                aj_old, yj = alpha.item(j), ys[j]
                # The box [lo, hi] of aj; a conditional picks what
                # ``max``/``min`` would, NaN and signed zeros included.
                if yi != yj:
                    lo, hi = aj_old - ai_old, C + aj_old - ai_old
                else:
                    lo, hi = ai_old + aj_old - C, ai_old + aj_old
                lo = lo if lo > 0.0 else 0.0
                hi = hi if hi < C else C
                eta = eta_i.item(j)
                if j != i and not (lo >= hi or eta <= 1e-12):
                    aj_new = aj_old + yj * (Ei - errors.item(j)) / eta
                    aj_new = lo if lo > aj_new else aj_new
                    aj_new = hi if hi < aj_new else aj_new
                    if not abs(aj_new - aj_old) < 1e-7 * (aj_new + aj_old + 1e-7):
                        break
                # No progress: try the next-most-violating partners.
                if fallback is None:
                    fallback = [
                        k for k in np.argsort(-f_low)[: min(10, n)].tolist()[::-1]
                        if k != j_first and f_low.item(k) > -np.inf
                    ]
                if not fallback:
                    return used + 1, "stuck"
                j = fallback.pop()
            ai_new = ai_old + yi * yj * (aj_old - aj_new)

            di = yi * (ai_new - ai_old)
            dj = yj * (aj_new - aj_old)
            alpha[i], alpha[j] = ai_new, aj_new
            multiply(rows[i], di, out=delta_i)
            multiply(rows[j], dj, out=delta_j)
            add(delta_i, delta_j, out=delta_i)
            add(errors, delta_i, out=errors)
            if _refresh(i, ai_new) | _refresh(j, aj_new):
                stable, due = 0, self._newton_due(n_free, n)
            else:
                stable += 1
        return max_rounds, "budget"

    @staticmethod
    def _newton_due(n_free: int, n: int) -> float:
        """Pair rounds on an unchanged active set after which a Newton
        step on its ``n_free`` free multipliers is due.

        The step is taken once the rounds spent on this active set cost
        as much as the step would (a rent-or-buy balance): whether the
        set would have settled by itself soon or not, the two together
        then cost at most twice what the better choice would have. The
        costs, in microseconds, were fitted once on a 2-vCPU VM (py3.11,
        single-threaded BLAS) and are fixed here, so the schedule is
        deterministic: a pair round over ``n`` rows costs about
        ``10 + 0.015 n``; a step costs about ``55`` plus ``2e-4 m^3`` for
        factorizing the ``m = |F| + 1`` square system plus ``7.5e-4 |F| n``
        for reading the free set's kernel rows into the error update."""
        if n_free < 2:
            return np.inf
        m = n_free + 1
        step = 55.0 + 2e-4 * m * m * m + 7.5e-4 * n_free * n
        return step / (10.0 + 0.015 * n)

    def _newton(
        self,
        alpha: np.ndarray,
        errors: np.ndarray,
        y: np.ndarray,
        K: np.ndarray,
        free: np.ndarray,
    ) -> bool:
        """One Newton step on the free multipliers ``free``, in place.

        With the multipliers at a bound held fixed, the dual restricted
        to the free set ``F`` is a quadratic with one equality
        constraint, so one linear solve finds its optimum. With
        ``Q_FF = (y_F y_F^T) * K_FF`` and gradient ``g_F = y_F * errors_F``
        the step ``d`` solves

            [[Q_FF, y_F], [y_F^T, 0]] [d; lam] = [-g_F; 0],

        which is solved here in ``u = y_F * d`` (labels are ±1): then
        ``Q_FF`` becomes ``K_FF``, ``y_F`` a column of ones and ``-g_F``
        is ``-errors_F``.

        The step is rejected (False, nothing changed) unless the
        solution is finite, solves the system to a small residual, keeps
        ``y_F^T d = sum(u)`` at zero and descends; a singular system (a
        linear kernel with more free multipliers than dimensions,
        duplicate rows with opposite labels) fails these checks. A ratio
        test shortens the step so every multiplier stays in ``[0, C]``;
        the one that blocks it lands exactly on its bound. The error
        cache is then updated from the ``|F|`` kernel rows of the free
        set."""
        C = self.C
        m = free.shape[0]
        KF = K[free]
        A = np.ones((m + 1, m + 1))
        A[:m, :m] = KF[:, free]
        A[m, m] = 0.0
        rhs = np.zeros(m + 1)
        np.negative(errors[free], out=rhs[:m])
        try:
            sol = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:
            return False
        u = sol[:m]
        resid = A @ sol
        resid -= rhs
        np.abs(resid, out=resid)
        # NaN or inf anywhere fails one of these comparisons.
        if not (
            resid[:m].max() <= 1e-9 * (1.0 + np.abs(rhs).max())
            and resid.item(m) <= 1e-12 * np.abs(u).sum()
            and rhs[:m] @ u > 0.0  # g_F . d < 0
        ):
            return False
        d = y[free] * u
        aF = alpha[free]
        rising = d > 0.0
        bound = np.where(rising, C, 0.0)
        room = np.divide(
            bound - aF, d, out=np.full(m, np.inf), where=rising | (d < 0.0)
        )
        k = int(room.argmin())
        t = room.item(k)
        new = aF + min(t, 1.0) * d
        if t < 1.0:
            new[k] = bound[k]
        np.maximum(new, 0.0, out=new)
        np.minimum(new, C, out=new)
        alpha[free] = new
        new -= aF
        new *= y[free]
        errors += new @ KF
        return True

    def _bias_from_kkt(
        self,
        alpha: np.ndarray,
        errors: np.ndarray,
        y: np.ndarray,
        eps: float,
    ) -> float:
        """Reconstruct b after SMO: free SVs satisfy y_i (f_raw + b) = 1,
        i.e. b = -(f_raw_i - y_i) = -errors_i; without free SVs use the
        Keerthi midpoint of the up/low sets."""
        free = (alpha > eps) & (alpha < self.C - eps)
        if free.any():
            return float(-np.mean(errors[free]))
        pos, neg = y > 0, y < 0
        up = (pos & (alpha < self.C - eps)) | (neg & (alpha > eps))
        low = (pos & (alpha > eps)) | (neg & (alpha < self.C - eps))
        if up.any() and low.any():
            return float(-0.5 * (errors[up].min() + errors[low].max()))
        return 0.0

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def decision_function(self, X: ArrayLike) -> np.ndarray:
        """Signed margin ``f(x)`` for each row of ``X``.

        Positive values classify as +1. ExBox's network-selection logic
        (Section 4.1 of the paper) uses this margin directly: the larger
        it is, the deeper inside the capacity region the point lies. For
        a constant (single-class) model the margin is ±1 everywhere.

        Each row is reduced over the support vectors on its own, so one
        arrival's margin equals its row of any batch bit for bit (see
        :mod:`repro.ml.kernels`, which also relates the RBF rows built
        here to the training kernel).
        """
        if not self._fitted:
            raise NotFittedError("SVC must be fitted before inference")
        X = np.asarray(X, dtype=float)
        if X.ndim < 2:
            X = X.reshape(1, -1)
        if X.shape[1] != self._n_features:
            raise ValueError(
                f"expected {self._n_features} features, got {X.shape[1]}"
            )
        if self._constant is not None:
            return np.full(X.shape[0], self._constant)
        if self._coef.shape[0] == 0:
            return np.full(X.shape[0], self._b)
        if self._gamma is None:
            K = np.multiply(self._fit_kernel(X, self._sv_X), self._coef)
        else:
            # gamma was resolved against the training rows at fit time,
            # so train-time and inference-time kernels share a bandwidth.
            K = X[:, None, :] - self._sv_X
            np.multiply(K, K, out=K)
            K = K.sum(axis=2)
            np.multiply(K, -self._gamma, out=K)
            np.exp(K, out=K)
            K *= self._coef
        margins: np.ndarray = K.sum(axis=1)
        margins += self._b
        return margins

    def predict(self, X: ArrayLike) -> np.ndarray:
        """Predict labels in {-1, +1} for each row of ``X``."""
        return np.where(self.decision_function(X) >= 0, 1.0, -1.0)

    def score(self, X: ArrayLike, y: ArrayLike) -> float:
        """Mean accuracy of ``predict(X)`` against ``y``."""
        y = np.asarray(y, dtype=float).ravel()
        return float(np.mean(self.predict(X) == y))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def support_vectors_(self) -> np.ndarray:
        if not self._fitted:
            raise NotFittedError("SVC must be fitted before inspection")
        return self._sv_X

    @property
    def n_support_(self) -> int:
        if not self._fitted:
            raise NotFittedError("SVC must be fitted before inspection")
        return int(self._sv_X.shape[0])

    @property
    def intercept_(self) -> float:
        if not self._fitted:
            raise NotFittedError("SVC must be fitted before inspection")
        return self._b if self._constant is None else self._constant

    @property
    def alpha_all_(self) -> np.ndarray:
        """Dual variables for every training row (zeros for non-SVs);
        the warm-start vector for the next incremental fit."""
        if not self._fitted:
            raise NotFittedError("SVC must be fitted before inspection")
        return self._alpha_all_

    @property
    def n_iter_(self) -> int:
        """Solver steps of the last fit, pair rounds plus Newton steps
        (0 for a constant model): the solver's deterministic work count."""
        if not self._fitted:
            raise NotFittedError("SVC must be fitted before inspection")
        return self._n_iter

    @property
    def is_constant_(self) -> bool:
        """True when the model degenerated to a single-class predictor."""
        if not self._fitted:
            raise NotFittedError("SVC must be fitted before inspection")
        return self._constant is not None

    def __repr__(self) -> str:
        return f"SVC(C={self.C}, kernel={self.kernel!r}, tol={self.tol})"
