"""Batch-online SVM wrapper used by the Admittance Classifier.

The paper (Section 3.1) retrains its SVM after every batch of ``B``
admitted flows, over *all* ``(X_m, Y_m)`` tuples observed so far, with one
twist: if a traffic matrix reappears, the stored label is *replaced* by
the most recently observed one. That replacement rule is what lets ExBox
track a drifting capacity region (Figure 11); it is implemented here as a
keyed replay buffer.

Retrain amortization
--------------------
A naive implementation pays the paper's Section 5.3 worst case on every
retrain: refit the scaler, recompute the full O(n²·d) Gram matrix, and
cold-start SMO — even though only ``B`` rows changed. This wrapper
amortizes all three costs (see ``docs/performance.md``):

- the **effective kernel** (feature scaler + resolved RBF bandwidth) is
  refrozen on a doubling schedule instead of every retrain, so between
  refreshes the scaled rows — and therefore the Gram entries — of
  already-seen samples are unchanged;
- a :class:`~repro.ml.gram.GramCache` carries the Gram matrix across
  retrains, computing kernel rows only for the border of new samples
  (bit-exact, so decisions are identical with the cache on or off);
- with ``warm_start`` the previous solution's dual variables seed each
  SMO solve (keyed by sample, surviving buffer reorderings).

The refresh schedule is applied identically whether the Gram cache is
enabled or not, which is what keeps the cache a pure optimization.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.ml.arrays import ArrayLike
from repro.ml.gram import GramCache
from repro.ml.kernels import Kernel, RBFKernel, freeze_kernel
from repro.ml.scaling import StandardScaler
from repro.ml.svm import SVC
from repro.obs.facade import NULL_OBS, Obs

__all__ = ["BatchOnlineSVM", "default_svc_factory"]

#: Buckets for the ``retrain.amortization`` histogram: fraction of Gram
#: rows reused per retrain (0 = cold full recompute, →1 = only the new
#: batch's border was computed).
AMORTIZATION_BUCKETS = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0)


def default_svc_factory() -> SVC:
    """The stock online-learner model (module-level, hence picklable —
    lambdas would break the process-parallel CV path)."""
    return SVC(C=10.0, kernel="rbf", random_state=7)


class BatchOnlineSVM:
    """Online binary classifier: keyed replay buffer + periodic retrain.

    Parameters
    ----------
    batch_size:
        Number of newly observed samples between retrains (paper's ``B``).
    model_factory:
        Zero-argument callable returning a fresh :class:`~repro.ml.svm.SVC`
        (or anything with the same ``fit``/``predict``/``decision_function``
        interface). Defaults to an RBF SVC.
    replace_repeated:
        When True (the paper's rule), re-observing a feature vector
        replaces its stored label; when False samples are append-only.
        The append-only variant exists for the ablation benchmark.
    scale:
        Standardize features before each fit (recommended for RBF). The
        scaler is refrozen on the amortized refresh schedule, not per
        retrain.
    max_buffer:
        Optional cap on stored samples; oldest are evicted first, in
        O(1) per eviction.
    warm_start:
        Seed each retrain's SMO with the previous solution's dual
        variables (incremental SVM learning). Only effective when the
        model factory produces an :class:`~repro.ml.svm.SVC`.
    use_gram_cache:
        Carry the training Gram matrix across retrains via
        :class:`~repro.ml.gram.GramCache` (bit-exact; fitted models and
        decisions are identical with the cache on or off). Only
        effective for :class:`~repro.ml.svm.SVC` models.
    obs:
        Observability handle; a recording handle counts Gram-cache
        hits/misses/invalidations and SMO pair rounds
        (``svm.smo.steps``), gauges reused rows, and histograms the
        per-retrain amortization fraction. Inert by default.
    """

    def __init__(
        self,
        batch_size: int = 20,
        model_factory: Optional[Callable[[], SVC]] = None,
        replace_repeated: bool = True,
        scale: bool = True,
        max_buffer: Optional[int] = None,
        warm_start: bool = False,
        use_gram_cache: bool = True,
        obs: Optional[Obs] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if max_buffer is not None and max_buffer < 1:
            raise ValueError("max_buffer must be >= 1 when given")
        self.batch_size = int(batch_size)
        self.model_factory = model_factory or default_svc_factory
        self.replace_repeated = replace_repeated
        self.scale = scale
        self.max_buffer = max_buffer
        self.warm_start = warm_start
        self.use_gram_cache = bool(use_gram_cache)
        self.obs = obs if obs is not None else NULL_OBS
        self._alpha_by_key: Dict[Tuple[float, ...], float] = {}

        self._keys: Deque[Tuple[float, ...]] = deque()
        self._X: Deque[np.ndarray] = deque()
        self._y: Deque[float] = deque()
        # Key -> arrival number of its (latest) row among all rows ever
        # buffered; the row's buffer position is that minus the evicted
        # count, so evicting from the front shifts no index entry.
        self._index: Dict[Tuple[float, ...], int] = {}
        self._n_evicted = 0
        self._since_retrain = 0
        self._model: Optional[SVC] = None
        self._scaler: Optional[StandardScaler] = None
        self.n_retrains = 0

        # Effective-kernel epoch (amortized refresh schedule) and the
        # Gram cache carried across retrains within an epoch.
        self._frozen_kernel: Optional[Kernel] = None
        self._rows_at_refresh = 0
        self._samples_at_refresh = -1  # -1 => never refreshed
        self._n_observed = 0
        self._evictions_pending = 0
        self._gram_cache = GramCache(obs=self.obs)

    def instrument(self, obs: Obs) -> None:
        """Adopt ``obs`` unless a recording handle is already wired."""
        if not self.obs.enabled:
            self.obs = obs
            self._gram_cache.obs = obs

    # ------------------------------------------------------------------
    # Buffer management
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._X)

    @property
    def is_trained(self) -> bool:
        return self._model is not None

    @property
    def due_for_retrain(self) -> bool:
        """True once a full batch accumulated since the last retrain."""
        return self._since_retrain >= self.batch_size

    @property
    def samples_until_retrain(self) -> int:
        """How many more observations until the next batch boundary."""
        return max(self.batch_size - self._since_retrain, 0)

    def add_sample(self, x: ArrayLike, y: float) -> None:
        """Record one observed ``(X_m, Y_m)`` tuple without retraining."""
        x = np.asarray(x, dtype=float).ravel()
        if y not in (-1, 1, -1.0, 1.0):
            raise ValueError(f"label must be +1 or -1, got {y!r}")
        key = tuple(x.tolist())
        if self.replace_repeated and key in self._index:
            pos = self._index[key] - self._n_evicted
            # Labels are exact ±1.0 by the validation above.
            if self._y[pos] != float(y):  # repro: noqa[NUM001]
                # Relabelled tuple: the remembered dual sits on the wrong
                # side of the boundary now and would mis-seed the warm
                # start; let the solver treat the point as new.
                self._alpha_by_key.pop(key, None)
            self._y[pos] = float(y)
        else:
            self._index[key] = self._n_evicted + len(self._keys)
            self._keys.append(key)
            self._X.append(x)
            self._y.append(float(y))
            self._evict_if_needed()
        self._since_retrain += 1
        self._n_observed += 1

    def _evict_if_needed(self) -> None:
        if self.max_buffer is None:
            return
        while len(self._keys) > self.max_buffer:
            key = self._keys.popleft()
            self._X.popleft()
            self._y.popleft()
            # The index points at a key's latest row, so it names the
            # evicted one only when no later copy stays buffered (the
            # append-only mode keeps duplicates). Then the key has left
            # the buffer: drop its warm-start dual too — without this the
            # dict grows without bound and can seed stale alphas if an
            # evicted matrix ever reappears.
            if self._index[key] == self._n_evicted:
                del self._index[key]
                self._alpha_by_key.pop(key, None)
            self._n_evicted += 1
            self._evictions_pending += 1

    def observe(self, x: ArrayLike, y: float) -> bool:
        """Record a sample and retrain when the batch boundary is hit.

        Returns True when a retrain happened.
        """
        self.add_sample(x, y)
        if self.due_for_retrain:
            self.retrain()
            return True
        return False

    # ------------------------------------------------------------------
    # Training / inference
    # ------------------------------------------------------------------
    def training_set(self) -> Tuple[np.ndarray, np.ndarray]:
        """Current replay buffer as ``(X, y)`` arrays."""
        if not self._X:
            return np.zeros((0, 0)), np.zeros(0)
        return np.vstack(self._X), np.asarray(self._y)

    def _kernel_refresh_due(self) -> bool:
        """Amortized effective-kernel refresh schedule: refreeze the
        scaler and resolved kernel once the samples observed since the
        last refresh reach the buffer size at that refresh (a doubling
        schedule while the buffer grows; roughly one refresh per buffer
        turnover once ``max_buffer`` saturates). Independent of the Gram
        cache flag by design — see the module docstring."""
        if self._samples_at_refresh < 0:
            return True
        interval = max(self._rows_at_refresh, self.batch_size)
        return self._n_observed - self._samples_at_refresh >= interval

    def retrain(self) -> None:
        """Fit a fresh model on everything observed so far."""
        if not self._X:
            raise RuntimeError("no samples to train on")
        X, y = self.training_set()
        refresh = self._kernel_refresh_due()
        if refresh:
            if self.scale:
                self._scaler = StandardScaler().fit(X)
            self._samples_at_refresh = self._n_observed
            self._rows_at_refresh = X.shape[0]
            self._frozen_kernel = None
            self._gram_cache.invalidate()
        if self.scale and self._scaler is not None:
            X = self._scaler.transform(X)
        model = self.model_factory()
        managed = isinstance(model, SVC)
        gram: Optional[np.ndarray] = None
        reused = 0
        if managed:
            if self._frozen_kernel is None:
                self._frozen_kernel = freeze_kernel(model.kernel, X)
            # The model must solve in the epoch's effective kernel (the
            # one the cache — and previous decisions — are built on).
            model.kernel = self._frozen_kernel
            if self.use_gram_cache:
                gram = self._gram_cache.gram(
                    self._frozen_kernel, X, evicted=self._evictions_pending
                )
                reused = min(self._gram_cache.last_rows_reused, X.shape[0])
        self._evictions_pending = 0
        alpha_init: Optional[List[float]] = None
        if self.warm_start and self._alpha_by_key and managed:
            alpha_init = [self._alpha_by_key.get(key, 0.0) for key in self._keys]
        if managed:
            model.fit(X, y, alpha_init=alpha_init, gram=gram)
            self.obs.counter("svm.smo.steps").inc(model.n_iter_)
        else:
            model.fit(X, y)
        if self.warm_start and managed and not model.is_constant_:
            self._alpha_by_key = dict(zip(self._keys, model.alpha_all_.tolist()))
        self._model = model
        self._since_retrain = 0
        self.n_retrains += 1
        self.obs.histogram(
            "retrain.amortization", buckets=AMORTIZATION_BUCKETS
        ).observe(reused / X.shape[0])

    # ------------------------------------------------------------------
    # Persistence support
    # ------------------------------------------------------------------
    def kernel_state(self) -> Optional[Dict[str, Any]]:
        """Serializable effective-kernel epoch state (None before the
        first retrain). Restoring it via :meth:`restore_kernel_state`
        makes a reloaded learner retrain with the *same* frozen scaler
        and bandwidth as the original, so decisions survive a restart
        even mid-epoch."""
        if self._samples_at_refresh < 0:
            return None
        state: Dict[str, Any] = {
            "rows_at_refresh": self._rows_at_refresh,
            "samples_at_refresh": self._samples_at_refresh,
            "n_observed": self._n_observed,
        }
        if self._scaler is not None and self._scaler.mean_ is not None:
            state["scaler_mean"] = self._scaler.mean_.tolist()
            state["scaler_scale"] = self._scaler.scale_.tolist()
        if isinstance(self._frozen_kernel, RBFKernel) and not isinstance(
            self._frozen_kernel.gamma, str
        ):
            state["gamma"] = float(self._frozen_kernel.gamma)
        return state

    def restore_kernel_state(self, state: Dict[str, Any]) -> None:
        """Adopt a persisted effective-kernel epoch (see
        :meth:`kernel_state`). Call after re-adding buffer samples and
        before the first retrain."""
        self._rows_at_refresh = int(state["rows_at_refresh"])
        self._samples_at_refresh = int(state["samples_at_refresh"])
        self._n_observed = int(state["n_observed"])
        if "scaler_mean" in state:
            scaler = StandardScaler()
            scaler.mean_ = np.asarray(state["scaler_mean"], dtype=float)
            scaler.scale_ = np.asarray(state["scaler_scale"], dtype=float)
            self._scaler = scaler
        if "gamma" in state:
            self._frozen_kernel = RBFKernel(gamma=float(state["gamma"]))

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _prepare(self, X: ArrayLike) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self._scaler is not None:
            X = self._scaler.transform(X)
        return X

    def predict(self, X: ArrayLike) -> np.ndarray:
        if self._model is None:
            raise RuntimeError("model has not been trained yet")
        return self._model.predict(self._prepare(X))

    def decision_function(self, X: ArrayLike) -> np.ndarray:
        if self._model is None:
            raise RuntimeError("model has not been trained yet")
        return self._model.decision_function(self._prepare(X))
