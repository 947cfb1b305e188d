"""Batch-online SVM wrapper used by the Admittance Classifier.

The paper (Section 3.1) retrains its SVM after every batch of ``B``
admitted flows, over *all* ``(X_m, Y_m)`` tuples observed so far, with one
twist: if a traffic matrix reappears, the stored label is *replaced* by
the most recently observed one. That replacement rule is what lets ExBox
track a drifting capacity region (Figure 11); it is implemented here as a
keyed replay buffer.

Retraining
----------
Every retrain refits the feature scaler on the current buffer, and
:meth:`~repro.ml.svm.SVC.fit` resolves the RBF bandwidth against the
freshly scaled rows, so the model after a retrain depends only on the
buffer, exactly as the paper states. The only state carried from one
retrain to the next is the SMO start: with ``warm_start`` the previous
solution's dual variables seed each solve (keyed by sample, surviving
buffer reorderings); see ``docs/performance.md``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.ml.arrays import ArrayLike
from repro.ml.scaling import StandardScaler
from repro.ml.svm import SVC
from repro.obs.facade import NULL_OBS, Obs

__all__ = ["BatchOnlineSVM", "default_svc_factory"]

def default_svc_factory() -> SVC:
    """The stock online-learner model (module-level, hence picklable —
    lambdas would break the process-parallel CV path)."""
    return SVC(C=10.0, kernel="rbf")


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
    max_buffer:
        Optional cap on stored samples; oldest are evicted first, in
        O(1) per eviction.
    warm_start:
        Seed each retrain's SMO with the previous solution's dual
        variables (incremental SVM learning). Only effective when the
        model factory produces an :class:`~repro.ml.svm.SVC`.
    obs:
        Observability handle; a recording handle counts SMO pair rounds
        (``svm.smo.steps``). Inert by default.
    """

    def __init__(
        self,
        batch_size: int = 20,
        model_factory: Optional[Callable[[], SVC]] = None,
        replace_repeated: bool = True,
        max_buffer: Optional[int] = None,
        warm_start: bool = False,
        obs: Optional[Obs] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if max_buffer is not None and max_buffer < 1:
            raise ValueError("max_buffer must be >= 1 when given")
        self.batch_size = int(batch_size)
        self.model_factory = model_factory or default_svc_factory
        self.replace_repeated = replace_repeated
        self.max_buffer = max_buffer
        self.warm_start = warm_start
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

    def instrument(self, obs: Obs) -> None:
        """Adopt ``obs`` unless a recording handle is already wired."""
        if not self.obs.enabled:
            self.obs = obs

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

    def retrain(self) -> None:
        """Fit a fresh model on everything observed so far."""
        if not self._X:
            raise RuntimeError("no samples to train on")
        X, y = self.training_set()
        self._scaler = StandardScaler().fit(X)
        X = self._scaler.transform(X)
        model = self.model_factory()
        if isinstance(model, SVC):
            alpha_init: Optional[List[float]] = None
            if self.warm_start and self._alpha_by_key:
                alpha_init = [self._alpha_by_key.get(key, 0.0) for key in self._keys]
            model.fit(X, y, alpha_init=alpha_init)
            self.obs.counter("svm.smo.steps").inc(model.n_iter_)
            if self.warm_start and not model.is_constant_:
                self._alpha_by_key = dict(zip(self._keys, model.alpha_all_.tolist()))
        else:
            model.fit(X, y)
        self._model = model
        self._since_retrain = 0
        self.n_retrains += 1

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _prepare(self, X: ArrayLike) -> ArrayLike:
        """Scaled features; the model converts and shapes its input."""
        return X if self._scaler is None else self._scaler.transform(X)

    def predict(self, X: ArrayLike) -> np.ndarray:
        if self._model is None:
            raise RuntimeError("model has not been trained yet")
        return self._model.predict(self._prepare(X))

    def decision_function(self, X: ArrayLike) -> np.ndarray:
        if self._model is None:
            raise RuntimeError("model has not been trained yet")
        return self._model.decision_function(self._prepare(X))
