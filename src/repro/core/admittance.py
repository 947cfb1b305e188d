"""The Admittance Classifier (paper Section 3.1, Figure 4).

Two-phase online learning of the ExCR boundary:

**Bootstrap phase** — ExBox only observes: every flow is admitted, each
arrival contributes an ``(X_m, Y_m)`` tuple, and n-fold cross-validation
runs periodically on the accumulated set. Once CV accuracy crosses the
configured threshold the classifier trains on everything seen and goes
online.

**Online learning phase** — each arrival is classified (+1 admit /
-1 reject); after every batch of ``B`` observed flows the SVM retrains
over all tuples collected so far, with repeated traffic matrices taking
the most recent label (the replacement rule that lets ExBox track a
drifting network, Figure 11). The tuples live in a keyed replay buffer.

Every retrain refits the feature scaler on the current buffer, and
:meth:`~repro.ml.svm.SVC.fit` resolves the RBF bandwidth against the
freshly scaled rows, so the model after a retrain depends only on the
buffer, exactly as the paper states. The only state carried from one
retrain to the next is the SMO start: with ``warm_start`` the previous
solution's dual variables seed each solve (keyed by sample, surviving
buffer reorderings); see ``docs/performance.md``.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, overload

import numpy as np

from repro.ml.arrays import ArrayLike
from repro.ml.scaling import StandardScaler
from repro.ml.svm import SVC
from repro.ml.validation import cross_val_accuracy
from repro.obs.facade import NULL_OBS, Obs

__all__ = ["AdmittanceClassifier", "Phase", "MARGIN_BUCKETS", "default_svc_factory"]

#: Buckets for the ``admittance.margin`` histogram: SVM margins are
#: signed distances to the ExCR boundary, so the bounds are symmetric
#: around zero (negative = rejected side) at boundary-relevant scales.
MARGIN_BUCKETS = (
    -5.0, -2.0, -1.0, -0.5, -0.25, -0.1, 0.0,
    0.1, 0.25, 0.5, 1.0, 2.0, 5.0,
)


def default_svc_factory() -> SVC:
    """The stock Admittance Classifier model (module-level, hence
    picklable — lambdas would break the process-parallel CV path)."""
    return SVC(C=10.0, kernel="rbf")


class Phase(enum.Enum):
    BOOTSTRAP = "bootstrap"
    ONLINE = "online"


class AdmittanceClassifier:
    """Online SVM admission controller over encoded flow arrivals.

    Parameters
    ----------
    batch_size:
        Online-phase retrain period ``B`` (paper: 20 for WiFi, 10 for
        LTE testbeds; 100-400 at simulation scale).
    cv_threshold:
        Cross-validation accuracy required to leave bootstrap.
    cv_folds:
        ``n`` of the paper's n-fold validation.
    random_state:
        Seed of the cross-validation fold shuffle.
    min_bootstrap_samples:
        Don't even attempt CV below this (the paper observes ~50 samples
        suffice).
    max_bootstrap_samples:
        Forced bootstrap exit: beyond this many samples the classifier
        goes online regardless of CV (keeps pathological workloads from
        observing forever). None disables.
    model_factory:
        Zero-argument callable returning a fresh :class:`~repro.ml.svm.SVC`
        (or anything with the same ``fit``/``decision_function``
        interface, such as :class:`~repro.ml.tree.DecisionTreeClassifier`),
        shared by CV and every retrain. Defaults to an RBF SVC.
    replace_repeated:
        The paper's label-replacement rule: re-observing a feature vector
        replaces its stored label. When False samples are append-only
        (the ablation benchmark's variant).
    cv_check_every:
        Bootstrap samples between two cross-validation checks; a forced
        exit at ``max_bootstrap_samples`` checks regardless.
    max_buffer:
        Cap on the training buffer; the oldest samples are evicted
        first, in O(1) per eviction. None (the paper's rule) keeps every
        sample.
    guard_margin:
        Admission hysteresis: a flow is admitted only when its SVM
        margin is at least this value. 0 reproduces the paper; positive
        values trade recall for precision (a conservative operator),
        negative values the reverse. :meth:`admits` applies it; the raw
        margin stays available via :meth:`margin` for network selection.
    warm_start:
        Seed each retrain's SMO solve with the previous solution's dual
        variables (see ``docs/performance.md``); only effective when the
        model factory produces an :class:`~repro.ml.svm.SVC`. On by
        default: across the seeded workloads warm and cold starts agree
        on every admission decision, with margins differing only within
        the solver's ``tol``-equivalence bound.
    cv_jobs:
        Fold parallelism for the bootstrap cross-validation (``None`` =
        auto, ``1`` = serial; see
        :func:`repro.ml.validation.cross_val_accuracy`).
    obs:
        Observability handle (:class:`repro.obs.Obs`). The inert default
        records nothing and changes nothing; a recording handle times
        every retrain under the ``admittance.retrain`` span, counts
        retrains and SMO pair rounds (``svm.smo.steps``), and logs phase
        transitions as structured events.
    """

    def __init__(
        self,
        batch_size: int = 20,
        cv_threshold: float = 0.7,
        cv_folds: int = 5,
        min_bootstrap_samples: int = 30,
        max_bootstrap_samples: Optional[int] = 200,
        model_factory: Optional[Callable[[], SVC]] = None,
        replace_repeated: bool = True,
        cv_check_every: int = 10,
        random_state: int = 7,
        max_buffer: Optional[int] = None,
        guard_margin: float = 0.0,
        warm_start: bool = True,
        cv_jobs: Optional[int] = None,
        obs: Optional[Obs] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if max_buffer is not None and max_buffer < 1:
            raise ValueError("max_buffer must be >= 1 when given")
        if not 0.0 < cv_threshold <= 1.0:
            raise ValueError("cv_threshold must be in (0, 1]")
        if min_bootstrap_samples < cv_folds:
            raise ValueError("need at least cv_folds bootstrap samples")
        self.batch_size = int(batch_size)
        self.cv_threshold = cv_threshold
        self.cv_folds = int(cv_folds)
        self.min_bootstrap_samples = int(min_bootstrap_samples)
        self.max_bootstrap_samples = max_bootstrap_samples
        self.model_factory = model_factory or default_svc_factory
        self.replace_repeated = replace_repeated
        self.cv_check_every = int(cv_check_every)
        self.random_state = random_state
        self.max_buffer = max_buffer
        self.guard_margin = float(guard_margin)
        self.warm_start = warm_start
        self.cv_jobs = cv_jobs
        self.obs = obs if obs is not None else NULL_OBS

        # The replay buffer of (X_m, Y_m) tuples, oldest first.
        self._keys: Deque[Tuple[float, ...]] = deque()
        self._X: Deque[np.ndarray] = deque()
        self._y: Deque[float] = deque()
        # Key -> arrival number of its (latest) row among all rows ever
        # buffered; the row's buffer position is that minus the evicted
        # count, so evicting from the front shifts no index entry.
        self._index: Dict[Tuple[float, ...], int] = {}
        self._n_evicted = 0
        self._alpha_by_key: Dict[Tuple[float, ...], float] = {}
        self._since_retrain = 0
        self._scaler: Optional[StandardScaler] = None
        self._model: Optional[SVC] = None
        self.n_retrains = 0

        self._phase = Phase.BOOTSTRAP
        self._since_cv_check = 0
        self.last_cv_accuracy: Optional[float] = None
        self.bootstrap_samples_used: Optional[int] = None

    def instrument(self, obs: Obs) -> None:
        """Adopt ``obs`` unless a recording handle is already wired."""
        if not self.obs.enabled:
            self.obs = obs

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def phase(self) -> Phase:
        return self._phase

    @property
    def is_online(self) -> bool:
        return self._phase is Phase.ONLINE

    @property
    def n_samples(self) -> int:
        return len(self._y)

    @property
    def samples_until_retrain(self) -> int:
        """Observations left before the next batch-boundary retrain
        (harnesses use this to size batched-decision chunks)."""
        return max(self.batch_size - self._since_retrain, 0)

    # ------------------------------------------------------------------
    # Replay buffer
    # ------------------------------------------------------------------
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

    def training_set(self) -> Tuple[np.ndarray, np.ndarray]:
        """Current replay buffer as ``(X, y)`` arrays."""
        if not self._X:
            return np.zeros((0, 0)), np.zeros(0)
        return np.vstack(self._X), np.asarray(self._y)

    def _retrain(self) -> None:
        """Fit a fresh model on the whole buffer under the
        ``admittance.retrain`` span."""
        with self.obs.span("admittance.retrain"):
            X, y = self.training_set()
            self._scaler = StandardScaler().fit(X)
            X = self._scaler.transform(X)
            model = self.model_factory()
            # The CART ablation's tree takes no dual start.
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
        self.obs.counter("admittance.retrains").inc()
        self.obs.gauge("admittance.samples").set(self.n_samples)

    # ------------------------------------------------------------------
    # Bootstrap phase
    # ------------------------------------------------------------------
    def _both_classes_present(self) -> bool:
        return 1.0 in self._y and -1.0 in self._y

    def _cv_accuracy(self) -> float:
        X, y = self.training_set()
        scaler = StandardScaler().fit(X)
        return cross_val_accuracy(
            self.model_factory,
            scaler.transform(X),
            y,
            n_splits=self.cv_folds,
            random_state=self.random_state,
            n_jobs=self.cv_jobs,
        )

    def observe_bootstrap(self, x: np.ndarray, y: int) -> bool:
        """Record one observed arrival during bootstrap.

        Returns True when this observation completed the bootstrap (the
        classifier is now online).
        """
        if self._phase is not Phase.BOOTSTRAP:
            raise RuntimeError("bootstrap is over; use observe_online")
        self.add_sample(x, y)
        self._since_cv_check += 1
        self.obs.counter("admittance.bootstrap.samples").inc()

        n = self.n_samples
        forced = (
            self.max_bootstrap_samples is not None
            and n >= self.max_bootstrap_samples
        )
        due = (
            n >= self.min_bootstrap_samples
            and self._since_cv_check >= self.cv_check_every
            and self._both_classes_present()
        )
        if not due and not forced:
            return False
        self._since_cv_check = 0
        if self._both_classes_present():
            with self.obs.span("admittance.bootstrap.cv"):
                self.last_cv_accuracy = self._cv_accuracy()
            self.obs.gauge("admittance.bootstrap.cv_accuracy").set(
                self.last_cv_accuracy
            )
            passed = self.last_cv_accuracy >= self.cv_threshold
        else:
            passed = False
        if passed or forced:
            self._go_online(forced=forced and not passed)
            return True
        return False

    def _go_online(self, forced: bool = False) -> None:
        self._retrain()
        self._phase = Phase.ONLINE
        self.bootstrap_samples_used = self.n_samples
        self.obs.gauge("admittance.bootstrap.exit_samples").set(self.n_samples)
        self.obs.emit(
            "phase_transition",
            phase=Phase.ONLINE.value,
            samples=self.n_samples,
            cv_accuracy=self.last_cv_accuracy,
            forced=forced,
        )

    def force_online(self) -> None:
        """Exit bootstrap immediately (used when pre-seeding with an
        offline training set, as the simulation experiments do)."""
        if self._phase is Phase.ONLINE:
            return
        if self.n_samples == 0:
            raise RuntimeError("cannot go online with no samples")
        self._go_online()

    # ------------------------------------------------------------------
    # Online phase
    # ------------------------------------------------------------------
    def _margins(self, X: ArrayLike) -> np.ndarray:
        """SVM margins of encoded arrivals, one per row of ``X`` (a single
        1-D arrival is a batch of one). Every online query goes through
        this one scaler-then-model pass."""
        if self._phase is not Phase.ONLINE:
            raise RuntimeError("classifier is still bootstrapping")
        # Going online retrained, so the scaler and model are set.
        assert self._scaler is not None and self._model is not None
        return self._model.decision_function(self._scaler.transform(X))

    @overload
    def admits(self, margin: float) -> bool: ...

    @overload
    def admits(self, margin: np.ndarray) -> np.ndarray: ...

    def admits(self, margin: Any) -> Any:
        """The guard rule: admit when the margin reaches ``guard_margin``
        (element-wise over an array of margins)."""
        return margin >= self.guard_margin

    def margin(self, x: np.ndarray) -> float:
        """SVM margin of an encoded arrival (network selection)."""
        value = float(self._margins(x)[0])
        self.obs.histogram("admittance.margin", buckets=MARGIN_BUCKETS).observe(
            value
        )
        return value

    def classify(self, x: np.ndarray) -> int:
        """+1 (admissible) or -1 (inadmissible) for an encoded arrival."""
        return 1 if self.admits(float(self._margins(x)[0])) else -1

    def classify_batch(self, X: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`classify` over rows of ``X``.

        One kernel evaluation against the support vectors covers the
        whole batch, so harnesses replaying recorded arrivals against a
        *fixed* model (between retrains, decisions depend on nothing but
        the model) avoid the per-sample dispatch overhead.
        """
        return np.where(self.admits(self._margins(X)), 1, -1)

    def observe_online(self, x: np.ndarray, y: int) -> bool:
        """Record the observed outcome of an arrival; retrains at batch
        boundaries. Returns True when a retrain happened."""
        if self._phase is not Phase.ONLINE:
            raise RuntimeError("classifier is still bootstrapping")
        self.add_sample(x, y)
        if self._since_retrain < self.batch_size:
            return False
        self._retrain()
        return True
