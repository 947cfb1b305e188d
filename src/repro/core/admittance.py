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
drifting network, Figure 11).
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional, overload

import numpy as np

from repro.ml.online import BatchOnlineSVM, default_svc_factory
from repro.ml.scaling import StandardScaler
from repro.ml.svm import SVC
from repro.ml.validation import cross_val_accuracy
from repro.obs.facade import NULL_OBS, Obs

__all__ = ["AdmittanceClassifier", "Phase", "MARGIN_BUCKETS"]

#: Buckets for the ``admittance.margin`` histogram: SVM margins are
#: signed distances to the ExCR boundary, so the bounds are symmetric
#: around zero (negative = rejected side) at boundary-relevant scales.
MARGIN_BUCKETS = (
    -5.0, -2.0, -1.0, -0.5, -0.25, -0.1, 0.0,
    0.1, 0.25, 0.5, 1.0, 2.0, 5.0,
)


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
        Fresh-SVC factory, shared by CV and the online learner.
    replace_repeated:
        The paper's label-replacement rule for repeated matrices.
    cv_check_every:
        Bootstrap samples between two cross-validation checks; a forced
        exit at ``max_bootstrap_samples`` checks regardless.
    max_buffer:
        Cap on the online learner's training buffer; the oldest samples
        are evicted first. None (the paper's rule) keeps every sample.
    guard_margin:
        Admission hysteresis: a flow is admitted only when its SVM
        margin is at least this value. 0 reproduces the paper; positive
        values trade recall for precision (a conservative operator),
        negative values the reverse. :meth:`admits` applies it; the raw
        margin stays available via :meth:`margin` for network selection.
    warm_start:
        Seed each online retrain's SMO solve with the previous
        solution's dual variables (see ``docs/performance.md``). On by
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
        retrains, and logs phase transitions as structured events.
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
        if not 0.0 < cv_threshold <= 1.0:
            raise ValueError("cv_threshold must be in (0, 1]")
        if min_bootstrap_samples < cv_folds:
            raise ValueError("need at least cv_folds bootstrap samples")
        self.cv_threshold = cv_threshold
        self.cv_folds = int(cv_folds)
        self.min_bootstrap_samples = int(min_bootstrap_samples)
        self.max_bootstrap_samples = max_bootstrap_samples
        self.cv_check_every = int(cv_check_every)
        self.random_state = random_state
        self.cv_jobs = cv_jobs
        self._factory = model_factory or default_svc_factory
        self.obs = obs if obs is not None else NULL_OBS
        self._learner = BatchOnlineSVM(
            batch_size=batch_size,
            model_factory=self._factory,
            replace_repeated=replace_repeated,
            max_buffer=max_buffer,
            warm_start=warm_start,
            obs=self.obs,
        )
        self.guard_margin = float(guard_margin)
        self._phase = Phase.BOOTSTRAP
        self._since_cv_check = 0
        self.last_cv_accuracy: Optional[float] = None
        self.bootstrap_samples_used: Optional[int] = None

    def instrument(self, obs: Obs) -> None:
        """Adopt ``obs`` unless a recording handle is already wired."""
        if not self.obs.enabled:
            self.obs = obs
        self._learner.instrument(obs)

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
        return len(self._learner)

    @property
    def n_retrains(self) -> int:
        return self._learner.n_retrains

    # ------------------------------------------------------------------
    # Bootstrap phase
    # ------------------------------------------------------------------
    def _both_classes_present(self) -> bool:
        _, y = self._learner.training_set()
        return y.size > 0 and len(set(y.tolist())) == 2

    def _cv_accuracy(self) -> float:
        X, y = self._learner.training_set()
        scaler = StandardScaler().fit(X)
        return cross_val_accuracy(
            self._factory,
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
        self._learner.add_sample(x, y)
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

    def _retrain(self) -> None:
        """Retrain the online learner under the ``admittance.retrain`` span."""
        with self.obs.span("admittance.retrain"):
            self._learner.retrain()
        self.obs.counter("admittance.retrains").inc()
        self.obs.gauge("admittance.samples").set(self.n_samples)

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
    def _margins(self, X: np.ndarray) -> np.ndarray:
        """SVM margins of encoded arrivals, one per row of ``X`` (a single
        1-D arrival is a batch of one). Every online query goes through
        this one kernel pass."""
        if self._phase is not Phase.ONLINE:
            raise RuntimeError("classifier is still bootstrapping")
        return self._learner.decision_function(X)

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

    @property
    def samples_until_retrain(self) -> int:
        """Observations left before the next batch-boundary retrain
        (harnesses use this to size batched-decision chunks)."""
        return self._learner.samples_until_retrain

    def observe_online(self, x: np.ndarray, y: int) -> bool:
        """Record the observed outcome of an arrival; retrains at batch
        boundaries. Returns True when a retrain happened."""
        if self._phase is not Phase.ONLINE:
            raise RuntimeError("classifier is still bootstrapping")
        # Equivalent to BatchOnlineSVM.observe(), unrolled so the retrain
        # alone sits under the `admittance.retrain` span.
        self._learner.add_sample(x, y)
        if not self._learner.due_for_retrain:
            return False
        self._retrain()
        return True
