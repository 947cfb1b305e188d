"""Saving and restoring a trained ExBox deployment.

A production middlebox must survive restarts without redoing the IQX
training sweep or the bootstrap phase. The learned state is small and
fully reconstructible: the per-class IQX parameters, the Admittance
Classifier's configuration, and its replay buffer of ``(X_m, Y_m)``
tuples (the SVM itself is retrained from the buffer on load — cheaper
than serializing kernel machines, and guaranteed consistent with the
training path).

Everything is plain JSON, so snapshots are diffable and auditable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.core.admittance import AdmittanceClassifier, Phase
from repro.core.exbox import ExBox
from repro.core.qoe_estimator import QoEEstimator
from repro.qoe.iqx import IQXModel
from repro.wireless.channel import SnrBinner

__all__ = ["dump_exbox", "dumps_exbox", "load_exbox", "loads_exbox"]

_FORMAT_VERSION = 3


def _estimator_state(estimator: QoEEstimator) -> dict:
    return {
        cls: {
            "alpha": model.alpha,
            "beta": model.beta,
            "gamma": model.gamma,
            "qos_lo": model.qos_lo,
            "qos_hi": model.qos_hi,
            "rmse": model.rmse,
            "log_scale": model.log_scale,
        }
        for cls in estimator.trained_classes
        for model in [estimator.model_for(cls)]
    }


def _classifier_state(classifier: AdmittanceClassifier) -> dict:
    X, y = classifier._learner.training_set()
    return {
        "batch_size": classifier._learner.batch_size,
        "cv_threshold": classifier.cv_threshold,
        "cv_folds": classifier.cv_folds,
        "min_bootstrap_samples": classifier.min_bootstrap_samples,
        "max_bootstrap_samples": classifier.max_bootstrap_samples,
        "cv_check_every": classifier.cv_check_every,
        "guard_margin": classifier.guard_margin,
        "warm_start": classifier._learner.warm_start,
        "replace_repeated": classifier._learner.replace_repeated,
        "max_buffer": classifier._learner.max_buffer,
        "random_state": classifier.random_state,
        "phase": classifier.phase.value,
        "bootstrap_samples_used": classifier.bootstrap_samples_used,
        "last_cv_accuracy": classifier.last_cv_accuracy,
        "X": X.tolist(),
        "y": y.tolist(),
    }


def dumps_exbox(exbox: ExBox) -> str:
    """Serialize an ExBox's learned state to a JSON string."""
    state = {
        "format_version": _FORMAT_VERSION,
        "binner": {
            "boundaries_db": list(exbox.binner.boundaries_db),
            "names": [level.name for level in exbox.binner.levels],
            "representatives_db": [
                level.representative_db for level in exbox.binner.levels
            ],
        },
        "qoe_models": _estimator_state(exbox.qoe_estimator),
        "admittance": _classifier_state(exbox.admittance),
    }
    return json.dumps(state, indent=2)


def dump_exbox(exbox: ExBox, path: Union[str, Path]) -> None:
    """Write an ExBox snapshot to ``path``."""
    Path(path).write_text(dumps_exbox(exbox))


def loads_exbox(text: str) -> ExBox:
    """Reconstruct an ExBox from a JSON snapshot string.

    The Admittance Classifier is retrained from its persisted buffer, so
    a snapshot taken online comes back online and decision-ready. Every
    retrain refits the scaler and the RBF bandwidth on the whole buffer,
    so the restored classifier equals a fresh, cold-started retrain on
    the persisted buffer (warm-start duals are not persisted). Active
    flows are deliberately NOT persisted: after a restart the middlebox
    re-learns the live traffic matrix from the network.

    Snapshots of an earlier format version are refused: a version-2
    snapshot carried a frozen scaler and bandwidth that a retrain no
    longer honours.
    """
    state = json.loads(text)
    version = state.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported snapshot version {version!r}")

    binner_state = state["binner"]
    if binner_state["boundaries_db"]:
        binner = SnrBinner(
            boundaries_db=tuple(binner_state["boundaries_db"]),
            names=tuple(binner_state["names"]),
            representatives_db=tuple(binner_state["representatives_db"]),
        )
    else:
        binner = SnrBinner.single_level()

    estimator = QoEEstimator()
    for cls, params in state["qoe_models"].items():
        estimator.set_model(cls, IQXModel(**params))

    clf_state = state["admittance"]
    classifier = AdmittanceClassifier(
        batch_size=clf_state["batch_size"],
        cv_threshold=clf_state["cv_threshold"],
        cv_folds=clf_state["cv_folds"],
        min_bootstrap_samples=clf_state["min_bootstrap_samples"],
        max_bootstrap_samples=clf_state["max_bootstrap_samples"],
        cv_check_every=clf_state["cv_check_every"],
        guard_margin=clf_state["guard_margin"],
        warm_start=clf_state["warm_start"],
        replace_repeated=clf_state["replace_repeated"],
        max_buffer=clf_state["max_buffer"],
        random_state=clf_state["random_state"],
    )
    for x, y in zip(clf_state["X"], clf_state["y"]):
        classifier._learner.add_sample(x, int(y))
    classifier._since_cv_check = 0
    classifier.last_cv_accuracy = clf_state["last_cv_accuracy"]
    if clf_state["phase"] == Phase.ONLINE.value:
        classifier._learner.retrain()
        classifier._phase = Phase.ONLINE
        classifier.bootstrap_samples_used = clf_state["bootstrap_samples_used"]

    return ExBox(admittance=classifier, qoe_estimator=estimator, binner=binner)


def load_exbox(path: Union[str, Path]) -> ExBox:
    """Read an ExBox snapshot from ``path``."""
    return loads_exbox(Path(path).read_text())
