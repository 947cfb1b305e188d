"""Gaussian naive Bayes classifier.

Used by :mod:`repro.classification` to identify the application class of a
flow from early-packet statistics (the paper assumes such a classifier
exists, citing the traffic-classification literature). Unlike the SVM,
this classifier is multi-class.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Union

import numpy as np

from repro.ml.arrays import ArrayLike

__all__ = ["GaussianNaiveBayes"]


class GaussianNaiveBayes:
    """Multi-class naive Bayes with per-class diagonal Gaussians."""

    # Fit products; populated by :meth:`fit` (guarded by ``classes_``).
    theta_: np.ndarray
    var_: np.ndarray
    log_prior_: np.ndarray

    def __init__(self, var_smoothing: float = 1e-9) -> None:
        if var_smoothing < 0:
            raise ValueError("var_smoothing must be non-negative")
        self.var_smoothing = float(var_smoothing)
        self.classes_: Optional[np.ndarray] = None

    def fit(
        self, X: ArrayLike, y: Union[np.ndarray, Sequence[Any]]
    ) -> "GaussianNaiveBayes":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have mismatched lengths")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty training set")
        self.classes_, counts = np.unique(y, return_counts=True)
        n_classes, n_features = len(self.classes_), X.shape[1]
        self.theta_ = np.zeros((n_classes, n_features))
        self.var_ = np.zeros((n_classes, n_features))
        self.log_prior_ = np.log(counts / counts.sum())
        eps = self.var_smoothing * max(float(X.var()), 1e-12)
        for idx, cls in enumerate(self.classes_):
            Xc = X[y == cls]
            self.theta_[idx] = Xc.mean(axis=0)
            self.var_[idx] = Xc.var(axis=0) + eps
        return self

    def _joint_log_likelihood(self, X: ArrayLike) -> np.ndarray:
        if self.classes_ is None:
            raise RuntimeError("model must be fitted before inference")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n_samples = X.shape[0]
        out = np.zeros((n_samples, len(self.classes_)))
        for idx in range(len(self.classes_)):
            diff = X - self.theta_[idx]
            log_pdf = -0.5 * (
                np.log(2.0 * np.pi * self.var_[idx]) + diff * diff / self.var_[idx]
            )
            out[:, idx] = self.log_prior_[idx] + log_pdf.sum(axis=1)
        return out

    def predict(self, X: ArrayLike) -> np.ndarray:
        if self.classes_ is None:
            raise RuntimeError("model must be fitted before inference")
        jll = self._joint_log_likelihood(X)
        return np.asarray(self.classes_[np.argmax(jll, axis=1)])

    def score(self, X: ArrayLike, y: Union[np.ndarray, Sequence[Any]]) -> float:
        y = np.asarray(y)
        return float(np.mean(self.predict(X) == y))
