"""Feature scaling for SVM inputs.

RBF-kernel SVMs are scale-sensitive, so ExBox standardizes the traffic
matrix features before training. The scaler follows the familiar
fit/transform protocol and is safe on constant features.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.arrays import ArrayLike

__all__ = ["StandardScaler"]


class StandardScaler:
    """Standardize features to zero mean and unit variance.

    Constant columns are left centered but not divided (divisor 1), so the
    transform never produces NaNs.
    """

    def __init__(self) -> None:
        self.mean_: Optional[np.ndarray] = None
        self.scale_: Optional[np.ndarray] = None

    def fit(self, X: ArrayLike) -> "StandardScaler":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[0] == 0:
            raise ValueError("cannot fit a scaler on an empty array")
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        std[std == 0] = 1.0
        self.scale_ = std
        return self

    def transform(self, X: ArrayLike) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("scaler must be fitted before transform")
        Z: np.ndarray = (np.asarray(X, dtype=float) - self.mean_) / self.scale_
        return Z

    def fit_transform(self, X: ArrayLike) -> np.ndarray:
        return self.fit(X).transform(X)
