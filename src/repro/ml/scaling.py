"""Feature scaling for SVM inputs.

RBF-kernel SVMs are scale-sensitive, so ExBox standardizes the traffic
matrix features before training. Both scalers follow the familiar
fit/transform protocol and are safe on constant features.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.ml.arrays import ArrayLike

__all__ = ["StandardScaler", "MinMaxScaler"]


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

    def inverse_transform(self, X: ArrayLike) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("scaler must be fitted before inverse_transform")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.asarray(X * self.scale_ + self.mean_)


class MinMaxScaler:
    """Scale features into ``[lo, hi]`` (default ``[0, 1]``).

    Constant columns map to ``lo``.
    """

    def __init__(self, feature_range: Tuple[float, float] = (0.0, 1.0)) -> None:
        lo, hi = feature_range
        if not lo < hi:
            raise ValueError("feature_range must satisfy lo < hi")
        self.feature_range = (float(lo), float(hi))
        self.min_: Optional[np.ndarray] = None
        self.range_: Optional[np.ndarray] = None

    def fit(self, X: ArrayLike) -> "MinMaxScaler":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[0] == 0:
            raise ValueError("cannot fit a scaler on an empty array")
        self.min_ = X.min(axis=0)
        rng = X.max(axis=0) - self.min_
        rng[rng == 0] = 1.0
        self.range_ = rng
        return self

    def transform(self, X: ArrayLike) -> np.ndarray:
        if self.min_ is None or self.range_ is None:
            raise RuntimeError("scaler must be fitted before transform")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        lo, hi = self.feature_range
        unit = (X - self.min_) / self.range_
        return np.asarray(unit * (hi - lo) + lo)

    def fit_transform(self, X: ArrayLike) -> np.ndarray:
        return self.fit(X).transform(X)

    def inverse_transform(self, X: ArrayLike) -> np.ndarray:
        if self.min_ is None or self.range_ is None:
            raise RuntimeError("scaler must be fitted before inverse_transform")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        lo, hi = self.feature_range
        unit = (X - lo) / (hi - lo)
        return np.asarray(unit * self.range_ + self.min_)
