"""CART decision-tree classifier.

The paper notes (Section 3) that the Admittance Classifier's learning
technique is modular: "other supervised classification methods (e.g.,
decision trees) could be used by ExBox as well". This module provides
that alternative — a binary CART tree with Gini splitting — exposing the
same ``fit``/``predict``/``decision_function``/``score`` interface as
:class:`repro.ml.svm.SVC`, so it drops straight into
:class:`~repro.core.admittance.AdmittanceClassifier` via ``model_factory``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.ml.arrays import ArrayLike

__all__ = ["DecisionTreeClassifier"]


@dataclass
class _Node:
    """Internal tree node; leaves carry a vote fraction instead."""

    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    # Leaf payload: mean label in [-1, 1] (sign = class, magnitude = purity).
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _gini(y: np.ndarray) -> float:
    if y.size == 0:
        return 0.0
    # Labels are the exact sentinels ±1.0, never arithmetic results.
    p = np.mean(y == 1.0)  # repro: noqa[NUM001]
    return 2.0 * p * (1.0 - p)


class DecisionTreeClassifier:
    """Binary CART tree over labels in {-1, +1}.

    Parameters
    ----------
    max_depth:
        Depth cap (root at depth 0).
    min_samples_split:
        Nodes smaller than this become leaves.
    min_impurity_decrease:
        Minimum Gini improvement required to accept a split.
    """

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 4,
        min_impurity_decrease: float = 1e-7,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        self.max_depth = int(max_depth)
        self.min_samples_split = int(min_samples_split)
        self.min_impurity_decrease = float(min_impurity_decrease)
        self._root: Optional[_Node] = None
        self._n_features: Optional[int] = None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, X: ArrayLike, y: ArrayLike) -> "DecisionTreeClassifier":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have mismatched lengths")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty training set")
        if not set(np.unique(y)) <= {-1.0, 1.0}:
            raise ValueError("labels must be in {-1, +1}")
        self._n_features = X.shape[1]
        self._root = self._build(X, y, depth=0)
        return self

    def _best_split(
        self, X: np.ndarray, y: np.ndarray
    ) -> Tuple[Optional[int], Optional[float], float]:
        n, d = X.shape
        parent = _gini(y)
        # (feature, threshold, improvement)
        best: Tuple[Optional[int], Optional[float], float] = (None, None, 0.0)
        for feature in range(d):
            order = np.argsort(X[:, feature], kind="stable")
            xs, ys = X[order, feature], y[order]
            # Candidate thresholds: midpoints between distinct values.
            distinct = np.flatnonzero(np.diff(xs) > 1e-12)
            if distinct.size == 0:
                continue
            # Prefix sums of positives for O(1) impurity per candidate.
            # Exact ±1.0 label sentinels; equality is bit-safe.
            pos = np.cumsum(ys == 1.0)  # repro: noqa[NUM001]
            total_pos = pos[-1]
            for idx in distinct:
                n_left = idx + 1
                n_right = n - n_left
                p_left = pos[idx] / n_left
                p_right = (total_pos - pos[idx]) / n_right
                gini_split = (
                    n_left / n * 2.0 * p_left * (1 - p_left)
                    + n_right / n * 2.0 * p_right * (1 - p_right)
                )
                improvement = parent - gini_split
                if improvement > best[2]:
                    best = (feature, 0.5 * (xs[idx] + xs[idx + 1]), improvement)
        return best

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(value=float(np.mean(y)))
        if (
            depth >= self.max_depth
            or y.size < self.min_samples_split
            or _gini(y) <= 1e-12  # pure node; tolerance instead of == 0.0
        ):
            return node
        feature, threshold, improvement = self._best_split(X, y)
        if (
            feature is None
            or threshold is None
            or improvement < self.min_impurity_decrease
        ):
            return node
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    @staticmethod
    def _leaf_value(x: np.ndarray, node: _Node) -> float:
        while node.left is not None and node.right is not None:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.value

    def decision_function(self, X: ArrayLike) -> np.ndarray:
        """Mean leaf label in [-1, 1]; sign classifies, magnitude is the
        leaf purity (a rough margin analogue)."""
        root = self._root
        if root is None:
            raise RuntimeError("tree must be fitted before inference")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self._n_features:
            raise ValueError(f"expected {self._n_features} features, got {X.shape[1]}")
        return np.array([self._leaf_value(row, root) for row in X])

    def predict(self, X: ArrayLike) -> np.ndarray:
        return np.where(self.decision_function(X) >= 0, 1.0, -1.0)

    def score(self, X: ArrayLike, y: ArrayLike) -> float:
        y = np.asarray(y, dtype=float).ravel()
        return float(np.mean(self.predict(X) == y))

    @property
    def depth_(self) -> int:
        """Realized depth of the fitted tree."""
        root = self._root
        if root is None:
            raise RuntimeError("tree must be fitted before inspection")

        def walk(node: _Node) -> int:
            if node.left is None or node.right is None:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(root)

    @property
    def n_leaves_(self) -> int:
        root = self._root
        if root is None:
            raise RuntimeError("tree must be fitted before inspection")

        def walk(node: _Node) -> int:
            if node.left is None or node.right is None:
                return 1
            return walk(node.left) + walk(node.right)

        return walk(root)
