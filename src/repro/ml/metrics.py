"""Classification metrics used throughout the ExBox evaluation.

The paper evaluates admission control with three metrics (Section 5.3):

- *precision* — correctly admitted flows / admitted flows,
- *recall* — correctly admitted flows / flows that could have been admitted,
- *accuracy* — fraction of correct decisions (admit or reject).

Here "admit" is the positive (+1) class.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

#: Labels arrive as lists from the harnesses or arrays from the models.
LabelArray = Union[np.ndarray, Sequence[float], Sequence[int]]

__all__ = [
    "accuracy_score",
    "confusion_matrix",
    "precision_score",
    "recall_score",
]


def _as_labels(y: LabelArray) -> np.ndarray:
    arr = np.asarray(y, dtype=float).ravel()
    bad = set(np.unique(arr)) - {-1.0, 1.0}
    if bad:
        raise ValueError(f"labels must be in {{-1, +1}}, got extra {sorted(bad)}")
    return arr


def confusion_matrix(y_true: LabelArray, y_pred: LabelArray) -> np.ndarray:
    """Return ``[[tn, fp], [fn, tp]]`` for ±1 labels."""
    yt = _as_labels(y_true)
    yp = _as_labels(y_pred)
    if yt.shape != yp.shape:
        raise ValueError("y_true and y_pred have mismatched lengths")
    tp = int(np.sum((yt == 1) & (yp == 1)))
    tn = int(np.sum((yt == -1) & (yp == -1)))
    fp = int(np.sum((yt == -1) & (yp == 1)))
    fn = int(np.sum((yt == 1) & (yp == -1)))
    return np.array([[tn, fp], [fn, tp]])


def accuracy_score(y_true: LabelArray, y_pred: LabelArray) -> float:
    """Fraction of decisions (admit or reject) that were correct."""
    yt = _as_labels(y_true)
    yp = _as_labels(y_pred)
    if yt.shape != yp.shape:
        raise ValueError("y_true and y_pred have mismatched lengths")
    if yt.size == 0:
        return 0.0
    return float(np.mean(yt == yp))


def precision_score(
    y_true: LabelArray, y_pred: LabelArray, default: float = 1.0
) -> float:
    """Correctly admitted / admitted; ``default`` when nothing was admitted.

    The paper's convention: an admission controller that admits nothing
    makes no precision mistakes, hence the default of 1.0.
    """
    (_, fp), (_, tp) = confusion_matrix(y_true, y_pred)
    if tp + fp == 0:
        return default
    return float(tp / (tp + fp))


def recall_score(
    y_true: LabelArray, y_pred: LabelArray, default: float = 1.0
) -> float:
    """Correctly admitted / admissible; ``default`` when nothing was admissible."""
    (_, _), (fn, tp) = confusion_matrix(y_true, y_pred)
    if tp + fn == 0:
        return default
    return float(tp / (tp + fn))
