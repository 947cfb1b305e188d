"""Model validation utilities: k-fold cross-validation.

ExBox's bootstrap phase (Section 3.1) exits once n-fold cross-validation
accuracy on the collected training set crosses a threshold; this module
provides that machinery. Folds are independent fits, so
:func:`cross_val_accuracy` can farm them out to a process pool (the same
``concurrent.futures`` pattern as the file-parallel ``repro.lint``
engine); scores are reduced in fold order, so the result is identical to
the serial loop regardless of worker scheduling.
"""

from __future__ import annotations

import os
import pickle
from typing import Any, Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.ml.arrays import ArrayLike

__all__ = ["KFold", "cross_val_accuracy"]

#: Below this many samples a fold fit is so cheap that process spawn
#: overhead dominates; the auto heuristic stays serial.
_PARALLEL_MIN_SAMPLES = 150


class KFold:
    """Split ``n`` samples into ``n_splits`` random folds.

    Yields ``(train_idx, test_idx)`` pairs. Folds differ in size by at
    most one sample.
    """

    def __init__(
        self, n_splits: int = 5, shuffle: bool = True, random_state: Optional[int] = None
    ) -> None:
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.n_splits = int(n_splits)
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, n_samples: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        if n_samples < self.n_splits:
            raise ValueError(
                f"cannot split {n_samples} samples into {self.n_splits} folds"
            )
        indices = np.arange(n_samples)
        if self.shuffle:
            rng = np.random.default_rng(self.random_state)
            rng.shuffle(indices)
        fold_sizes = np.full(self.n_splits, n_samples // self.n_splits)
        fold_sizes[: n_samples % self.n_splits] += 1
        start = 0
        for size in fold_sizes:
            stop = start + size
            test_idx = indices[start:stop]
            train_idx = np.concatenate([indices[:start], indices[stop:]])
            yield train_idx, test_idx
            start = stop


# Top-level so ProcessPoolExecutor can pickle it.
def _cv_fold_worker(
    args: Tuple[Callable[[], Any], np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> float:
    model_factory, X, y, train_idx, test_idx = args
    model = model_factory()
    model.fit(X[train_idx], y[train_idx])
    return float(model.score(X[test_idx], y[test_idx]))


def cross_val_accuracy(
    model_factory: Callable[[], Any],
    X: ArrayLike,
    y: ArrayLike,
    n_splits: int = 5,
    random_state: Optional[int] = None,
    n_jobs: Optional[int] = None,
) -> float:
    """Mean held-out accuracy over ``n_splits`` folds.

    ``model_factory`` is a zero-argument callable returning a fresh
    unfitted model exposing ``fit(X, y)`` and ``score(X, y)``. Folds whose
    training part contains a single class are still evaluated (the SVC
    degenerates to a constant predictor), mirroring what ExBox encounters
    early in bootstrap.

    ``n_jobs`` controls fold parallelism: ``1`` forces the serial loop,
    ``>= 2`` uses that many pool workers, and ``None`` (the default)
    parallelizes only once the training set is large enough for fold
    fits to dominate process overhead. Scores are reduced in fold order,
    so the result is bit-identical to the serial loop; an unpicklable
    factory (e.g. a lambda) silently falls back to serial.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y have mismatched lengths")
    kf = KFold(n_splits=n_splits, shuffle=True, random_state=random_state)
    folds = list(kf.split(X.shape[0]))
    scores = _fold_scores(model_factory, X, y, folds, n_jobs)
    return float(np.mean(scores))


def _fold_scores(
    model_factory: Callable[[], Any],
    X: np.ndarray,
    y: np.ndarray,
    folds: List[Tuple[np.ndarray, np.ndarray]],
    n_jobs: Optional[int],
) -> List[float]:
    """Per-fold held-out accuracies, in fold order."""
    if n_jobs is None:
        jobs = min(len(folds), os.cpu_count() or 1, 8)
        if X.shape[0] < _PARALLEL_MIN_SAMPLES:
            jobs = 1
    else:
        jobs = max(1, min(int(n_jobs), len(folds)))
    if jobs > 1:
        # Imported here: the serial path, the default for bootstrap-sized
        # sets, never loads concurrent.futures.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        work = [(model_factory, X, y, tr, te) for tr, te in folds]
        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                # pool.map preserves input order: deterministic reduction.
                return list(pool.map(_cv_fold_worker, work))
        except (pickle.PicklingError, AttributeError, TypeError,
                BrokenProcessPool, OSError):
            pass  # unpicklable factory or pool failure: fall through
    return [_cv_fold_worker((model_factory, X, y, tr, te)) for tr, te in folds]
