"""Kernel functions for the SVM implementation.

A kernel is a callable ``k(X, Z) -> numpy.ndarray`` returning the Gram
matrix between the rows of ``X`` (shape ``(n, d)``) and ``Z`` (shape
``(m, d)``). Kernels are plain objects so they can be compared, repr'd in
experiment logs and resolved from string names in configuration.

Entry-exactness contract
------------------------
Every kernel here computes each Gram entry from its own row pair alone,
accumulating over feature dimensions in a fixed order, instead of one
large BLAS ``X @ Z.T``. BLAS chooses different blocking (and therefore
different floating-point summation orders) for different matrix shapes,
so a Gram matrix assembled from sub-blocks would differ in the last ulp
from a single full call. With per-dimension accumulation,
``k(X, Z)[i, j]`` is a pure function of ``(X[i], Z[j])`` — bit-identical
whether computed alone, inside a block, or as part of the full matrix.

:meth:`SVC.decision_function <repro.ml.svm.SVC.decision_function>`
keeps the same property one level up: it reduces each row of weighted
kernel entries over the support vectors on its own (a per-row sum, not
a BLAS ``coef @ K``), so a single arrival's margin is bit-identical to
its row of a batched ``classify_batch`` call. The evaluation harness
decides in batches on that guarantee, and ``perfbench`` checks it per
decided arrival. For the RBF kernel, inference builds its rows against
the support vectors in one broadcast (``X[:, None, :] - SV``, squared,
summed over features) rather than through :func:`pairwise_sq_dists`.
numpy sums fewer than 8 contiguous terms left to right, the order of the
per-dimension loop, so below 8 features the two give equal entries; from
8 features on numpy's pairwise summation may round the squared distance
differently, by a relative ``(d - 1) * eps`` at most. Training keeps the
loop: on a 140-1000-row Gram it is two to three times as fast as the
broadcast. Both relations are tested in ``tests/ml/test_svm.py``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Union

import numpy as np

__all__ = [
    "Kernel",
    "LinearKernel",
    "PolynomialKernel",
    "RBFKernel",
    "freeze_kernel",
    "pairwise_dot",
    "pairwise_sq_dists",
    "resolve_kernel",
]

#: What the SVM actually needs: any Gram-matrix callable.
Kernel = Callable[[np.ndarray, np.ndarray], np.ndarray]


def pairwise_dot(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """``X @ Z.T`` with shape-independent per-entry rounding.

    Accumulates one feature dimension at a time, so entry ``(i, j)`` is
    the same floating-point number regardless of how many rows either
    matrix has (see the module docstring). O(n·m·d) like BLAS, with a
    constant-factor penalty that is irrelevant next to the SMO solve.
    """
    n, d = X.shape
    m = Z.shape[0]
    acc = np.zeros((n, m))
    for j in range(d):
        acc += X[:, j][:, None] * Z[:, j][None, :]
    return acc


def pairwise_sq_dists(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """``||x_i - z_j||^2`` with shape-independent per-entry rounding.

    Summing squared per-dimension differences keeps every entry exactly
    non-negative by construction (no catastrophic cancellation, so no
    clamping) and bit-identical across block assembly.
    """
    n, d = X.shape
    m = Z.shape[0]
    acc = np.zeros((n, m))
    for j in range(d):
        diff = X[:, j][:, None] - Z[:, j][None, :]
        np.multiply(diff, diff, out=diff)
        acc += diff
    return acc


class LinearKernel:
    """Inner-product kernel ``k(x, z) = x . z``."""

    name = "linear"

    def __call__(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        return pairwise_dot(X, Z)

    def __repr__(self) -> str:
        return "LinearKernel()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinearKernel)

    def __hash__(self) -> int:
        return hash(self.name)


class RBFKernel:
    """Gaussian kernel ``k(x, z) = exp(-gamma * ||x - z||^2)``.

    ``gamma`` may be a positive float or the string ``"scale"``, in which
    case it is resolved per Gram-matrix call as ``1 / (d * var(X))``
    (matching the common libsvm/sklearn convention). Fitted models freeze
    the resolved value via :func:`freeze_kernel`, so train and inference
    Grams always agree on the bandwidth.
    """

    name = "rbf"

    def __init__(self, gamma: "float | str" = "scale") -> None:
        if isinstance(gamma, str):
            if gamma != "scale":
                raise ValueError(f"unknown gamma spec: {gamma!r}")
        elif gamma <= 0:
            raise ValueError("gamma must be positive")
        self.gamma = gamma

    def _resolve_gamma(self, X: np.ndarray) -> float:
        if isinstance(self.gamma, str):
            var = float(X.var())
            if var <= 0:
                var = 1.0
            return 1.0 / (X.shape[1] * var)
        return float(self.gamma)

    def frozen(self, X: np.ndarray) -> "RBFKernel":
        """A copy with ``gamma`` resolved against ``X`` to a concrete
        float (idempotent for explicit-gamma kernels)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return RBFKernel(gamma=self._resolve_gamma(X))

    def __call__(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        gamma = self._resolve_gamma(X)
        sq = pairwise_sq_dists(X, Z)
        np.multiply(sq, -gamma, out=sq)
        return np.exp(sq, out=sq)

    def __repr__(self) -> str:
        return f"RBFKernel(gamma={self.gamma!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RBFKernel) and other.gamma == self.gamma

    def __hash__(self) -> int:
        return hash((self.name, self.gamma))


class PolynomialKernel:
    """Polynomial kernel ``k(x, z) = (x . z + coef0) ** degree``."""

    name = "poly"

    def __init__(self, degree: int = 3, coef0: float = 1.0) -> None:
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = int(degree)
        self.coef0 = float(coef0)

    def __call__(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        return (pairwise_dot(X, Z) + self.coef0) ** self.degree

    def __repr__(self) -> str:
        return f"PolynomialKernel(degree={self.degree}, coef0={self.coef0})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PolynomialKernel)
            and other.degree == self.degree
            and other.coef0 == self.coef0
        )

    def __hash__(self) -> int:
        return hash((self.name, self.degree, self.coef0))


def freeze_kernel(kernel: Kernel, X: np.ndarray) -> Kernel:
    """Resolve any data-dependent kernel parameters against ``X``.

    For an :class:`RBFKernel` with ``gamma="scale"`` this returns a copy
    with the concrete bandwidth ``1 / (d * var(X))``; every other kernel
    is already data-independent and is returned as-is. Fitting code calls
    this once per fit so training and inference share one effective
    kernel (the `gamma="scale"` train/inference mismatch fix).
    """
    if isinstance(kernel, RBFKernel) and isinstance(kernel.gamma, str):
        return kernel.frozen(X)
    return kernel


_KERNELS: Dict[str, Callable[..., Kernel]] = {
    "linear": LinearKernel,
    "rbf": RBFKernel,
    "poly": PolynomialKernel,
}


def resolve_kernel(spec: Union[str, Kernel], **kwargs: Any) -> Kernel:
    """Return a kernel object from a name, callable or kernel instance.

    >>> resolve_kernel("rbf", gamma=0.5)
    RBFKernel(gamma=0.5)
    """
    if callable(spec):
        return spec
    try:
        factory = _KERNELS[spec]
    except KeyError:
        raise ValueError(
            f"unknown kernel {spec!r}; expected one of {sorted(_KERNELS)}"
        ) from None
    return factory(**kwargs)
