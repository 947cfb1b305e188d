"""The IQX hypothesis: QoE = alpha + beta * exp(-gamma * QoS).

Fiedler, Hossfeld and Tran-Gia's IQX hypothesis (IEEE Network 2010,
reference [44] of the paper) posits an exponential relationship between a
dominant QoS metric and the resulting QoE. ExBox fits one IQX model per
application class from a training device's measurements and then uses it
to estimate QoE from passive network-side QoS (Section 3.2).

Fitting follows the paper: least squares over (QoS, QoE) pairs, with
QoS normalized to [0, 1] first so that gamma is comparable across
applications. The curve is linear in alpha and beta, so the fit is a
1-D search over gamma (variable projection): for each gamma, alpha and
beta have a closed form, and the residual sum of squares (RSS) of that
best pair is evaluated over a log grid on gamma, then over finer and
finer linear grids on the bracket around the best gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["IQXModel", "fit_iqx", "normalize_qos", "GAMMA_MIN", "GAMMA_MAX"]

# The gamma search range, and how finely gamma is located inside it.
GAMMA_MIN = 1e-4
GAMMA_MAX = 200.0
_GAMMA_RTOL = 1e-10
_LOG_GRID = 128  # first pass: log-spaced points on [GAMMA_MIN, GAMMA_MAX]
_ZOOM_GRID = 17  # each refinement: 16 intervals over a 2-interval bracket


def _iqx(qos: np.ndarray, alpha: float, beta: float, gamma: float) -> np.ndarray:
    return alpha + beta * np.exp(-gamma * qos)


def normalize_qos(
    qos_values: Sequence[float],
    lo: Optional[float] = None,
    hi: Optional[float] = None,
    log_scale: bool = True,
) -> Tuple[np.ndarray, float, float]:
    """Scale QoS samples into [0, 1]; returns (scaled, lo, hi).

    ``lo``/``hi`` may be pinned (e.g. to apply a training normalization
    to later samples); by default they come from the data. The paper's
    scalar QoS (throughput/delay) spans several orders of magnitude with
    all the QoE action at the low end, so normalization is logarithmic
    by default — the IQX exponential then has a fittable operating range.
    """
    arr = np.asarray(qos_values, dtype=float)
    if arr.size == 0:
        raise ValueError("no QoS samples")
    if log_scale and np.any(arr <= 0):
        raise ValueError("log-scale normalization needs positive QoS values")
    lo = float(arr.min()) if lo is None else float(lo)
    hi = float(arr.max()) if hi is None else float(hi)
    if hi <= lo:
        raise ValueError("degenerate QoS range")
    if log_scale:
        scaled = (np.log(arr) - np.log(lo)) / (np.log(hi) - np.log(lo))
    else:
        scaled = (arr - lo) / (hi - lo)
    return np.clip(scaled, 0.0, 1.0), lo, hi


@dataclass(frozen=True)
class IQXModel:
    """A fitted IQX curve plus the QoS normalization it was fitted under."""

    alpha: float
    beta: float
    gamma: float
    qos_lo: float = 0.0
    qos_hi: float = 1.0
    rmse: float = float("nan")
    log_scale: bool = True

    def predict(self, qos: float) -> float:
        """QoE estimate for one raw (unnormalized) QoS value."""
        if self.log_scale:
            qos = max(qos, 1e-12)
            x = (math.log(qos) - math.log(self.qos_lo)) / (
                math.log(self.qos_hi) - math.log(self.qos_lo)
            )
        else:
            x = (qos - self.qos_lo) / (self.qos_hi - self.qos_lo)
        x = min(max(x, 0.0), 1.0)
        return self.alpha + self.beta * math.exp(-self.gamma * x)

    def predict_many(self, qos_values: Sequence[float]) -> np.ndarray:
        x, _, _ = normalize_qos(
            qos_values, self.qos_lo, self.qos_hi, log_scale=self.log_scale
        )
        return _iqx(x, self.alpha, self.beta, self.gamma)

    @property
    def decreasing(self) -> bool:
        """True when QoE falls as QoS improves (e.g. page-load time)."""
        return self.beta * self.gamma > 0


def _profile(
    x: np.ndarray, qoe_c: np.ndarray, gammas: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """RSS and beta of the best (alpha, beta) at each gamma.

    Uses mean-centered ``expm1`` so that small gammas, where
    ``exp(-gamma * x)`` is within rounding of 1, keep their precision.
    """
    e = np.expm1(-gammas[:, None] * x[None, :])
    e -= e.mean(axis=1, keepdims=True)
    beta = (e @ qoe_c) / np.einsum("ij,ij->i", e, e)
    resid = qoe_c[None, :] - beta[:, None] * e
    return np.einsum("ij,ij->i", resid, resid), beta


def fit_iqx(
    qos_values: Sequence[float],
    qoe_values: Sequence[float],
    log_scale: bool = True,
) -> IQXModel:
    """Least-squares IQX fit over raw (QoS, QoE) samples.

    Gamma is searched over [``GAMMA_MIN``, ``GAMMA_MAX``] as the module
    docstring describes, until the bracket between the best gamma's grid
    neighbours is narrower than 1e-10 relative. Where the RSS has one
    minimum in gamma at grid resolution, the returned RSS is within a
    factor 1 + 1e-9 of the best over the whole range. Rising curves
    (beta < 0, e.g. PSNR) and falling ones (beta > 0, e.g. delays) need
    no orientation hint.
    """
    qoe = np.asarray(qoe_values, dtype=float)
    if len(qos_values) != qoe.size:
        raise ValueError("QoS and QoE sample counts differ")
    if qoe.size < 3:
        raise ValueError("need at least 3 samples to fit 3 parameters")
    x, lo, hi = normalize_qos(qos_values, log_scale=log_scale)

    qoe_c = qoe - qoe.mean()
    gammas = np.geomspace(GAMMA_MIN, GAMMA_MAX, _LOG_GRID)
    best_rss, gamma, beta = float("inf"), GAMMA_MAX, 0.0
    while True:
        rss, betas = _profile(x, qoe_c, gammas)
        k = int(rss.argmin())
        if rss[k] < best_rss:
            best_rss, gamma, beta = float(rss[k]), float(gammas[k]), float(betas[k])
        left, right = gammas[max(k - 1, 0)], gammas[min(k + 1, gammas.size - 1)]
        if right - left <= _GAMMA_RTOL * right:
            break
        gammas = np.linspace(left, right, _ZOOM_GRID)
    alpha = float(qoe.mean() - beta * np.exp(-gamma * x).mean())
    resid = _iqx(x, alpha, beta, gamma) - qoe
    rmse = float(np.sqrt(np.mean(resid**2)))
    return IQXModel(
        alpha=alpha, beta=beta, gamma=gamma, qos_lo=lo, qos_hi=hi,
        rmse=rmse, log_scale=log_scale,
    )
