"""Multi-seed statistics for experiment robustness.

Single-seed numbers invite over-reading; this module reruns an
experiment across seeds and summarizes each metric with mean, standard
deviation and a Student-t confidence interval — the form the
seed-robustness benchmark asserts on and EXPERIMENTS.md quotes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Sequence

import numpy as np

__all__ = ["MetricSummary", "summarize_seeds", "separated"]


def _t_coverage(theta: float, df: int) -> float:
    """``P(|T| <= sqrt(df) * tan(theta))`` for Student's t with integer
    ``df``, in the closed form of Abramowitz & Stegun 26.7.3 (odd df)
    and 26.7.4 (even df)."""
    cos2 = math.cos(theta) ** 2
    odd = df % 2
    term = math.cos(theta) if odd else 1.0
    series = 0.0
    for k in range(1 + odd, df, 2):
        series += term
        term *= cos2 * k / (k + 1)
    if odd:
        return 2.0 / math.pi * (theta + math.sin(theta) * series)
    return math.sin(theta) * series


def _t_quantile(confidence: float, df: int) -> float:
    """Two-sided Student-t critical value: the ``t`` with
    ``P(|T| <= t) = confidence``, by bisection on ``theta = atan(t /
    sqrt(df))`` down to adjacent floats."""
    lo, hi = 0.0, math.pi / 2.0
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if _t_coverage(mid, df) < confidence:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return math.sqrt(df) * math.tan(mid)


@dataclass(frozen=True)
class MetricSummary:
    """Mean/std/CI of one metric over seeds."""

    name: str
    values: tuple
    confidence: float = 0.95

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        return float(np.std(self.values, ddof=1)) if self.n > 1 else 0.0

    @property
    def ci_halfwidth(self) -> float:
        """t-distribution confidence half-width (0 for a single seed)."""
        if self.n < 2:
            return 0.0
        t = _t_quantile(self.confidence, self.n - 1)
        return float(t * self.std / np.sqrt(self.n))

    @property
    def ci(self) -> tuple:
        h = self.ci_halfwidth
        return (self.mean - h, self.mean + h)

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.mean:.3f} +/- {self.ci_halfwidth:.3f} "
            f"(n={self.n}, std={self.std:.3f})"
        )


def summarize_seeds(
    experiment: Callable[[int], Dict[str, float]],
    seeds: Sequence[int],
    confidence: float = 0.95,
) -> Dict[str, MetricSummary]:
    """Run ``experiment(seed) -> {metric: value}`` per seed and summarize.

    Every seed must report the same metric names.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    collected: Dict[str, list] = {}
    expected = None
    for seed in seeds:
        metrics = experiment(int(seed))
        if expected is None:
            expected = set(metrics)
            for name in metrics:
                collected[name] = []
        elif set(metrics) != expected:
            raise ValueError(
                f"seed {seed} reported metrics {sorted(metrics)} != {sorted(expected)}"
            )
        for name, value in metrics.items():
            collected[name].append(float(value))
    return {
        name: MetricSummary(name=name, values=tuple(values), confidence=confidence)
        for name, values in collected.items()
    }


def separated(a: MetricSummary, b: MetricSummary) -> bool:
    """True when the two metrics' confidence intervals do not overlap
    (a conservative 'a is really different from b' check)."""
    lo_a, hi_a = a.ci
    lo_b, hi_b = b.ci
    return hi_a < lo_b or hi_b < lo_a
