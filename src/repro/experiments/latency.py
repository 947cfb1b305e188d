"""Decision/training latency benchmarks (Section 5.3, "Latency
benchmarks").

The paper times, on a quad-core i7 laptop: the admission-decision
latency of ExBox (~5 ms median) vs the baselines (<=2 ms), and SVM
training latency as a function of the training-set size (~360 ms at 50
samples, >2 s at 1000 with their implementation).

Both measurements are thin consumers of the :mod:`repro.obs`
instrumentation: each timed region runs under a tracing span, the raw
per-iteration durations come back from the tracer, and — when a caller
passes its own recording :class:`~repro.obs.Obs` — the same durations
land in that registry's span histograms (``latency.decision``,
``svm.fit``) for export to ``BENCH_*.json``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.baselines import AdmissionScheme
from repro.experiments.datasets import LabeledSample
from repro.ml.metrics import accuracy_score, precision_score, recall_score
from repro.ml.scaling import StandardScaler
from repro.ml.svm import SVC
from repro.obs.facade import Obs

__all__ = [
    "measure_decision_latency",
    "measure_training_latency",
    "measure_admission_quality",
    "median_ms",
]

#: Span (and histogram) names the measurement helpers emit.
DECISION_SPAN = "latency.decision"
TRAINING_SPAN = "svm.fit"


def median_ms(latencies_s: Sequence[float]) -> float:
    """Median of a latency sample, in milliseconds."""
    if not latencies_s:
        raise ValueError("no latency samples")
    return float(np.median(latencies_s) * 1e3)


def _span_durations(obs: Obs, name: str, start_index: int) -> List[float]:
    """Durations of spans named ``name`` finished after ``start_index``."""
    return [
        span.duration
        for span in obs.tracer.finished[start_index:]
        if span.name == name
    ]


def measure_decision_latency(
    scheme: AdmissionScheme,
    samples: Sequence[LabeledSample],
    repeats: int = 3,
    obs: Optional[Obs] = None,
) -> List[float]:
    """Per-decision wall-clock latencies (seconds) over a sample stream.

    Each decision runs under a ``latency.decision`` span; pass a
    recording ``obs`` to accumulate the same durations into that
    registry's histogram (the per-call return value is unchanged).
    """
    obs = obs if obs is not None and obs.enabled else Obs.recording()
    first = len(obs.tracer.finished)
    span = obs.span(DECISION_SPAN)
    for _ in range(repeats):
        for sample in samples:
            with span:
                scheme.decide(sample.event)
    return _span_durations(obs, DECISION_SPAN, first)


def measure_admission_quality(
    scheme: AdmissionScheme,
    samples: Sequence[LabeledSample],
    obs: Optional[Obs] = None,
) -> Dict[str, float]:
    """Precision/recall/accuracy of a scheme over labelled samples.

    These are the Section 5 decision-quality figures the CI baseline
    gate watches alongside the latency histograms: a code change that
    silently flips admission decisions shows up here as a precision or
    recall drop even when it leaves the latency distributions alone.
    When a recording ``obs`` is passed the three numbers land in its
    registry as the ``latency.eval.precision`` / ``latency.eval.recall``
    / ``latency.eval.accuracy`` gauges, exported with the snapshot.
    """
    if not samples:
        raise ValueError("no labelled samples")
    obs = obs if obs is not None and obs.enabled else Obs.recording()
    y_true = [sample.y for sample in samples]
    y_pred = [scheme.decide(sample.event) for sample in samples]
    quality = {
        "precision": precision_score(y_true, y_pred),
        "recall": recall_score(y_true, y_pred),
        "accuracy": accuracy_score(y_true, y_pred),
    }
    for key in sorted(quality):
        obs.gauge(f"latency.eval.{key}").set(quality[key])
    return quality


def measure_training_latency(
    n_samples: int,
    n_features: int = 4,
    repeats: int = 3,
    model_factory: Optional[Callable[[], SVC]] = None,
    seed: int = 3,
    obs: Optional[Obs] = None,
) -> List[float]:
    """SVM training wall-clock latencies for a given training-set size.

    Uses a synthetic linearly-separable-with-noise problem of the same
    dimensionality as the single-SNR ExBox feature space. Timing comes
    from the model's own ``svm.fit`` span (see :class:`repro.ml.svm.SVC`),
    so what is measured here is exactly what a production registry would
    record.
    """
    if n_samples < 4:
        raise ValueError("need at least 4 samples")
    obs = obs if obs is not None and obs.enabled else Obs.recording()
    factory = model_factory or (
        lambda: SVC(C=10.0, kernel="rbf", obs=obs)
    )
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, size=(n_samples, n_features))
    y = np.where(X.sum(axis=1) + rng.normal(0, 1.5, n_samples) < 5.0 * n_features / 2, 1.0, -1.0)
    if len(np.unique(y)) < 2:  # extremely unlikely; rebalance defensively
        y[: n_samples // 2] = 1.0
        y[n_samples // 2:] = -1.0
    Xs = StandardScaler().fit_transform(X)
    first = len(obs.tracer.finished)
    span = obs.span(TRAINING_SPAN)
    for _ in range(repeats):
        model = factory()
        if model.obs.enabled:
            # The SVC times itself; avoid double-counting the span.
            model.fit(Xs, y)
        else:
            with span:
                model.fit(Xs, y)
    return _span_durations(obs, TRAINING_SPAN, first)
