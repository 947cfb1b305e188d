"""What every workload hands back to the runner, and shared scoring."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from tracing import Tracer

from repro.experiments.harness import ExBoxScheme
from repro.obs import Obs

__all__ = ["PassResult", "binary_scores", "gram_work", "trace_scheme"]


@dataclass
class PassResult:
    """One pass of a workload: a fixed amount of work from set-up state.

    ``segments`` split the pass's timed region into fixed pieces of work,
    each ``(seconds, decide latencies)``; the same pass always yields the
    same segments, so the runner can take each segment's median repeat.
    ``timed_s`` is the whole timed region. ``work`` holds deterministic
    counters that must read the same on every repeat of the pass and with
    tracing on or off; ``traced_work`` holds the counters only a traced
    pass collects, compared across traced repeats. ``failed`` counts
    arrivals whose output check failed.
    """

    arrivals: int
    timed_s: float
    segments: Optional[List[Tuple[float, Sequence[float]]]]
    verdicts: Optional[List[int]]
    failed: int = 0
    work: Dict[str, Any] = field(default_factory=dict)
    traced_work: Dict[str, Any] = field(default_factory=dict)
    tracer: Optional[Tracer] = None
    # Whatever the workload's scorer needs; kept only for scoring.
    score_input: Any = None


def binary_scores(pairs: Sequence[Tuple[int, int]]) -> Tuple[float, float]:
    """Precision and recall of ``(verdict, truth)`` pairs, +1 = admit."""
    tp = sum(1 for v, t in pairs if v == 1 and t == 1)
    fp = sum(1 for v, t in pairs if v == 1 and t != 1)
    fn = sum(1 for v, t in pairs if v != 1 and t == 1)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall


def trace_scheme(tracer: Tracer, scheme: ExBoxScheme) -> Obs:
    """Trace the decide call and the learner of one ExBox adapter.

    Observes that retrained are reported as ``learn.retrain``, with the
    buffer rows they trained on summed in ``learn.buffer_rows``. The
    classifier alone gets a recording ``Obs`` so that its existing Gram
    cache counters can be read after the pass (see :func:`gram_work`).
    """
    classifier = scheme.classifier

    def observe_name(retrained: bool) -> str:
        if not retrained:
            return "learn.observe"
        tracer.counts["learn.buffer_rows"] += classifier.n_samples
        return "learn.retrain"

    tracer.span(scheme, "decide", "decide")
    tracer.span(classifier, "observe_online", "learn.observe", rename=observe_name)
    tracer.count(classifier, "margin", "learn.margin")
    tracer.count(classifier, "classify", "learn.classify")
    obs = Obs.recording()
    classifier.instrument(obs)
    return obs


def gram_work(obs: Obs) -> Dict[str, Any]:
    """Gram cache counters of a pass traced by :func:`trace_scheme`."""
    registry = obs.registry
    amortization = registry.histogram("retrain.amortization")
    return {
        "gram.cache.hits": registry.counter("gram.cache.hits").value,
        "gram.cache.misses": registry.counter("gram.cache.misses").value,
        "gram.reused_sum": amortization.sum,
        "gram.retrains": amortization.count,
    }
