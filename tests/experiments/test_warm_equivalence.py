"""Equivalence tests for the amortized retrain hot path.

Two properties guard the perf work at system level:

1. **Warm-start equivalence** — on seeded closed-loop workloads, warm
   starting the SMO solver from the previous retrain's dual variables
   must not flip a single admission decision, and margins must agree
   within ``TOL_EQUIV``. (Bit-identity is *not* required here: warm
   starts legitimately land on a different point of the same optimum's
   tolerance ball.)
2. **Chunked-harness equivalence** — ``evaluate_scheme``'s
   horizon-bounded ``decide_batch`` chunking must reproduce the decision
   sequence of the plain decide/observe-per-sample loop.
"""

import numpy as np
import pytest

from repro.core.excr import encode_event
from repro.experiments.closedloop import run_closed_loop
from repro.experiments.datasets import LabeledSample
from repro.experiments.harness import EvaluationSeries, ExBoxScheme, evaluate_scheme
from repro.testbed.controller import MatrixRun
from repro.testbed.wifi_testbed import WiFiTestbed
from repro.traffic.arrival import FlowEvent

#: Documented warm-start margin tolerance (see docs/performance.md):
#: seeded closed-loop runs show max deltas around 1e-2; decisions
#: themselves must match exactly.
TOL_EQUIV = 0.05


class _CaptureScheme(ExBoxScheme):
    """ExBox adapter that records every online decision and margin."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.decisions = []
        self.margins = []

    def decide(self, event):
        x = encode_event(event)
        decision = self.classifier.classify(x)
        self.decisions.append(int(decision))
        self.margins.append(float(self.classifier.margin(x)))
        return decision


def _closed_loop_trace(seed, warm_start):
    scheme = _CaptureScheme(batch_size=15, warm_start=warm_start)
    run_closed_loop(
        scheme, WiFiTestbed(), seed=seed, duration_min=60, arrivals_per_min=3.0
    )
    return scheme


class TestWarmStartEquivalence:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_zero_decision_flips_and_bounded_margins(self, seed):
        warm = _closed_loop_trace(seed, warm_start=True)
        cold = _closed_loop_trace(seed, warm_start=False)
        assert len(warm.decisions) == len(cold.decisions) > 100
        assert warm.decisions == cold.decisions
        deltas = np.abs(np.asarray(warm.margins) - np.asarray(cold.margins))
        assert float(deltas.max()) < TOL_EQUIV

    def test_warm_start_actually_engaged(self):
        scheme = _closed_loop_trace(seed=3, warm_start=True)
        learner = scheme.classifier._learner
        assert learner.warm_start
        assert len(learner._alpha_by_key) > 0


def _sample(matrix_before, cls_idx, y):
    event = FlowEvent(matrix_before=matrix_before, app_class_index=cls_idx, snr_level=0)
    return LabeledSample(
        event=event, x=encode_event(event), y=y, run=MatrixRun(records=())
    )


def _stream(n, boundary=5, seed=0):
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        total = int(rng.integers(0, 2 * boundary + 1))
        counts = tuple(int(v) for v in rng.multinomial(total, [1 / 3] * 3))
        cls = int(rng.integers(0, 3))
        y = 1 if sum(counts) + 1 <= boundary else -1
        samples.append(_sample(counts, cls, y))
    return samples


def _reference_series(samples, scheme, n_bootstrap, eval_every):
    """The pre-batching harness loop: decide, record, observe — one
    sample at a time."""
    scheme.bootstrap(samples[:n_bootstrap])
    series = EvaluationSeries(scheme=scheme.name)
    for i, sample in enumerate(samples[n_bootstrap:], start=1):
        series.y_true.append(sample.y)
        series.y_pred.append(int(scheme.decide(sample.event)))
        series.app_classes.append(sample.app_class)
        scheme.observe(sample.event, sample.y)
        if i % eval_every == 0:
            series._checkpoint()
    if not series.sample_counts or series.sample_counts[-1] != len(series.y_true):
        series._checkpoint()
    return series


class TestChunkedHarnessEquivalence:
    def test_chunked_matches_per_sample_loop(self):
        def make_scheme():
            return ExBoxScheme(
                batch_size=20, min_bootstrap_samples=50, max_bootstrap_samples=80
            )

        samples = _stream(400, boundary=5, seed=6)
        chunked = evaluate_scheme(
            samples, make_scheme(), n_bootstrap=80, eval_every=40
        )
        reference = _reference_series(
            samples, make_scheme(), n_bootstrap=80, eval_every=40
        )
        assert chunked.y_pred == reference.y_pred
        assert chunked.sample_counts == reference.sample_counts
        assert chunked.precision == reference.precision
        assert chunked.recall == reference.recall
