"""Retrain hot-path benchmark: warm-started vs cold (docs/performance.md).

The paper's Section 5.3 numbers make SVM training the dominant online
cost (~360 ms at 50 samples, >2 s at 1000 with the authors' stack). The
warm start — each SMO solve seeded with the previous retrain's duals —
attacks exactly that term. This benchmark replays a seeded
~1000-arrival closed-loop workload twice, once warm-started and once
fully cold, and compares the SMO work (``svm.smo.steps``,
deterministic) and the cumulative online-phase retrain wall-clock.

With ``REPRO_OBS_EXPORT=<path>`` in the environment (CI sets
``BENCH_perf.json``), the warm run is instrumented and the snapshot —
``admittance.retrain`` span latencies, ``svm.smo.steps`` counters, the
cold/warm ``retrain_perf.step_ratio``, the wall-clock
``retrain_perf.speedup`` (a trend, not gated) and precision/recall
gauges computed against the closed loop's measured ground truth — is
written for artifact upload and gated against
``benchmarks/baselines/BENCH_baseline_perf.json`` by
``python -m repro obs check``.
"""

import os
import time

import numpy as np

from repro.experiments.closedloop import run_closed_loop
from repro.experiments.harness import ExBoxScheme
from repro.ml.metrics import precision_score, recall_score
from repro.obs import Obs, write_bench_json
from repro.testbed.wifi_testbed import WiFiTestbed

#: ~1000 Poisson arrivals: 250 simulated minutes at 4 arrivals/minute.
DURATION_MIN = 250
ARRIVALS_PER_MIN = 4.0
SEED = 17
#: Floor on cold/warm SMO pair rounds. Seed 17 measures 15,844 / 12,367
#: ~= 1.28; the floor leaves room for label or schedule changes while a
#: warm start that seeds nothing (ratio 1.0) still fails.
MIN_STEP_RATIO = 1.25


class _TraceScheme(ExBoxScheme):
    """ExBox adapter that accounts online-update time and keeps the
    decision/truth streams for precision/recall."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.decisions = []
        self.truths = []
        self.update_seconds = 0.0

    def decide(self, event):
        decision = super().decide(event)
        self.decisions.append(int(decision))
        return decision

    def observe(self, event, truth):
        self.truths.append(int(truth))
        start = time.perf_counter()
        super().observe(event, truth)
        self.update_seconds += time.perf_counter() - start


def _run(warm, obs):
    scheme = _TraceScheme(batch_size=20, warm_start=warm)
    # Instrument the classifier directly (not the loop): the per-arrival
    # closed-loop recording re-queries margins, which would distort the
    # timing we are comparing.
    scheme.classifier.instrument(obs)
    run_closed_loop(
        scheme,
        WiFiTestbed(),
        seed=SEED,
        duration_min=DURATION_MIN,
        arrivals_per_min=ARRIVALS_PER_MIN,
    )
    return scheme


def test_retrain_amortization(benchmark, show):
    export = os.environ.get("REPRO_OBS_EXPORT", "").strip()
    obs_warm = Obs.recording()
    obs_cold = Obs.recording()

    def _both():
        warm = _run(warm=True, obs=obs_warm)
        cold = _run(warm=False, obs=obs_cold)
        return warm, cold

    warm, cold = benchmark.pedantic(_both, rounds=1, iterations=1)

    n = len(warm.decisions)
    assert n > 900  # the workload really is ~1000 arrivals
    assert len(cold.decisions) == n

    # The warm start must pay, checked on deterministic work: SMO pair
    # rounds, identical on every machine and run (exported as the gated
    # ``retrain_perf.step_ratio`` gauge). Wall-clock is only reported
    # (and exported as the ungated ``retrain_perf.speedup`` trend); the
    # warm-vs-cold delta *within* the current code understates the win
    # (the cold path shares the second-order solver), and retrain-latency
    # regressions are gated by `python -m repro obs check`.
    steps_warm = obs_warm.registry.counter("svm.smo.steps").value
    steps_cold = obs_cold.registry.counter("svm.smo.steps").value
    step_ratio = steps_cold / steps_warm
    assert step_ratio > MIN_STEP_RATIO
    speedup = cold.update_seconds / warm.update_seconds

    # Warm starts are tolerance-equivalent to cold ones: decisions may
    # differ only in a vanishing fraction.
    agreement = float(np.mean(np.array(warm.decisions) == np.array(cold.decisions)))
    assert agreement >= 0.99

    reg = obs_warm.registry
    precision = precision_score(warm.truths, warm.decisions)
    recall = recall_score(warm.truths, warm.decisions)
    reg.gauge("retrain_perf.precision").set(precision)
    reg.gauge("retrain_perf.recall").set(recall)
    reg.gauge("retrain_perf.step_ratio").set(step_ratio)
    reg.gauge("retrain_perf.speedup").set(speedup)

    show(
        f"retrain wall-clock: warm {warm.update_seconds:.2f}s, "
        f"cold {cold.update_seconds:.2f}s ({speedup:.1f}x); SMO steps "
        f"cold {steps_cold:.0f} / warm {steps_warm:.0f} ({step_ratio:.2f}x); "
        f"agreement {agreement:.4f}; precision {precision:.3f}, "
        f"recall {recall:.3f}; retrains {warm.classifier.n_retrains}"
    )

    if export:
        write_bench_json(
            export,
            reg,
            meta={
                "suite": "retrain_perf",
                "source": "benchmarks/test_retrain_perf.py",
                "n_arrivals": n,
                "retrain_seconds_warm": warm.update_seconds,
                "retrain_seconds_cold": cold.update_seconds,
                "speedup": speedup,
                "smo_step_ratio": step_ratio,
                "decision_agreement": agreement,
            },
        )
