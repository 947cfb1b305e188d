"""Ablation: incremental (warm-start) vs cold-start SVM retraining.

The paper flags SVM training latency as ExBox's bottleneck (~360 ms at
50 samples, >2 s at 1000 with their stack) and cites the online-SVM
literature for incremental updates. Our SMO accepts a warm-start dual
vector; this ablation measures the retrain-latency ratio over a growing
buffer and checks that accuracy is unaffected.
"""

import time

import numpy as np

from repro.core.admittance import AdmittanceClassifier


def _drive(warm_start: bool, n_samples: int = 600, batch: int = 50):
    rng = np.random.default_rng(45)
    classifier = AdmittanceClassifier(batch_size=batch, warm_start=warm_start)
    retrain_seconds = 0.0
    for _ in range(n_samples):
        x = rng.uniform(-2, 2, size=4)
        y = 1.0 if (x**2).sum() < 5.0 else -1.0
        if not classifier.is_online:
            # The first batch is the bootstrap set: going online fits it.
            classifier.add_sample(x, y)
            if classifier.n_samples == batch:
                start = time.perf_counter()
                classifier.force_online()
                retrain_seconds += time.perf_counter() - start
            continue
        start = time.perf_counter()
        if classifier.observe_online(x, y):
            retrain_seconds += time.perf_counter() - start
    X = rng.uniform(-2, 2, size=(300, 4))
    y = np.where((X**2).sum(axis=1) < 5.0, 1.0, -1.0)
    accuracy = float(np.mean(classifier.classify_batch(X) == y))
    return retrain_seconds, accuracy


def test_ablation_warm_start(benchmark, show):
    def run_both():
        return {"cold": _drive(False), "warm": _drive(True)}

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    cold_t, cold_acc = results["cold"]
    warm_t, warm_acc = results["warm"]
    print(
        f"\ncold-start: {cold_t * 1e3:7.1f} ms total retrain, accuracy {cold_acc:.3f}"
        f"\nwarm-start: {warm_t * 1e3:7.1f} ms total retrain, accuracy {warm_acc:.3f}"
        f"\nspeedup: {cold_t / max(warm_t, 1e-9):.2f}x\n"
    )

    # Warm starting must not cost accuracy and should not be slower by
    # more than measurement noise.
    assert warm_acc >= cold_acc - 0.03
    assert warm_t <= cold_t * 1.3
