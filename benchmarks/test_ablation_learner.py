"""Ablation: SVM vs decision tree as the Admittance Classifier learner.

Section 3 of the paper: "While other supervised classification methods
(e.g., decision trees) could be used by ExBox as well, we investigate
SVM for its intuitive fit... the actual learning technique is not
central to the concept of ExBox." This ablation backs that claim: both
learners run the identical WiFi-testbed workload through the identical
online harness.
"""

import numpy as np

from repro.core.admittance import AdmittanceClassifier
from repro.experiments.datasets import build_testbed_dataset
from repro.experiments.harness import ExBoxScheme, evaluate_scheme
from repro.ml.tree import DecisionTreeClassifier
from repro.ml.svm import SVC
from repro.testbed.wifi_testbed import WiFiTestbed
from repro.traffic.arrival import random_matrix_sequence

_FACTORIES = {
    "svm-rbf": lambda: SVC(C=10.0, kernel="rbf"),
    "cart-tree": lambda: DecisionTreeClassifier(max_depth=8),
}


def _run(factory):
    rng = np.random.default_rng(44)
    testbed = WiFiTestbed()
    matrices = random_matrix_sequence(300, max_per_class=10, rng=rng, max_total=10)
    samples = build_testbed_dataset(testbed, matrices, rng)
    scheme = ExBoxScheme(
        AdmittanceClassifier(
            batch_size=20,
            min_bootstrap_samples=40,
            max_bootstrap_samples=60,
            model_factory=factory,
        )
    )
    return evaluate_scheme(samples, scheme, n_bootstrap=60, eval_every=80)


def test_ablation_learner(benchmark, show):
    def run_all():
        return {name: _run(factory) for name, factory in _FACTORIES.items()}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    for name, series in results.items():
        print(
            f"{name:<10} precision={series.final_precision:.3f} "
            f"recall={series.final_recall:.3f} accuracy={series.final_accuracy:.3f}"
        )

    # Both learners must manage the region; the concept survives the
    # learner swap (the paper's modularity claim).
    for series in results.values():
        assert series.final_accuracy >= 0.75
    assert results["svm-rbf"].final_accuracy >= 0.85
