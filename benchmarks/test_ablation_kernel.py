"""Ablation: SVM kernel choice for the Admittance Classifier.

The paper uses an off-the-shelf SVM and notes the learning technique is
modular. This ablation compares the default RBF kernel against a linear
kernel on the WiFi-testbed workload: the ExCR boundary is close to (but
not exactly) a hyperplane in count space, so linear should be
competitive while RBF captures the delay-driven curvature.
"""

import numpy as np

from repro.core.admittance import AdmittanceClassifier
from repro.experiments.datasets import build_testbed_dataset
from repro.experiments.harness import ExBoxScheme, evaluate_scheme
from repro.ml.svm import SVC
from repro.testbed.wifi_testbed import WiFiTestbed
from repro.traffic.arrival import random_matrix_sequence


def _run_kernel(kernel: str):
    rng = np.random.default_rng(41)
    testbed = WiFiTestbed()
    matrices = random_matrix_sequence(300, max_per_class=10, rng=rng, max_total=10)
    samples = build_testbed_dataset(testbed, matrices, rng)
    scheme = ExBoxScheme(
        AdmittanceClassifier(
            batch_size=20,
            min_bootstrap_samples=40,
            max_bootstrap_samples=60,
            model_factory=lambda: SVC(C=10.0, kernel=kernel),
        )
    )
    return evaluate_scheme(samples, scheme, n_bootstrap=60, eval_every=80)


def test_ablation_kernel(benchmark, show):
    def run_all():
        return {kernel: _run_kernel(kernel) for kernel in ("rbf", "linear")}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    for kernel, series in results.items():
        print(
            f"kernel={kernel:<7} precision={series.final_precision:.3f} "
            f"recall={series.final_recall:.3f} accuracy={series.final_accuracy:.3f}"
        )

    # Both kernels must learn the region; RBF must not be worse by much.
    assert results["rbf"].final_accuracy >= 0.8
    assert results["linear"].final_accuracy >= 0.7
    assert results["rbf"].final_accuracy >= results["linear"].final_accuracy - 0.05
