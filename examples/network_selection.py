"""Network selection across a WiFi AP and an LTE small cell.

The paper's Section 4.1 deployment: ExBox sits on the PDN gateway with
a view of both networks, learns one Admittance Classifier per cell, and
steers each new flow to the network where the admission lands deepest
inside the capacity region (largest SVM margin). Watch the selector
shift traffic to LTE as the WiFi cell fills, and declare both networks
full when neither can take more.

Run:  python examples/network_selection.py
"""

import numpy as np

from repro import FlowRequest, LTETestbed, WiFiTestbed
from repro.core import ExBoxFleet
from repro.experiments.datasets import build_testbed_dataset
from repro.traffic.arrival import random_matrix_sequence
from repro.traffic.flows import APP_CLASSES

rng = np.random.default_rng(16)

# --- learn one classifier per cell, offline-style bootstrap ------------
fleet = ExBoxFleet()
for name, testbed in (("wifi-ap-1", WiFiTestbed()), ("lte-cell-1", LTETestbed())):
    classifier = fleet.add_cell(
        name, batch_size=20, min_bootstrap_samples=80, max_bootstrap_samples=150,
        cv_threshold=0.85,
    ).admittance
    matrices = random_matrix_sequence(
        160, max_per_class=testbed.max_clients, rng=rng,
        max_total=testbed.max_clients,
    )
    for sample in build_testbed_dataset(testbed, matrices, rng):
        if classifier.is_online:
            break
        classifier.observe_bootstrap(sample.x, sample.y)
    if not classifier.is_online:
        classifier.force_online()
    print(
        f"{name}: online after {classifier.bootstrap_samples_used} bootstrap "
        f"samples (CV accuracy {classifier.last_cv_accuracy:.2f})"
    )

# --- steer a stream of arrivals ----------------------------------------
print("\narrival  class          placed-on      margins")
placements = {"wifi-ap-1": 0, "lte-cell-1": 0, "blocked": 0}
for i in range(24):
    cls_idx = int(rng.integers(len(APP_CLASSES)))
    result = fleet.handle_arrival(FlowRequest(client_id=i, app_class=APP_CLASSES[cls_idx]))
    margins = "  ".join(f"{k}:{v:+.2f}" for k, v in result.margins.items())
    target = result.cell or "blocked"
    placements[target] = placements.get(target, 0) + 1
    print(f"{i:7d}  {APP_CLASSES[cls_idx]:<13}  {target:<13}  {margins}")

print("\nplacements:", placements)
print("final WiFi matrix:", fleet.cell("wifi-ap-1").current_matrix.counts)
print("final LTE matrix: ", fleet.cell("lte-cell-1").current_matrix.counts)
