"""closed_loop: the seeded closed loop on the WiFi testbed.

``run_closed_loop`` with Poisson arrivals at 4/min, exponential holds of
mean 6 min and ``ExBoxScheme(batch_size=20)`` over 250 simulated minutes
(~970 arrivals). Every arrival is decided and then observed before the
next one, so ground truth (``repro.testbed`` -> ``repro.wireless.fluid``),
learning and decisions all sit on the blocking path. It is the only
workload where the testbed is hot.

Set-up runs the bootstrap that ``run_closed_loop`` would run itself, with
the same public calls, on the RNG stream of the default seed 17 (``17 +
1``), so the loop finds the classifier online and, at ``--seed 17``, its
decisions are those of a plain ``run_closed_loop(seed=17)`` call. The
bootstrapped classifier is the system under test, fixed across runs;
``--seed`` draws the arrivals it serves (a per-seed bootstrap moved decide
cost by up to ~35% between seeds).

A pass's timed region is split into segments of ``SEGMENT_ARRIVALS``
arrivals, from one decide call's start to the start of the decide call
``SEGMENT_ARRIVALS`` later, so the runner can take each segment's median
repeat.
"""

from __future__ import annotations

import copy
import time
from array import array
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from common import PassResult, binary_scores, gram_work, trace_scheme
from tracing import Tracer

from repro.experiments.closedloop import run_closed_loop
from repro.experiments.datasets import build_testbed_dataset
from repro.experiments.harness import ExBoxScheme
from repro.testbed.wifi_testbed import WiFiTestbed
from repro.traffic.arrival import FlowEvent, random_matrix_sequence
from repro.traffic.flows import APP_CLASSES

DURATION_MIN = 250
ARRIVALS_PER_MIN = 4.0
MEAN_HOLD_MIN = 6.0
BATCH_SIZE = 20
BOOTSTRAP_MATRICES = 160
#: ``run_closed_loop(seed=17)`` bootstraps from ``default_rng(17 + 1)``.
TRAINING_SEED = 18
SEGMENT_ARRIVALS = 50
#: Distinct episodes per pass cycle; episode ``k`` draws its arrivals from
#: ``seed + EPISODE_STRIDE * k``, so episode 0 is the plain seeded loop.
EPISODES = 5
EPISODE_STRIDE = 1000


class _RecordingScheme(ExBoxScheme):
    """ExBox adapter that times each decide call and checks that every
    decided arrival is observed exactly once, in order."""

    def reset(self) -> None:
        self.events: List[FlowEvent] = []
        self.verdicts: List[int] = []
        self.latencies = array("d")
        self.starts = array("d")
        self.labels: List[int] = []
        self.unpaired = 0
        self._pending: Optional[FlowEvent] = None

    def decide(self, event: FlowEvent) -> int:
        start = time.perf_counter()
        self.starts.append(start)
        verdict = super().decide(event)
        self.latencies.append(time.perf_counter() - start)
        if self._pending is not None:
            self.unpaired += 1  # the previous arrival was never observed
        self._pending = event
        self.events.append(event)
        self.verdicts.append(int(verdict))
        return verdict

    def observe(self, event: FlowEvent, truth: int) -> None:
        if event is self._pending:
            self._pending = None
        else:
            self.unpaired += 1
        self.labels.append(int(truth))
        super().observe(event, truth)


def setup(_seed: int) -> Tuple[_RecordingScheme, WiFiTestbed]:
    testbed = WiFiTestbed()
    scheme = _RecordingScheme(batch_size=BATCH_SIZE, cv_jobs=1)
    rng = np.random.default_rng(TRAINING_SEED)
    matrices = random_matrix_sequence(
        BOOTSTRAP_MATRICES, max_per_class=testbed.max_clients, rng=rng,
        max_total=testbed.max_clients,
    )
    scheme.bootstrap(build_testbed_dataset(testbed, matrices, rng))
    return scheme, testbed


def pass_specs(seed: int) -> List[int]:
    return [seed + EPISODE_STRIDE * k for k in range(EPISODES)]


def run_pass(
    pristine: Tuple[_RecordingScheme, WiFiTestbed],
    episode_seed: int,
    tracer: Optional[Tracer],
) -> PassResult:
    scheme, testbed = copy.deepcopy(pristine)
    scheme.reset()
    classifier = scheme.classifier
    retrains_before = classifier.n_retrains
    obs = None
    if tracer is not None:
        tracer.count(testbed, "run_flows", "testbed.flows", amount=len)
        tracer.span(testbed, "run_flows", "testbed.run_flows")
        obs = trace_scheme(tracer, scheme)

    start = time.perf_counter()
    outcome = run_closed_loop(
        scheme, testbed, seed=episode_seed, duration_min=DURATION_MIN,
        arrivals_per_min=ARRIVALS_PER_MIN, mean_hold_min=MEAN_HOLD_MIN,
    )
    end = time.perf_counter()
    timed = end - start
    bounds = [start, *scheme.starts[SEGMENT_ARRIVALS::SEGMENT_ARRIVALS], end]
    segments = [
        (bounds[i + 1] - bounds[i],
         scheme.latencies[i * SEGMENT_ARRIVALS:(i + 1) * SEGMENT_ARRIVALS])
        for i in range(len(bounds) - 1)
    ]

    arrivals = len(scheme.verdicts)
    failed = scheme.unpaired + abs(outcome.admitted + outcome.rejected - arrivals)
    failed += abs(len(scheme.labels) - arrivals)
    work: Dict[str, Any] = {
        "admitted": outcome.admitted,
        "rejected": outcome.rejected,
        "retrains": classifier.n_retrains - retrains_before,
        "buffer_rows": classifier.n_samples,
        "labels": tuple(scheme.labels),
        "carried_flow_min": outcome.carried_flow_minutes,
        "ok_flow_min": outcome.ok_flow_minutes,
    }
    return PassResult(
        arrivals=arrivals,
        timed_s=timed,
        segments=segments,
        verdicts=scheme.verdicts,
        failed=failed,
        work=work,
        traced_work=gram_work(obs) if obs is not None else {},
        tracer=tracer,
        score_input=(scheme.events, scheme.verdicts, scheme.labels),
    )


def score(
    passes: List[PassResult], pristine: Tuple[_RecordingScheme, WiFiTestbed]
) -> Dict[str, float]:
    """Grade decisions against the noiseless label of ``matrix_before +
    flow`` (a full cell is inadmissible), measured on the set-up testbed."""
    truth_bed = pristine[1]
    binner = truth_bed.binner
    n_levels = binner.n_levels
    cache: Dict[Tuple[int, ...], int] = {}

    def noiseless(event: FlowEvent) -> int:
        after = event.matrix_after
        if after not in cache:
            if sum(after) > truth_bed.max_clients:
                cache[after] = -1
            else:
                specs = [
                    (APP_CLASSES[slot // n_levels], binner.representative(slot % n_levels))
                    for slot, count in enumerate(after)
                    for _ in range(count)
                ]
                cache[after] = truth_bed.run_flows(specs).label
        return cache[after]

    pairs, agree, observed = [], 0, 0
    carried = ok = 0.0
    for result in passes:
        events, verdicts, labels = result.score_input
        truths = [noiseless(event) for event in events]
        pairs.extend(zip(verdicts, truths))
        agree += sum(1 for label, truth in zip(labels, truths) if label == truth)
        observed += len(labels)
        carried += result.work["carried_flow_min"]
        ok += result.work["ok_flow_min"]
    precision, recall = binary_scores(pairs)
    return {
        "precision": precision,
        "recall": recall,
        "learn.label_agreement": agree / observed if observed else 0.0,
        "closedloop.qoe_ok_fraction": ok / carried if carried else 0.0,
        "closedloop.carried_flow_min": carried / len(passes),
    }
