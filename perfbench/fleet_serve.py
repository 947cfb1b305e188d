"""fleet_serve: read-only placement across a trained 4-cell fleet.

Two ``WiFiTestbed`` cells and two ``LTETestbed`` cells, each bootstrapped
in set-up as ``examples/campus_fleet.py`` does, serve Poisson arrivals
(5/min) with exponential holds (mean 6 min): about 30 flows offered to
36 clients, so the cells run near their limits. Each user sees one WiFi AP
and both LTE cells, and ``ExBoxFleet.handle_arrival`` places the flow on
the candidate with the largest margin. Nothing is learned and nothing is
measured while serving, so the decision path (``repro.core.fleet`` ->
``repro.core.exbox`` -> ``AdmittanceClassifier`` inference) is the only
hot layer.

A flow placed on a cell already at its testbed's client limit departs at
once and is counted as ``no_room``, as ``run_closed_loop`` does, which
keeps every cell inside the region its classifier was trained on. Every
pass starts from a copy of the post-set-up fleet. A pass's timed region is
split into segments of ``SEGMENT_MINUTES`` simulated minutes, so the
runner can take each segment's median repeat.
"""

from __future__ import annotations

import copy
import time
from array import array
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import PassResult, binary_scores
from tracing import Tracer

from repro.core.excr import encode_event
from repro.core.fleet import ExBoxFleet
from repro.experiments.datasets import build_testbed_dataset
from repro.experiments.figures import trained_estimator
from repro.testbed.base import EmulatedTestbed
from repro.testbed.lte_testbed import LTETestbed
from repro.testbed.wifi_testbed import WiFiTestbed
from repro.traffic.arrival import FlowEvent, random_matrix_sequence
from repro.traffic.flows import APP_CLASSES, Flow, FlowRequest
from repro.wireless.channel import HIGH_SNR_DB

CELLS = (
    ("wifi-library", WiFiTestbed),
    ("wifi-cafeteria", WiFiTestbed),
    ("lte-north", LTETestbed),
    ("lte-south", LTETestbed),
)
COVERAGE = (
    ("wifi-library", "lte-north", "lte-south"),
    ("wifi-cafeteria", "lte-north", "lte-south"),
)
BOOTSTRAP_MATRICES = 130
#: The trained fleet is the system under test, fixed across runs like the
#: IQX models; ``--seed`` draws the traffic it serves. (The example's seed,
#: 44, trains a fleet that puts ~24% of arrivals on full cells.)
TRAINING_SEED = 1
ARRIVALS_PER_MIN = 5.0
MEAN_HOLD_MIN = 6.0
MINUTES = 1000
SEGMENT_MINUTES = 10
#: Distinct serving episodes per pass cycle, arrivals drawn from
#: ``seed + EPISODE_STRIDE * k``.
EPISODES = 2
EPISODE_STRIDE = 1000

Pristine = Tuple[ExBoxFleet, Dict[str, EmulatedTestbed]]
# (placement cell, its matrix before the arrival, class index, verdict)
Placement = Tuple[str, Tuple[int, ...], int, int]


def setup(_seed: int) -> Pristine:
    rng = np.random.default_rng(TRAINING_SEED)
    fleet = ExBoxFleet(qoe_estimator=trained_estimator(seed=3))
    testbeds: Dict[str, EmulatedTestbed] = {}
    for name, factory in CELLS:
        testbed = testbeds[name] = factory()
        exbox = fleet.add_cell(
            name, batch_size=20, min_bootstrap_samples=60,
            max_bootstrap_samples=120, cv_threshold=0.85, cv_jobs=1,
        )
        matrices = random_matrix_sequence(
            BOOTSTRAP_MATRICES, max_per_class=testbed.max_clients, rng=rng,
            max_total=testbed.max_clients,
        )
        for sample in build_testbed_dataset(testbed, matrices, rng):
            if exbox.admittance.is_online:
                break
            exbox.admittance.observe_bootstrap(sample.x, sample.y)
        if not exbox.admittance.is_online:
            exbox.admittance.force_online()
    return fleet, testbeds


def pass_specs(seed: int) -> List[int]:
    return [seed + EPISODE_STRIDE * k for k in range(EPISODES)]


def run_pass(pristine: Pristine, episode_seed: int, tracer: Optional[Tracer]) -> PassResult:
    fleet = copy.deepcopy(pristine[0])
    limits = {name: testbed.max_clients for name, testbed in pristine[1].items()}
    cells = {name: fleet.cell(name) for name in fleet.cells}
    if tracer is not None:
        tracer.span(fleet, "handle_arrival", "decide")
        tracer.span(fleet, "handle_departure", "fleet.departure")
        for exbox in cells.values():
            tracer.count(exbox.admittance, "margin", "learn.margin")
            tracer.count(exbox.admittance, "classify", "learn.classify")
    handle_arrival, handle_departure = fleet.handle_arrival, fleet.handle_departure

    rng = np.random.default_rng(episode_seed)
    load = {name: 0 for name in cells}
    active: List[Tuple[float, Flow, str]] = []
    placements: List[Placement] = []
    verdicts: List[int] = []
    latencies = array("d")
    failed = no_room = departures = 0
    clock = time.perf_counter
    start = clock()
    bounds: List[Tuple[float, int]] = []
    for minute in range(MINUTES):
        if minute % SEGMENT_MINUTES == 0:
            bounds.append((clock(), len(latencies)))
        still = []
        for depart, flow, cell in active:
            if depart <= minute:
                handle_departure(flow)
                load[cell] -= 1
                departures += 1
            else:
                still.append((depart, flow, cell))
        active = still
        for _ in range(int(rng.poisson(ARRIVALS_PER_MIN))):
            candidates = COVERAGE[int(rng.integers(len(COVERAGE)))]
            cls_idx = int(rng.integers(len(APP_CLASSES)))
            hold = max(float(rng.exponential(MEAN_HOLD_MIN)), 1.0)
            request = FlowRequest(
                client_id=len(verdicts), app_class=APP_CLASSES[cls_idx], snr_db=HIGH_SNR_DB
            )
            before = [cells[name].current_matrix.counts for name in candidates]
            t0 = clock()
            result = handle_arrival(request, candidate_cells=candidates)
            latencies.append(clock() - t0)
            # The cell the fleet places on, or would have: the first
            # candidate with the largest margin.
            best = max(range(len(candidates)), key=lambda i: result.margins[candidates[i]])
            cell = candidates[best]
            verdict = 1 if result.admitted else -1
            if result.admitted:
                if result.cell != cell:
                    failed += 1
                flow = result.decision.flow
                if load[cell] >= limits[cell]:
                    no_room += 1
                    handle_departure(flow)
                else:
                    load[cell] += 1
                    active.append((minute + hold, flow, cell))
            verdicts.append(verdict)
            placements.append((cell, before[best], cls_idx, verdict))
    end = clock()
    timed = end - start
    bounds.append((end, len(latencies)))
    segments = [
        (t1 - t0, latencies[n0:n1]) for (t0, n0), (t1, n1) in zip(bounds, bounds[1:])
    ]

    # Output check: the model never changes while serving, so replaying the
    # recorded events through classify_batch on each placement cell must
    # reproduce every verdict.
    for name, exbox in cells.items():
        rows = [p for p in placements if p[0] == name]
        if not rows:
            continue
        level = exbox.binner.level_index(HIGH_SNR_DB)
        X = np.vstack([
            encode_event(FlowEvent(matrix_before=before, app_class_index=cls_idx, snr_level=level))
            for _, before, cls_idx, _ in rows
        ])
        replayed = exbox.admittance.classify_batch(X)
        failed += int(sum(1 for p, r in zip(rows, replayed) if p[3] != int(r)))

    return PassResult(
        arrivals=len(verdicts),
        timed_s=timed,
        segments=segments,
        verdicts=verdicts,
        failed=failed,
        work={
            "admitted": sum(1 for v in verdicts if v == 1),
            "no_room": no_room,
            "departures": departures,
            "placed": tuple(sorted(
                (name, sum(1 for p in placements if p[0] == name and p[3] == 1))
                for name in cells
            )),
        },
        tracer=tracer,
        score_input=placements,
    )


def score(passes: List[PassResult], pristine: Pristine) -> Dict[str, float]:
    """Grade verdicts against the noiseless label of the placement cell's
    matrix plus the flow (a full cell is inadmissible)."""
    testbeds = pristine[1]
    cache: Dict[Tuple[str, Tuple[int, ...], int], int] = {}

    def noiseless(cell: str, before: Tuple[int, ...], cls_idx: int) -> int:
        key = (cell, before, cls_idx)
        if key not in cache:
            testbed = testbeds[cell]
            if sum(before) + 1 > testbed.max_clients:
                cache[key] = -1
            else:
                snr = testbed.binner.representative(0)
                specs = [(APP_CLASSES[i], snr) for i, n in enumerate(before) for _ in range(n)]
                specs.append((APP_CLASSES[cls_idx], snr))
                cache[key] = testbed.run_flows(specs).label
        return cache[key]

    pairs = [
        (verdict, noiseless(cell, before, cls_idx))
        for result in passes
        for cell, before, cls_idx, verdict in result.score_input
    ]
    precision, recall = binary_scores(pairs)
    return {"precision": precision, "recall": recall}
