"""Tests for the multi-cell ExBox fleet (Sections 4.1/4.4)."""

import itertools

import numpy as np
import pytest

from repro.core.excr import encode_event
from repro.core.fleet import ExBoxFleet
from repro.traffic.arrival import FlowEvent
from repro.traffic.flows import APP_CLASSES, FlowRequest, STREAMING, WEB


def _train_cell(exbox, max_total, seed):
    rng = np.random.default_rng(seed)
    clf = exbox.admittance
    while not clf.is_online:
        total = int(rng.integers(0, 2 * max_total + 1))
        counts = rng.multinomial(total, [1 / 3] * 3).astype(float)
        x = np.append(counts, float(rng.integers(0, 3)))
        clf.observe_bootstrap(x, 1 if counts.sum() <= max_total else -1)


def _two_cell_fleet(estimator, guard_margin=0.0, load=(0, 0, 0)):
    """Cells ap-1/ap-2 trained on 'total <= 4'. Each is first loaded with
    ``load`` flows per class while bootstrapping (which admits all), so
    the load does not depend on the guard."""
    fleet = ExBoxFleet(qoe_estimator=estimator)
    for name, seed in (("ap-1", 1), ("ap-2", 2)):
        exbox = fleet.add_cell(
            name, batch_size=20, min_bootstrap_samples=150,
            max_bootstrap_samples=200, cv_threshold=0.9,
            guard_margin=guard_margin,
        )
        for cls_idx, count in enumerate(load):
            for _ in range(count):
                exbox.handle_arrival(
                    FlowRequest(client_id=0, app_class=APP_CLASSES[cls_idx])
                )
        _train_cell(exbox, 4, seed)
    return fleet


@pytest.fixture
def fleet(estimator):
    return _two_cell_fleet(estimator)


def _load_with_best_margin(fleet, low, high):
    """First (per-class load, arriving class) whose best margin across
    the fleet's cells lies in ``[low, high)``."""
    for load in itertools.product(range(6), repeat=3):
        for cls_idx in range(len(APP_CLASSES)):
            x = encode_event(
                FlowEvent(matrix_before=load, app_class_index=cls_idx, snr_level=0)
            )
            best = max(fleet.cell(name).admittance.margin(x) for name in fleet.cells)
            if low <= best < high:
                return load, cls_idx
    raise AssertionError(f"no load puts the best margin in [{low}, {high})")


class TestTopology:
    def test_cells_registered(self, fleet):
        assert set(fleet.cells) == {"ap-1", "ap-2"}
        assert set(fleet.online_cells()) == {"ap-1", "ap-2"}

    def test_duplicate_cell_rejected(self, fleet):
        with pytest.raises(ValueError):
            fleet.add_cell("ap-1")

    def test_unknown_cell_raises(self, fleet):
        with pytest.raises(KeyError):
            fleet.cell("nope")

    def test_shared_qoe_estimator(self, estimator):
        # Section 4.4: one IQX training effort serves every cell.
        fleet = ExBoxFleet(qoe_estimator=estimator)
        a = fleet.add_cell("a")
        b = fleet.add_cell("b")
        assert a.qoe_estimator is b.qoe_estimator is estimator


class TestPlacement:
    def test_flow_lands_somewhere_when_empty(self, fleet):
        result = fleet.handle_arrival(FlowRequest(client_id=1, app_class=WEB))
        assert result.admitted
        assert result.cell in ("ap-1", "ap-2")
        assert fleet.total_active_flows() == 1

    def test_prefers_emptier_cell(self, fleet):
        # Pre-load ap-1 near its boundary.
        for i in range(3):
            fleet.cell("ap-1").handle_arrival(
                FlowRequest(client_id=i, app_class=STREAMING)
            )
        result = fleet.handle_arrival(FlowRequest(client_id=9, app_class=WEB))
        assert result.cell == "ap-2"
        assert result.margins["ap-2"] > result.margins["ap-1"]

    def test_blocks_when_everything_full(self, fleet):
        for name in fleet.cells:
            for i in range(5):
                fleet.cell(name).handle_arrival(
                    FlowRequest(client_id=i, app_class=STREAMING)
                )
        result = fleet.handle_arrival(FlowRequest(client_id=9, app_class=STREAMING))
        assert result.cell is None
        assert not result.admitted

    def test_candidate_restriction(self, fleet):
        result = fleet.handle_arrival(
            FlowRequest(client_id=1, app_class=WEB), candidate_cells=("ap-2",)
        )
        assert result.cell == "ap-2"

    def test_departure_returns_capacity(self, fleet):
        result = fleet.handle_arrival(FlowRequest(client_id=1, app_class=WEB))
        flow = result.decision.flow
        assert fleet.home_of(flow) == result.cell
        fleet.handle_departure(flow)
        assert fleet.total_active_flows() == 0
        assert fleet.home_of(flow) is None

    def test_unplaced_departure_raises(self, fleet):
        from repro.traffic.flows import Flow

        with pytest.raises(KeyError):
            fleet.handle_departure(Flow(app_class=WEB, snr_db=53.0, client_id=1))

    def test_unclassified_request_rejected(self, fleet):
        with pytest.raises(ValueError):
            fleet.handle_arrival(FlowRequest(client_id=1))

    def test_one_kernel_pass_per_candidate(self, fleet, kernel_passes):
        result = fleet.handle_arrival(FlowRequest(client_id=1, app_class=WEB))
        assert result.admitted
        assert kernel_passes == [1] * len(fleet.cells)

    def test_bootstrapping_cell_attracts_flows(self, estimator):
        fleet = ExBoxFleet(qoe_estimator=estimator)
        fleet.add_cell("fresh")  # never bootstrapped: admits everything
        result = fleet.handle_arrival(FlowRequest(client_id=1, app_class=WEB))
        assert result.cell == "fresh"
        assert result.margins["fresh"] == pytest.approx(0.0)

    def test_no_cells_raises(self, estimator):
        with pytest.raises(RuntimeError):
            ExBoxFleet(qoe_estimator=estimator).handle_arrival(
                FlowRequest(client_id=1, app_class=WEB)
            )


class TestGuardedPlacement:
    """Placement takes each cell's own guard-rule verdict, so the fleet
    never overrules a cell on the margin's sign."""

    def test_negative_guard_places_below_zero(self, fleet, estimator):
        load, cls_idx = _load_with_best_margin(fleet, -0.5, 0.0)
        guarded = _two_cell_fleet(estimator, guard_margin=-0.5, load=load)
        result = guarded.handle_arrival(
            FlowRequest(client_id=9, app_class=APP_CLASSES[cls_idx])
        )
        assert result.admitted
        assert result.margins[result.cell] == max(result.margins.values())
        assert -0.5 <= result.margins[result.cell] < 0.0

    def test_positive_guard_blocks_below_guard(self, fleet, estimator):
        load, cls_idx = _load_with_best_margin(fleet, 0.0, 0.5)
        guarded = _two_cell_fleet(estimator, guard_margin=0.5, load=load)
        rejected = []
        for name in guarded.cells:
            policy = guarded.cell(name).policy

            def spy(flow, reject=policy.reject):
                rejected.append(flow)
                return reject(flow)

            policy.reject = spy
        result = guarded.handle_arrival(
            FlowRequest(client_id=9, app_class=APP_CLASSES[cls_idx])
        )
        assert 0.0 <= max(result.margins.values()) < 0.5
        assert result.cell is None
        assert result.decision is None
        assert rejected == []
