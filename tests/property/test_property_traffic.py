"""Property-based tests for the traffic and wireless substrates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.closedloop import run_closed_loop
from repro.experiments.datasets import build_testbed_dataset
from repro.experiments.harness import ExBoxScheme
from repro.testbed.lte_testbed import LTETestbed
from repro.testbed.wifi_testbed import WiFiTestbed
from repro.traffic.arrival import random_matrix_sequence
from repro.traffic.livelab import AppSession, LiveLabSynthesizer
from repro.traffic.packets import Packet, PacketTrace
from repro.wireless import fluid
from repro.wireless.fluid import FluidLTECell, FluidWiFiCell, OfferedFlow, _waterfill
from repro.wireless.phy import lte_cqi_for_snr, wifi_rate_for_snr

demands = st.lists(st.floats(1e3, 1e8), min_size=1, max_size=12)
snrs = st.floats(-10.0, 60.0)


def bisection_waterfill(demands, costs, budget):
    """The water-fill before the closed form: 60 bisection steps on the
    level. Kept only as the oracle the closed form is checked against."""
    if budget <= 0:
        return [0.0 for _ in demands]
    total_cost = sum(d * c for d, c in zip(demands, costs))
    if total_cost <= budget:
        return list(demands)
    lo, hi = 0.0, max(demands)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        used = sum(min(d, mid) * c for d, c in zip(demands, costs))
        if used > budget:
            hi = mid
        else:
            lo = mid
    level = 0.5 * (lo + hi)
    return [min(d, level) for d in demands]


# Flows with demands drawn from a small pool, so ties are common; costs
# either one unit per bit/s (the aggregate cap, LTE PRB shares) or one
# per flow (WiFi airtime: 1 / effective PHY rate, 1-100 Mb/s).
tied_demands = st.lists(st.floats(1e3, 1e8), min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=12)
)
unit_costs = st.just(None)
rate_costs = st.lists(st.floats(1e6, 1e8), min_size=12, max_size=12)
any_demands = st.one_of(demands, tied_demands)
any_costs = st.one_of(unit_costs, rate_costs)


def _costs_for(ds, rates):
    if rates is None:
        return [1.0] * len(ds)
    return [1.0 / r for r in rates[: len(ds)]]


def _assert_close(actual, expected, rel=1e-12):
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert a == pytest.approx(e, rel=rel, abs=0.0)


class TestWaterfillProperties:
    @given(demands, st.floats(0.01, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_never_exceeds_demand_or_budget(self, ds, budget):
        costs = [1.0 / 30e6] * len(ds)
        alloc = _waterfill(ds, costs, budget)
        for x, d in zip(alloc, ds):
            assert 0.0 <= x <= d * (1 + 1e-9)
        used = sum(x * c for x, c in zip(alloc, costs))
        assert used <= budget * (1 + 1e-6)

    @given(demands)
    @settings(max_examples=60, deadline=None)
    def test_big_budget_satisfies_everyone(self, ds):
        costs = [1.0 / 30e6] * len(ds)
        alloc = _waterfill(ds, costs, budget=1e9)
        assert alloc == ds

    @given(demands, st.floats(0.01, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_throughput_fairness(self, ds, budget):
        # Squeezed flows all sit at the common water level.
        costs = [1.0] * len(ds)
        alloc = _waterfill(ds, costs, budget)
        squeezed = [x for x, d in zip(alloc, ds) if x < d * (1 - 1e-6)]
        if len(squeezed) >= 2:
            assert max(squeezed) - min(squeezed) < 1e-3 * max(squeezed)


class TestClosedFormWaterfill:
    """The closed-form level against the bisection it replaced."""

    @given(any_demands, any_costs, st.floats(0.01, 1.2))
    @settings(max_examples=300, deadline=None)
    def test_matches_bisection(self, ds, rates, fraction):
        costs = _costs_for(ds, rates)
        budget = fraction * sum(d * c for d, c in zip(ds, costs))
        _assert_close(_waterfill(ds, costs, budget), bisection_waterfill(ds, costs, budget))

    @given(any_demands, any_costs, st.floats(0.01, 0.999))
    @settings(max_examples=200, deadline=None)
    def test_binding_budget_spent_exactly(self, ds, rates, fraction):
        costs = _costs_for(ds, rates)
        budget = fraction * sum(d * c for d, c in zip(ds, costs))
        alloc = _waterfill(ds, costs, budget)
        used = sum(x * c for x, c in zip(alloc, costs))
        assert used == pytest.approx(budget, rel=1e-12, abs=0.0)

    @given(st.floats(1e3, 1e8), st.floats(1e6, 1e8), st.floats(0.01, 0.999))
    @settings(max_examples=60, deadline=None)
    def test_single_flow(self, demand, rate, fraction):
        cost = 1.0 / rate
        budget = fraction * demand * cost
        alloc = _waterfill([demand], [cost], budget)
        assert alloc[0] == pytest.approx(budget / cost, rel=1e-12, abs=0.0)
        _assert_close(alloc, bisection_waterfill([demand], [cost], budget))

    @given(any_demands, any_costs, st.data())
    @settings(max_examples=200, deadline=None)
    def test_demand_equal_to_level(self, ds, rates, data):
        # A budget that puts the level exactly on one flow's demand: that
        # flow, and every smaller one, is served in full.
        costs = _costs_for(ds, rates)
        level = data.draw(st.sampled_from(ds))
        budget = sum(min(d, level) * c for d, c in zip(ds, costs))
        alloc = _waterfill(ds, costs, budget)
        _assert_close(alloc, [min(d, level) for d in ds])
        _assert_close(alloc, bisection_waterfill(ds, costs, budget))

    @given(any_demands, any_costs, st.floats(0.01, 1.2), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_permuting_inputs_permutes_output(self, ds, rates, fraction, rnd):
        costs = _costs_for(ds, rates)
        budget = fraction * sum(d * c for d, c in zip(ds, costs))
        order = list(range(len(ds)))
        rnd.shuffle(order)
        alloc = _waterfill(ds, costs, budget)
        permuted = _waterfill([ds[i] for i in order], [costs[i] for i in order], budget)
        assert permuted == [alloc[i] for i in order]


def _recorded_runs(testbed):
    """Wrap ``testbed.run_flows`` so every measured ``MatrixRun`` is
    appended to the returned list."""
    runs = []
    measure = testbed.run_flows

    def recording(*args, **kwargs):
        run = measure(*args, **kwargs)
        runs.append(run)
        return run

    testbed.run_flows = recording
    return runs


def _bootstrap_runs(testbed):
    # The closed loop's seeded bootstrap: 160 random matrices from seed 18.
    runs = _recorded_runs(testbed)
    rng = np.random.default_rng(18)
    matrices = random_matrix_sequence(
        160, max_per_class=testbed.max_clients, rng=rng, max_total=testbed.max_clients
    )
    build_testbed_dataset(testbed, matrices, rng)
    return runs


def _closed_loop_runs(testbed):
    runs = _recorded_runs(testbed)
    run_closed_loop(
        ExBoxScheme(batch_size=20), testbed, seed=17, duration_min=60, arrivals_per_min=4.0
    )
    return runs


class TestLabelParity:
    """The closed-form water-fill labels the seeded ground truth exactly
    as the bisection did.

    On these testbeds a binding water-fill also means the offered load
    exceeds capacity, which pins every queue at the bufferbloat cap and
    fails the matrix whatever the level; so the per-flow QoE is compared
    too, which does move with the level.
    """

    @pytest.mark.parametrize(
        "measure",
        [
            pytest.param(lambda: _bootstrap_runs(WiFiTestbed()), id="wifi-bootstrap"),
            pytest.param(lambda: _bootstrap_runs(LTETestbed()), id="lte-bootstrap"),
            pytest.param(lambda: _closed_loop_runs(WiFiTestbed()), id="closed-loop"),
        ],
    )
    def test_labels_match_bisection(self, measure, monkeypatch):
        closed_form = measure()
        oracle_calls = []

        def oracle(demands, costs, budget):
            oracle_calls.append(len(demands))
            return bisection_waterfill(demands, costs, budget)

        monkeypatch.setattr(fluid, "_waterfill", oracle)
        bisection = measure()
        assert oracle_calls
        assert len(closed_form) >= 150
        assert [run.label for run in closed_form] == [run.label for run in bisection]
        for ours, theirs in zip(closed_form, bisection):
            _assert_close([r.qoe for r in ours.records], [r.qoe for r in theirs.records],
                          rel=1e-9)


class TestFluidCellProperties:
    @given(st.lists(st.tuples(st.floats(1e5, 3e7), snrs), min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_wifi_qos_always_valid(self, specs):
        cell = FluidWiFiCell(capacity_cap_bps=20e6)
        flows = [OfferedFlow(i, "web", d, s) for i, (d, s) in enumerate(specs)]
        for qos in cell.allocate(flows).values():
            assert qos.throughput_bps >= 0
            assert qos.delay_s > 0
            assert 0.0 <= qos.loss_rate <= 1.0

    @given(st.lists(st.tuples(st.floats(1e5, 3e7), snrs), min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_lte_qos_always_valid(self, specs):
        cell = FluidLTECell()
        flows = [OfferedFlow(i, "web", d, s) for i, (d, s) in enumerate(specs)]
        for qos in cell.allocate(flows).values():
            assert qos.throughput_bps >= 0
            assert qos.delay_s > 0
            assert 0.0 <= qos.loss_rate <= 1.0

    @given(snrs)
    @settings(max_examples=60, deadline=None)
    def test_phy_lookups_total(self, snr):
        assert wifi_rate_for_snr(snr) > 0
        assert 1 <= lte_cqi_for_snr(snr) <= 15


class TestPacketTraceProperties:
    @given(
        st.lists(
            st.tuples(st.floats(0.0, 100.0), st.integers(1, 1500)),
            min_size=0,
            max_size=50,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_trace_sorted_and_conserves_bytes(self, raw):
        trace = PacketTrace(Packet(t, s) for t, s in raw)
        times = [p.timestamp for p in trace]
        assert times == sorted(times)
        assert trace.total_bytes == sum(s for _, s in raw)

    @given(
        st.lists(
            st.tuples(st.floats(0.0, 50.0), st.integers(1, 1500)),
            min_size=1,
            max_size=30,
        ),
        st.floats(1.0, 20.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_shift_invariants(self, raw, offset):
        trace = PacketTrace(Packet(t, s) for t, s in raw)
        shifted = trace.shifted(offset)
        assert shifted.total_bytes == trace.total_bytes
        assert abs(shifted.duration_s - trace.duration_s) < 1e-9 * (1 + offset)
        merged = PacketTrace.merge([trace, shifted])
        assert len(merged) == 2 * len(trace)


class TestLiveLabProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_mined_counts_never_negative_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        synthesizer = LiveLabSynthesizer(n_users=8, days=1.0)
        matrices = synthesizer.matrices(rng, max_total_flows=10)
        for matrix in matrices:
            assert all(v >= 0 for v in matrix)
            assert 0 < sum(matrix) <= 10

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_mining_matches_bruteforce_concurrency(self, seed):
        # Cross-check the sweep-line miner against brute-force sampling
        # of the session intervals.
        rng = np.random.default_rng(seed)
        sessions = LiveLabSynthesizer(n_users=4, days=0.5).generate_sessions(rng)
        if not sessions:
            return
        matrices = LiveLabSynthesizer.mine_matrices(sessions)
        peak_mined = max(sum(m) for m in matrices)
        # Brute force: concurrency at every session start.
        peak_brute = 0
        for s in sessions:
            t = s.start_s + 1e-9
            active = sum(1 for other in sessions if other.start_s <= t < other.end_s)
            peak_brute = max(peak_brute, active)
        assert peak_mined == peak_brute
