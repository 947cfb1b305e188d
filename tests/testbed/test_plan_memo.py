"""The testbed's memoised noise-free plan against its reference.

``EmulatedTestbed.run_flows`` keeps each matrix's noise-free plan
(allocation, shaping, SNR levels) per instance and draws a matrix's
noise in one ``rng.normal(..., size=n)`` call. Each plan also keeps a
per-flow bracket on the noise factor, so a flow is scored with its app
model only when its draw falls inside the bracket, and a run builds its
records only when they are read. It must return the same ``MatrixRun``
and leave the generator in the same state as the straightforward
per-flow loop kept here as ``_oracle_measure_flows``: one scalar noise
draw per flow, every flow scored, everything rebuilt on every call.
"""

import copy
import pickle
import struct
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.apps.base import app_model_for_class
from repro.experiments import datasets
from repro.experiments.closedloop import run_closed_loop
from repro.experiments.datasets import build_simulation_dataset, build_testbed_dataset
from repro.experiments.harness import ExBoxScheme
from repro.netem.shaping import Shaper
from repro.qoe.thresholds import threshold_for_class
from repro.testbed import base
from repro.testbed.controller import FlowRecord, MatrixRun
from repro.testbed.lte_testbed import LTETestbed
from repro.testbed.wifi_testbed import WiFiTestbed
from repro.traffic.arrival import random_matrix_sequence
from repro.traffic.flows import APP_CLASSES, CONFERENCING, DEFAULT_PROFILES, STREAMING, WEB
from repro.wireless import fluid
from repro.wireless.channel import SnrBinner
from repro.wireless.fluid import FluidWiFiCell, OfferedFlow
from repro.wireless.qos import FlowQoS


def _oracle_measure_flows(
    flow_specs: Sequence[Tuple[str, float]],
    allocate,
    binner: SnrBinner,
    rng: Optional[np.random.Generator] = None,
    qos_noise: float = 0.0,
    shaper: Optional[Shaper] = None,
    background_specs: Sequence[Tuple[str, float]] = (),
) -> MatrixRun:
    """Per-flow reference: offer, allocate, shape, then one scalar noise
    draw, app model and threshold per flow."""

    def offered(specs, start_id=0):
        return [
            OfferedFlow(
                flow_id=start_id + i,
                app_class=app_class,
                demand_bps=DEFAULT_PROFILES[app_class].demand_bps,
                snr_db=snr_db,
                elastic=DEFAULT_PROFILES[app_class].elastic,
            )
            for i, (app_class, snr_db) in enumerate(specs)
        ]

    flows = offered(flow_specs)
    background = offered(background_specs, start_id=len(flows))
    allocation = allocate(flows, background)
    noise_rng = rng if qos_noise > 0 else None
    records: List[FlowRecord] = []
    for flow in flows + background:
        qos = allocation[flow.flow_id]
        if shaper is not None:
            qos = shaper.apply_to_qos(qos)
        if noise_rng is not None:
            factor = max(1.0 + float(noise_rng.normal(0.0, qos_noise)), 0.2)
            qos = FlowQoS(
                throughput_bps=qos.throughput_bps * factor,
                delay_s=max(qos.delay_s / factor, 1e-4),
                loss_rate=qos.loss_rate,
            )
        qoe = app_model_for_class(flow.app_class).measure_qoe(qos)
        records.append(
            FlowRecord(
                flow_id=flow.flow_id,
                app_class=flow.app_class,
                snr_db=flow.snr_db,
                snr_level=binner.level_index(flow.snr_db),
                qos=qos,
                qoe=qoe,
                acceptable=threshold_for_class(flow.app_class).is_acceptable(qoe),
                background=flow.flow_id >= len(flows),
            )
        )
    return MatrixRun(records=tuple(records))


def _oracle_run_flows(testbed, flow_specs, rng=None, background_specs=()):
    """``run_flows`` as it was: the client bound, then the reference loop."""
    if len(flow_specs) > testbed.max_clients:
        raise ValueError("too many flows")
    return _oracle_measure_flows(
        flow_specs, testbed._allocate, testbed.binner, rng, testbed.qos_noise,
        testbed.shaper, background_specs,
    )


def _recorded(testbed, oracle: bool) -> List[MatrixRun]:
    """Route ``testbed.run_flows`` through the memo (or the oracle) and
    record every run it returns."""
    runs: List[MatrixRun] = []
    measure = testbed.run_flows

    def recording(flow_specs, rng=None, background_specs=()):
        if oracle:
            run = _oracle_run_flows(testbed, flow_specs, rng, background_specs)
        else:
            run = measure(flow_specs, rng=rng, background_specs=background_specs)
        runs.append(run)
        return run

    testbed.run_flows = recording
    return runs


@pytest.fixture
def scorings(monkeypatch):
    """App-model scorings by the testbeds, counted per call."""
    calls = []
    for app_class, (model, threshold) in list(base._APP_MODELS.items()):

        class Counting:
            def measure_qoe(self, qos, model=model):
                calls.append(model.app_class)
                return model.measure_qoe(qos)

        monkeypatch.setitem(base._APP_MODELS, app_class, (Counting(), threshold))
    return calls


def _counting_flows(testbed) -> List[int]:
    """Route ``testbed.run_flows`` through a wrapper that records how
    many flows each call measures."""
    flows: List[int] = []
    measure = testbed.run_flows

    def counting(flow_specs, rng=None, background_specs=()):
        flows.append(len(flow_specs) + len(background_specs))
        return measure(flow_specs, rng=rng, background_specs=background_specs)

    testbed.run_flows = counting
    return flows


class TestOracleParity:
    def test_simulation_dataset_with_mixed_snr(self, estimator, monkeypatch):
        # Mixed SNR: the spec draws and the noise draws share one stream.
        def build():
            rng = np.random.default_rng(41)
            matrices = random_matrix_sequence(120, max_per_class=6, rng=rng)
            samples = build_simulation_dataset(
                FluidWiFiCell(), matrices, rng, estimator,
                binner=SnrBinner.two_level(), mixed_snr=True,
            )
            return samples, rng.bit_generator.state

        ours, our_state = build()
        monkeypatch.setattr(datasets, "measure_flows", _oracle_measure_flows)
        theirs, their_state = build()
        assert len(ours) >= 100
        assert [s.run for s in ours] == [s.run for s in theirs]
        assert [s.y for s in ours] == [s.y for s in theirs]
        assert [s.event for s in ours] == [s.event for s in theirs]
        assert our_state == their_state

    @pytest.mark.parametrize("make", [WiFiTestbed, LTETestbed], ids=["wifi", "lte"])
    def test_seeded_bootstrap(self, make):
        # The closed loop's bootstrap: 160 random matrices from seed 18.
        def build(oracle):
            testbed = make()
            runs = _recorded(testbed, oracle)
            rng = np.random.default_rng(18)
            matrices = random_matrix_sequence(
                160, max_per_class=testbed.max_clients, rng=rng,
                max_total=testbed.max_clients,
            )
            samples = build_testbed_dataset(testbed, matrices, rng)
            rows = [(s.event, s.x.tobytes(), s.y) for s in samples]
            return rows, rng.bit_generator.state, runs

        ours, theirs = build(oracle=False), build(oracle=True)
        assert len(ours[0]) >= 150
        assert ours[:2] == theirs[:2]  # samples and RNG state, records unread
        assert ours[2] == theirs[2]

    def test_bootstrap_scores_each_flow_at_most_once(self, scorings):
        # Labels, counts and the designated arrival read the per-flow
        # tuples; no record is built, so no flow is scored twice.
        testbed = WiFiTestbed()
        flows = _counting_flows(testbed)
        rng = np.random.default_rng(18)
        matrices = random_matrix_sequence(
            160, max_per_class=testbed.max_clients, rng=rng,
            max_total=testbed.max_clients,
        )
        samples = build_testbed_dataset(testbed, matrices, rng)
        assert len(samples) >= 150
        assert 0 < len(scorings) < sum(flows)

    def test_seeded_closed_loop(self):
        def episode(oracle):
            testbed = WiFiTestbed()
            runs = _recorded(testbed, oracle)
            scheme = ExBoxScheme(batch_size=20, cv_jobs=1)
            labels = []
            observe = scheme.observe

            def recording(event, truth):
                labels.append(truth)
                observe(event, truth)

            scheme.observe = recording
            result = run_closed_loop(
                scheme, testbed, seed=17, duration_min=60, arrivals_per_min=4.0
            )
            return result, labels, runs

        ours, theirs = episode(oracle=False), episode(oracle=True)
        assert ours[0] == theirs[0]
        assert len(ours[1]) >= 150
        assert ours[1] == theirs[1]
        assert ours[2] == theirs[2]


_SNRS = st.sampled_from([53.0, 30.0, 23.0, 14.0, -6.0])
_SPECS = st.tuples(st.sampled_from(APP_CLASSES), _SNRS)
_SHAPERS = st.builds(
    Shaper,
    rate_bps=st.one_of(st.none(), st.floats(1e6, 3e7)),
    delay_s=st.floats(0.0, 0.3),
    loss_rate=st.floats(0.0, 0.2),
)
_CHANGES = st.one_of(
    st.none(),
    st.tuples(st.just("set_shaper"), _SHAPERS),
    st.tuples(st.just("assign_shaper"), _SHAPERS),
    st.tuples(st.just("clear_shaper")),
    st.tuples(st.just("base_delay"), st.sampled_from([0.02, 0.035, 0.05])),
    st.tuples(st.just("two_level"), st.booleans()),
)
#: One step: an optional change of the testbed's state, then a
#: measurement of one of a few matrices (so that matrices repeat).
_STEPS = st.tuples(_CHANGES, st.integers(0, 2), st.integers(0, 1), st.booleans())


class TestMemoProperty:
    @given(
        make=st.sampled_from([WiFiTestbed, LTETestbed]),
        two_level=st.booleans(),
        qos_noise=st.sampled_from([0.0, 0.03, 0.5]),
        pool=st.lists(st.lists(_SPECS, min_size=1, max_size=8), min_size=3, max_size=3),
        backgrounds=st.lists(st.lists(_SPECS, max_size=2), min_size=2, max_size=2),
        steps=st.lists(_STEPS, min_size=1, max_size=20),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_memo_matches_fresh_measurement(
        self, make, two_level, qos_noise, pool, backgrounds, steps, seed
    ):
        binner = SnrBinner.two_level() if two_level else SnrBinner.single_level()
        testbed = make(binner=binner, qos_noise=qos_noise)
        shaper = Shaper()
        base_delay = testbed.base_delay_s
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for change, spec_idx, bg_idx, with_rng in steps:
            if change is None:
                pass
            elif change[0] == "set_shaper":
                shaper = change[1]
                testbed.set_shaper(shaper)
            elif change[0] == "assign_shaper":
                shaper = change[1]
                testbed.shaper = shaper
            elif change[0] == "clear_shaper":
                shaper = Shaper()
                testbed.clear_shaper()
            elif change[0] == "base_delay":
                base_delay = change[1]
                testbed.base_delay_s = base_delay
            else:
                binner = SnrBinner.two_level() if change[1] else SnrBinner.single_level()
                testbed.binner = binner
            specs, background = pool[spec_idx], backgrounds[bg_idx]
            # A freshly built testbed in the same state, measured without
            # any memo.
            fresh = make(binner=binner, qos_noise=qos_noise, shaper=shaper,
                         base_delay_s=base_delay)
            got = testbed.run_flows(
                specs, rng=ours if with_rng else None, background_specs=background
            )
            want = _oracle_run_flows(fresh, specs, theirs if with_rng else None, background)
            assert got == want
            assert ours.bit_generator.state == theirs.bit_generator.state


class TestDegenerate:
    @pytest.mark.parametrize(
        "specs, qos_noise, with_rng",
        [([], 0.03, True), ([(WEB, 53.0)] * 3, 0.0, True), ([(WEB, 53.0)] * 3, 0.03, False)],
        ids=["empty", "zero-noise", "no-rng"],
    )
    def test_consumes_no_rng_state(self, specs, qos_noise, with_rng):
        testbed = WiFiTestbed(qos_noise=qos_noise)
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        for _ in range(2):  # once to plan, once from the memo
            run = testbed.run_flows(specs, rng=rng if with_rng else None)
            assert len(run.records) == len(specs)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize(
        "make, param, value",
        [(WiFiTestbed, "capacity_cap_bps", 8.0e6), (WiFiTestbed, "base_delay_s", 0.08),
         (LTETestbed, "bandwidth_hz", 3.0e6), (LTETestbed, "base_delay_s", 0.08),
         (WiFiTestbed, "binner", SnrBinner.two_level())],
        ids=["wifi-cap", "wifi-delay", "lte-bandwidth", "lte-delay", "binner"],
    )
    def test_plan_input_change_replans(self, make, param, value):
        specs = [(STREAMING, 30.0)] * 3 + [(WEB, 53.0)]
        testbed = make(qos_noise=0.0)
        before = testbed.run_flows(specs)
        setattr(testbed, param, value)
        after = testbed.run_flows(specs)
        assert after != before
        assert after == make(qos_noise=0.0, **{param: value}).run_flows(specs)

    def test_overfilled_memo_returns_equal_runs(self, monkeypatch):
        monkeypatch.setattr(base, "_PLAN_MEMO_CAP", 3)
        testbed, reference = WiFiTestbed(), WiFiTestbed()
        matrices = [[(WEB, 53.0)] * k + [(STREAMING, 53.0)] for k in range(6)]
        ours, theirs = np.random.default_rng(8), np.random.default_rng(8)
        for specs in matrices * 3 + matrices[::-1]:
            assert testbed.run_flows(specs, rng=ours) == _oracle_run_flows(
                reference, specs, theirs
            )
            assert len(testbed._plans) <= 3
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_memo_is_per_instance(self, monkeypatch):
        # A patched water-fill is reached by a new testbed (as
        # TestLabelParity requires), while a testbed that already
        # planned the matrix answers from its own memo.
        specs = [(STREAMING, 53.0)] * 4 + [(CONFERENCING, 14.0)] * 2
        planned = WiFiTestbed(qos_noise=0.0)
        first = planned.run_flows(specs)
        calls = []
        closed_form = fluid._waterfill

        def counting(demands, costs, budget):
            calls.append(len(demands))
            return closed_form(demands, costs, budget)

        monkeypatch.setattr(fluid, "_waterfill", counting)
        assert planned.run_flows(specs) == first
        assert calls == []
        assert WiFiTestbed(qos_noise=0.0).run_flows(specs) == first
        assert calls


class TestWorkCount:
    def test_seeded_closed_loop_scorings(self, scorings):
        # The seeded episode, bootstrap included: every flow measured
        # used to be scored (7874 of 7874); the brackets leave 3461.
        testbed = WiFiTestbed()
        flows = _counting_flows(testbed)
        result = run_closed_loop(
            ExBoxScheme(batch_size=20, cv_jobs=1), testbed, seed=17,
            duration_min=250, arrivals_per_min=4.0,
        )
        assert (result.admitted, result.rejected) == (244, 728)
        assert sum(flows) == 7874
        assert len(scorings) == 3461


class TestLazyRecords:
    def test_records_read_after_brackets_tighten(self, scorings):
        # Runs of two repeating matrices, none read until the end: every
        # later call tightens the brackets of the same two plans.
        matrices = [
            [(STREAMING, 53.0)] * 3 + [(CONFERENCING, 23.0)] * 2 + [(WEB, 14.0)],
            [(WEB, 53.0)] * 4 + [(STREAMING, 30.0)] * 2,
        ] * 60
        testbed, reference = WiFiTestbed(qos_noise=0.3), WiFiTestbed(qos_noise=0.3)
        ours, theirs = np.random.default_rng(12), np.random.default_rng(12)
        runs = [testbed.run_flows(specs, rng=ours) for specs in matrices]
        scored = len(scorings)
        assert all(run._records is None for run in runs)
        want = [_oracle_run_flows(reference, specs, theirs) for specs in matrices]
        assert runs == want
        assert ours.bit_generator.state == theirs.bit_generator.state
        # Some flows flip between runs, and the brackets decided most
        # flows unscored.
        flips = {tuple(run.acceptable) for run in runs}
        assert len(flips) > 4
        assert scored < 0.5 * sum(len(specs) for specs in matrices)

    def test_matrix_run_equality(self):
        specs = [(STREAMING, 30.0)] * 3 + [(CONFERENCING, 14.0)]
        testbed = WiFiTestbed(qos_noise=0.3)
        background = [(WEB, 53.0)]

        def lazy(seed):
            return testbed.run_flows(
                specs, rng=np.random.default_rng(seed), background_specs=background
            )

        eager = _oracle_run_flows(
            WiFiTestbed(qos_noise=0.3), specs, np.random.default_rng(4), background
        )
        assert lazy(4) == eager and eager == lazy(4)
        assert hash(lazy(4)) == hash(eager)
        assert repr(lazy(4)) == repr(eager)
        run = lazy(4)
        assert (run.acceptable, run.app_classes, run.snr_levels, run.background) == (
            eager.acceptable, eager.app_classes, eager.snr_levels, eager.background
        )
        assert run.background == (False,) * 4 + (True,)
        assert (run.label, run.counts(1)) == (eager.label, eager.counts(1))
        assert pickle.loads(pickle.dumps(lazy(4))) == eager
        assert copy.deepcopy(lazy(4)) == eager
        assert lazy(5) != eager
        assert lazy(4) != eager.records


def _noisy(app_class: str, throughput: float, delay: float, loss: float, factor: float):
    """The reference's noisy QoS for one flow, its QoE and its verdict."""
    qos = FlowQoS(
        throughput_bps=throughput * factor,
        delay_s=max(delay / factor, 1e-4),
        loss_rate=loss,
    )
    qoe = app_model_for_class(app_class).measure_qoe(qos)
    return qoe, threshold_for_class(app_class).is_acceptable(qoe)


class TestBracketInvariant:
    """A draw at or above a factor scored acceptable is acceptable, and
    one at or below a factor scored unacceptable is not."""

    @given(
        app_class=st.sampled_from(APP_CLASSES),
        throughput=st.one_of(
            st.just(0.0), st.floats(1.0, 2e5), st.floats(2e5, 1e8),
        ),
        delay=st.one_of(st.floats(1e-7, 5e-4), st.floats(5e-4, 3.0)),
        loss=st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.47, 0.48)),
        f1=st.floats(0.2, 6.0),
        f2=st.floats(0.2, 6.0),
    )
    # Each model's clamps: the 1e-4 delay floor, the 30 s caps, the
    # streaming goodput floor, the conferencing rate-ratio floor and
    # PSNR ceiling, and zero throughput.
    @example(app_class=WEB, throughput=2e7, delay=2e-4, loss=0.0, f1=1.0, f2=4.0)
    @example(app_class=WEB, throughput=2e5, delay=0.5, loss=0.3, f1=0.2, f2=0.21)
    @example(app_class=STREAMING, throughput=3e7, delay=0.03, loss=0.6, f1=0.5, f2=2.0)
    @example(app_class=STREAMING, throughput=1e5, delay=1e-5, loss=0.0, f1=0.2, f2=5.0)
    @example(app_class=CONFERENCING, throughput=1e3, delay=0.03, loss=0.0, f1=0.2, f2=1.0)
    @example(app_class=CONFERENCING, throughput=5e6, delay=0.01, loss=0.0, f1=1.0, f2=3.0)
    @example(app_class=CONFERENCING, throughput=2e6, delay=4e-4, loss=0.1, f1=0.9, f2=1.1)
    @example(app_class=CONFERENCING, throughput=0.0, delay=0.2, loss=0.0, f1=0.2, f2=6.0)
    @settings(max_examples=400, deadline=None)
    def test_acceptability_is_monotone_in_the_noise_factor(
        self, app_class, throughput, delay, loss, f1, f2
    ):
        f1, f2 = sorted((f1, f2))
        assume(f1 < f2)
        qoe1, ok1 = _noisy(app_class, throughput, delay, loss, f1)
        qoe2, ok2 = _noisy(app_class, throughput, delay, loss, f2)
        if app_model_for_class(app_class).higher_is_better:
            assert qoe2 >= qoe1
        else:
            assert qoe2 <= qoe1
        assert ok2 or not ok1

    def test_dense_grid_around_each_cutoff(self):
        # Real plans near capacity, shaped and unshaped, on both cells.
        cases = []
        rng = np.random.default_rng(30)
        for make, shaper in [
            (WiFiTestbed, None), (LTETestbed, None),
            (WiFiTestbed, Shaper(rate_bps=8e6, delay_s=0.05, loss_rate=0.02)),
        ]:
            for matrix in random_matrix_sequence(12, max_per_class=8, rng=rng, max_total=8):
                specs = [
                    (APP_CLASSES[cls_idx], [53.0, 23.0, 14.0][k % 3])
                    for cls_idx, count in enumerate(matrix)
                    for k in range(count)
                ]
                if specs:
                    cases.append((make, shaper, specs))
        with_cutoff = 0
        for make, shaper, specs in cases:
            testbed = make(shaper=shaper)
            clean = _oracle_run_flows(make(shaper=shaper, qos_noise=0.0), specs)
            grids = []
            for record in clean.records:
                q = record.qos
                cutoff = _cutoff(record.app_class, q.throughput_bps, q.delay_s, q.loss_rate)
                with_cutoff += cutoff is not None
                grids.append(_grid(cutoff, rng))
            for k in range(max(len(grid) for grid in grids)):
                draws = [grid[k % len(grid)] - 1.0 for grid in grids]
                run = testbed.run_flows(specs, rng=_FixedDraws(draws))
                want = tuple(
                    _noisy(
                        r.app_class, r.qos.throughput_bps, r.qos.delay_s,
                        r.qos.loss_rate, max(1.0 + draw, 0.2),
                    )[1]
                    for r, draw in zip(clean.records, draws)
                )
                assert run.acceptable == want
        assert with_cutoff >= 100


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _cutoff(app_class, throughput, delay, loss) -> Optional[float]:
    """The smallest noise factor in [0.2, 50] at which the flow is
    acceptable, by bisection over the ordered doubles; None where the
    verdict does not change in that range."""
    lo, hi = _bits(0.2), _bits(50.0)
    if _noisy(app_class, throughput, delay, loss, 0.2)[1]:
        return None
    if not _noisy(app_class, throughput, delay, loss, 50.0)[1]:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _noisy(app_class, throughput, delay, loss, _float(mid))[1]:
            hi = mid
        else:
            lo = mid
    return _float(hi)


def _grid(cutoff: Optional[float], rng: np.random.Generator) -> List[float]:
    """Noise factors at and around ``cutoff`` (adjacent doubles, then
    relative steps out to 10%), shuffled; random factors without one."""
    if cutoff is None:
        return list(rng.uniform(0.2, 3.0, size=8))
    near = [cutoff]
    down = up = cutoff
    for _ in range(4):
        down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
        near += [float(down), float(up)]
    for step in (1e-12, 1e-9, 1e-6, 1e-3, 1e-1):
        near += [cutoff * (1.0 - step), cutoff * (1.0 + step)]
    grid = [f for f in near if f >= 0.2]
    return [grid[i] for i in rng.permutation(len(grid))]


class _FixedDraws:
    """A stand-in generator whose ``normal`` returns the given draws."""

    def __init__(self, draws: List[float]) -> None:
        self.draws = draws

    def normal(self, loc, scale, size):
        assert size == len(self.draws)
        return np.array(self.draws)
