"""One driver per figure of the paper's evaluation.

Every ``figN(...)`` function regenerates the data behind the paper's
Figure N (workload, parameter sweep, schemes, metrics) and returns a
result object whose ``render()`` yields the rows/series as text. The
benchmark suite under ``benchmarks/`` calls these drivers; EXPERIMENTS.md
records paper-vs-measured values.

Absolute numbers differ from the paper (our substrate is an emulated
testbed/fluid simulation, not their lab), but the shapes — who wins, by
roughly what factor, where the crossovers fall — are the reproduction
targets; see DESIGN.md's per-experiment index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.admittance import AdmittanceClassifier
from repro.core.baselines import MaxClientAdmission, RateBasedAdmission
from repro.core.qoe_estimator import QoEEstimator
from repro.experiments.datasets import (
    build_simulation_dataset,
    build_testbed_dataset,
)
from repro.experiments.harness import (
    EvaluationSeries,
    ExBoxScheme,
    evaluate_scheme,
    run_comparison,
)
from repro.experiments.latency import (
    measure_admission_quality,
    measure_decision_latency,
    measure_training_latency,
    median_ms,
)
from repro.experiments.textplot import bar_table, heatmap, metric_table, series_table
from repro.netem.shaping import Shaper
from repro.obs.facade import Obs
from repro.qoe.iqx import IQXModel
from repro.qoe.mos import normalized_from_metric
from repro.qoe.thresholds import threshold_for_class
from repro.testbed.base import EmulatedTestbed
from repro.testbed.devices import TrainingDevice
from repro.testbed.lte_testbed import LTETestbed
from repro.testbed.wifi_testbed import WiFiTestbed
from repro.traffic.arrival import random_matrix_sequence
from repro.traffic.flows import APP_CLASSES, CONFERENCING, STREAMING, WEB
from repro.traffic.livelab import LiveLabSynthesizer
from repro.wireless.channel import SnrBinner
from repro.wireless.fluid import FluidLTECell, FluidWiFiCell

__all__ = [
    "ComparisonResult",
    "Fig2Result",
    "Fig3Result",
    "Fig7Result",
    "Fig8Result",
    "Fig9Result",
    "Fig10Result",
    "Fig11Result",
    "Fig12Result",
    "Fig13Result",
    "Fig14Result",
    "LatencyResult",
    "fig2_heatmaps",
    "fig3_snr_impact",
    "fig7_wifi_testbed",
    "fig8_lte_testbed",
    "fig9_per_app_accuracy",
    "fig10_batch_sensitivity",
    "fig11_adaptation",
    "fig12_iqx_fits",
    "fig13_mixed_snr",
    "fig14_populous",
    "latency_benchmarks",
    "trained_estimator",
]

# QoE normalization anchors per class (best, worst metric values) used by
# the Figure 2 heatmaps; thresholds land at normalized 0.5.
_NORM_ANCHORS = {WEB: (0.5, 15.0), STREAMING: (0.5, 20.0), CONFERENCING: (37.0, 15.0)}

_WIFI_CAPACITY_BPS = 20.0e6  # measured max UDP throughput, WiFi testbed
_LTE_CAPACITY_BPS = 20.8e6  # measured max UDP throughput, 5 MHz LTE cell


def trained_estimator(seed: int = 11, runs_per_point: int = 4) -> QoEEstimator:
    """A QoE estimator with IQX models fitted from the training device."""
    estimator = QoEEstimator()
    estimator.train_from_device(
        rng=np.random.default_rng(seed), runs_per_point=runs_per_point
    )
    return estimator


def _default_schemes(
    network: str,
    batch_size: int,
    n_bootstrap_hint: int,
    max_clients: int = 10,
    max_buffer: Optional[int] = None,
) -> list:
    """ExBox + the two baselines, configured per the paper."""
    capacity = _WIFI_CAPACITY_BPS if network == "wifi" else _LTE_CAPACITY_BPS
    exbox = ExBoxScheme(
        AdmittanceClassifier(
            batch_size=batch_size,
            min_bootstrap_samples=min(30, max(5, n_bootstrap_hint - 5)),
            max_bootstrap_samples=n_bootstrap_hint,
            max_buffer=max_buffer,
        )
    )
    return [exbox, RateBasedAdmission(capacity), MaxClientAdmission(max_clients)]


# ----------------------------------------------------------------------
# Figure 2 — QoE heatmaps vs (#conferencing, #streaming)
# ----------------------------------------------------------------------
@dataclass
class Fig2Result:
    conferencing_counts: List[int]
    streaming_counts: List[int]
    streaming_qoe: np.ndarray  # [i_stream, j_conf] normalized median QoE
    conferencing_qoe: np.ndarray
    average_qoe: np.ndarray

    def render(self) -> str:
        parts = []
        for title, grid in (
            ("(a) median streaming QoE", self.streaming_qoe),
            ("(b) median conferencing QoE", self.conferencing_qoe),
            ("(c) average network QoE", self.average_qoe),
        ):
            parts.append(f"Figure 2{title}")
            parts.append(
                heatmap(grid, x_label="#conferencing", y_label="#streaming",
                        vmin=0.0, vmax=1.0)
            )
        return "\n".join(parts)


def fig2_heatmaps(
    max_flows: int = 50,
    step: int = 5,
    seed: int = 2,
) -> Fig2Result:
    """Sweep streaming x conferencing counts on the ns-3-style WiFi cell
    and compute normalized median per-class QoE plus the network average."""
    from repro.apps.base import app_model_for_class
    from repro.traffic.flows import DEFAULT_PROFILES
    from repro.wireless.fluid import OfferedFlow

    rng = np.random.default_rng(seed)
    cell = FluidWiFiCell.ns3_80211n()
    counts = list(range(0, max_flows + 1, step))
    stream_grid = np.full((len(counts), len(counts)), np.nan)
    conf_grid = np.full((len(counts), len(counts)), np.nan)
    avg_grid = np.full((len(counts), len(counts)), np.nan)

    snr = 53.0
    app_models = {
        cls: (app_model_for_class(cls), threshold_for_class(cls))
        for cls in (STREAMING, CONFERENCING)
    }
    for i, n_stream in enumerate(counts):
        for j, n_conf in enumerate(counts):
            if n_stream + n_conf == 0:
                continue
            offered = []
            fid = 0
            for _ in range(n_stream):
                p = DEFAULT_PROFILES[STREAMING]
                offered.append(OfferedFlow(fid, STREAMING, p.demand_bps, snr, p.elastic))
                fid += 1
            for _ in range(n_conf):
                p = DEFAULT_PROFILES[CONFERENCING]
                offered.append(OfferedFlow(fid, CONFERENCING, p.demand_bps, snr, p.elastic))
                fid += 1
            allocation = cell.allocate(offered)
            normalized: Dict[str, List[float]] = {STREAMING: [], CONFERENCING: []}
            for flow in offered:
                app_model, threshold = app_models[flow.app_class]
                qoe = app_model.measure_qoe(allocation[flow.flow_id])
                best, worst = _NORM_ANCHORS[flow.app_class]
                normalized[flow.app_class].append(
                    normalized_from_metric(qoe, threshold, best, worst)
                )
            if normalized[STREAMING]:
                stream_grid[i, j] = float(np.median(normalized[STREAMING]))
            if normalized[CONFERENCING]:
                conf_grid[i, j] = float(np.median(normalized[CONFERENCING]))
            all_values = normalized[STREAMING] + normalized[CONFERENCING]
            avg_grid[i, j] = float(np.mean(all_values))
    del rng  # sweep is deterministic; kept for signature symmetry
    return Fig2Result(
        conferencing_counts=counts,
        streaming_counts=counts,
        streaming_qoe=stream_grid,
        conferencing_qoe=conf_grid,
        average_qoe=avg_grid,
    )


# ----------------------------------------------------------------------
# Figure 3 — SNR impact on video streaming QoE
# ----------------------------------------------------------------------
@dataclass
class Fig3Result:
    placements: List[Tuple[int, int]]  # (#high, #low)
    high_snr_delays: List[List[float]]
    low_snr_delays: List[List[float]]
    threshold_s: float

    def render(self) -> str:
        lines = [
            "Figure 3: video startup delay vs SNR placement "
            f"(threshold {self.threshold_s:.0f} s)"
        ]
        for (nh, nl), high, low in zip(
            self.placements, self.high_snr_delays, self.low_snr_delays
        ):
            fmt = lambda vals: (
                "[" + ", ".join(f"{v:.1f}" for v in vals) + "]" if vals else "-"
            )
            lines.append(f"({nh},{nl})  high-SNR: {fmt(high)}  low-SNR: {fmt(low)}")
        return "\n".join(lines)


def fig3_snr_impact(seed: int = 3, low_snr_db: float = 14.0) -> Fig3Result:
    """4 phones streaming on the WiFi testbed with (#high, #low) placement
    swept from (4,0) to (0,4); records per-phone startup delay."""
    from repro.testbed.controller import ClientController

    rng = np.random.default_rng(seed)
    testbed = WiFiTestbed(n_devices=4)
    controller = ClientController(testbed, rng=rng)
    high_snr_db = 53.0
    placements = [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]
    highs, lows = [], []
    for nh, nl in placements:
        snrs = [high_snr_db] * nh + [low_snr_db] * nl
        run = controller.run_traffic_matrix((0, 4, 0), snr_db_per_flow=snrs)
        delays = [r.qoe for r in run.records]
        highs.append(delays[:nh])
        lows.append(delays[nh:])
    return Fig3Result(
        placements=placements,
        high_snr_delays=highs,
        low_snr_delays=lows,
        threshold_s=threshold_for_class(STREAMING).value,
    )


# ----------------------------------------------------------------------
# Shared builder for the testbed comparisons (Figures 7-11)
# ----------------------------------------------------------------------
def _testbed_matrices(
    scheme: str,
    network: str,
    n_matrices: int,
    rng: np.random.Generator,
) -> List[Tuple[int, int, int]]:
    """Random or LiveLab traffic matrices bounded by the testbed size."""
    max_total = 10 if network == "wifi" else 8
    if scheme == "random":
        return random_matrix_sequence(
            n_matrices, max_per_class=max_total, rng=rng, max_total=max_total
        )
    if scheme == "livelab":
        # A work-hours campus population: enough session pressure that
        # the mined matrices actually exercise the small testbed's
        # capacity (average concurrency ~5 of the 8-10 clients).
        synthesizer = LiveLabSynthesizer(
            n_users=34, days=10.0, sessions_per_user_day=110.0, duration_scale=3.0
        )
        matrices = synthesizer.matrices(rng, max_total_flows=max_total)
        if len(matrices) < n_matrices:
            reps = int(np.ceil(n_matrices / max(len(matrices), 1)))
            matrices = (matrices * reps)[:n_matrices]
        return matrices[:n_matrices]
    raise ValueError(f"unknown traffic scheme {scheme!r}")


def _make_testbed(network: str) -> EmulatedTestbed:
    if network == "wifi":
        return WiFiTestbed()
    if network == "lte":
        return LTETestbed()
    raise ValueError(f"unknown network {network!r}")


@dataclass
class ComparisonResult:
    """One network x traffic-scheme comparison of all three schemes."""

    network: str
    traffic: str
    series: Dict[str, EvaluationSeries]
    n_bootstrap: int

    def render(self) -> str:
        parts = [
            f"{self.network.upper()} testbed, {self.traffic} traffic "
            f"(bootstrap {self.n_bootstrap} samples)"
        ]
        for metric in ("precision", "recall", "accuracy"):
            counts = self.series["ExBox"].sample_counts
            columns = {
                name: getattr(s, metric) for name, s in self.series.items()
            }
            parts.append(f"-- {metric} vs samples fed online --")
            parts.append(series_table(counts, columns))
        return "\n".join(parts)

    def final_metrics(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {
                "precision": s.final_precision,
                "recall": s.final_recall,
                "accuracy": s.final_accuracy,
            }
            for name, s in self.series.items()
        }


def _run_testbed_comparison(
    network: str,
    traffic: str,
    n_online: int,
    n_bootstrap: int,
    batch_size: int,
    seed: int,
    eval_every: int,
) -> ComparisonResult:
    rng = np.random.default_rng(seed)
    testbed = _make_testbed(network)
    matrices = _testbed_matrices(traffic, network, n_online + n_bootstrap, rng)
    samples = build_testbed_dataset(testbed, matrices, rng)
    schemes = _default_schemes(network, batch_size, n_bootstrap)
    series = run_comparison(
        samples, schemes, n_bootstrap=n_bootstrap, eval_every=eval_every
    )
    return ComparisonResult(
        network=network, traffic=traffic, series=series, n_bootstrap=n_bootstrap
    )


# ----------------------------------------------------------------------
# Figure 7 — WiFi testbed, Random + LiveLab
# ----------------------------------------------------------------------
@dataclass
class Fig7Result:
    random: ComparisonResult
    livelab: ComparisonResult

    def render(self) -> str:
        return "Figure 7\n" + self.random.render() + "\n\n" + self.livelab.render()


def fig7_wifi_testbed(
    n_online: int = 240,
    n_bootstrap: int = 50,
    batch_size: int = 20,
    seed: int = 7,
    eval_every: int = 40,
) -> Fig7Result:
    """WiFi testbed comparison (paper: batch 20, bootstrap ~50 samples)."""
    return Fig7Result(
        random=_run_testbed_comparison(
            "wifi", "random", n_online, n_bootstrap, batch_size, seed, eval_every
        ),
        livelab=_run_testbed_comparison(
            "wifi", "livelab", n_online, n_bootstrap, batch_size, seed + 1, eval_every
        ),
    )


# ----------------------------------------------------------------------
# Figure 8 — LTE testbed, Random + LiveLab
# ----------------------------------------------------------------------
@dataclass
class Fig8Result:
    random: ComparisonResult
    livelab: ComparisonResult

    def render(self) -> str:
        return "Figure 8\n" + self.random.render() + "\n\n" + self.livelab.render()


def fig8_lte_testbed(
    n_online: int = 90,
    n_bootstrap: int = 50,
    batch_size: int = 10,
    seed: int = 8,
    eval_every: int = 15,
) -> Fig8Result:
    """LTE testbed comparison (paper: batch 10)."""
    return Fig8Result(
        random=_run_testbed_comparison(
            "lte", "random", n_online, n_bootstrap, batch_size, seed, eval_every
        ),
        livelab=_run_testbed_comparison(
            "lte", "livelab", n_online, n_bootstrap, batch_size, seed + 1, eval_every
        ),
    )


# ----------------------------------------------------------------------
# Figure 9 — per-application accuracy
# ----------------------------------------------------------------------
@dataclass
class Fig9Result:
    wifi: Dict[str, Dict[str, float]]  # scheme -> class -> accuracy
    lte: Dict[str, Dict[str, float]]

    def render(self) -> str:
        parts = ["Figure 9: per-application decision accuracy (Random traffic)"]
        for network, data in (("WiFi", self.wifi), ("LTE", self.lte)):
            parts.append(f"-- {network} --")
            parts.append(metric_table(data))
        return "\n".join(parts)


def fig9_per_app_accuracy(
    n_online: int = 240,
    n_bootstrap: int = 50,
    seed: int = 9,
) -> Fig9Result:
    """Accuracy split by the arriving flow's application class."""
    wifi = _run_testbed_comparison(
        "wifi", "random", n_online, n_bootstrap, 20, seed, eval_every=max(n_online // 4, 1)
    )
    lte = _run_testbed_comparison(
        "lte", "random", n_online, n_bootstrap, 10, seed + 1, eval_every=max(n_online // 4, 1)
    )
    return Fig9Result(
        wifi={n: s.per_class_accuracy() for n, s in wifi.series.items()},
        lte={n: s.per_class_accuracy() for n, s in lte.series.items()},
    )


# ----------------------------------------------------------------------
# Figure 10 — sensitivity to batch size
# ----------------------------------------------------------------------
@dataclass
class Fig10Result:
    wifi: Dict[str, EvaluationSeries]  # "Batch 10" ... plus baselines
    lte: Dict[str, EvaluationSeries]

    def render(self) -> str:
        parts = ["Figure 10: precision sensitivity to batch size"]
        for network, series in (("WiFi", self.wifi), ("LTE", self.lte)):
            any_series = next(iter(series.values()))
            parts.append(f"-- {network}: precision vs samples fed online --")
            parts.append(
                series_table(
                    any_series.sample_counts,
                    {name: s.precision for name, s in series.items()},
                )
            )
        return "\n".join(parts)


def fig10_batch_sensitivity(
    batch_sizes: Sequence[int] = (10, 20, 40),
    n_online: int = 240,
    n_bootstrap: int = 50,
    seed: int = 10,
    eval_every: int = 40,
) -> Fig10Result:
    """Sweep the online-update batch size for ExBox; baselines have no
    online updates, so one flat series each suffices (as the paper notes)."""
    out: Dict[str, Dict[str, EvaluationSeries]] = {}
    for network in ("wifi", "lte"):
        rng = np.random.default_rng(seed if network == "wifi" else seed + 1)
        testbed = _make_testbed(network)
        matrices = _testbed_matrices("random", network, n_online + n_bootstrap, rng)
        samples = build_testbed_dataset(testbed, matrices, rng)
        series: Dict[str, EvaluationSeries] = {}
        for batch in batch_sizes:
            scheme = ExBoxScheme(
                AdmittanceClassifier(
                    batch_size=batch,
                    min_bootstrap_samples=min(30, n_bootstrap - 5),
                    max_bootstrap_samples=n_bootstrap,
                )
            )
            series[f"Batch {batch}"] = evaluate_scheme(
                samples, scheme, n_bootstrap=n_bootstrap, eval_every=eval_every
            )
        capacity = _WIFI_CAPACITY_BPS if network == "wifi" else _LTE_CAPACITY_BPS
        for baseline in (RateBasedAdmission(capacity), MaxClientAdmission(10)):
            series[baseline.name] = evaluate_scheme(
                samples, baseline, n_bootstrap=n_bootstrap, eval_every=eval_every
            )
        out[network] = series
    return Fig10Result(wifi=out["wifi"], lte=out["lte"])


# ----------------------------------------------------------------------
# Figure 11 — adaptation to network changes
# ----------------------------------------------------------------------
@dataclass
class Fig11Result:
    wifi: Dict[str, EvaluationSeries]
    lte: Dict[str, EvaluationSeries]
    throttle_delay_s: float
    throttle_rate_bps: float = 10.0e6

    def render(self) -> str:
        parts = [
            "Figure 11: adaptation after the network is throttled "
            f"(rate capped at {self.throttle_rate_bps / 1e6:.0f} Mbps, "
            f"+{self.throttle_delay_s * 1e3:.0f} ms latency, post-bootstrap)"
        ]
        for network, series in (("WiFi", self.wifi), ("LTE", self.lte)):
            any_series = next(iter(series.values()))
            for metric in ("precision", "accuracy", "recall"):
                parts.append(f"-- {network}: {metric} vs samples fed online --")
                parts.append(
                    series_table(
                        any_series.sample_counts,
                        {name: getattr(s, metric) for name, s in series.items()},
                    )
                )
        return "\n".join(parts)


def fig11_adaptation(
    n_online_wifi: int = 225,
    n_online_lte: int = 120,
    throttle_rate_bps: float = 10.0e6,
    throttle_delay_s: float = 0.02,
    seed: int = 111,
    eval_every: int = 45,
) -> Fig11Result:
    """Bootstrap on the unthrottled network (10% of the data), then test
    and keep learning on a traffic-shaped network.

    The paper throttles with 200 ms of added latency; against our
    (heavier) application calibration that leaves no admissible matrices
    at all, so the throttle here halves the rate and adds a small delay —
    the capacity region shrinks drastically but stays non-empty, which is
    the regime the experiment is about. Metrics are windowed per
    checkpoint so the post-throttle collapse and recovery are visible.
    """
    out: Dict[str, Dict[str, EvaluationSeries]] = {}
    for network, n_online in (("wifi", n_online_wifi), ("lte", n_online_lte)):
        rng = np.random.default_rng(seed if network == "wifi" else seed + 1)
        testbed = _make_testbed(network)
        n_bootstrap = max(int(0.1 * (n_online + 10)), 20)
        matrices = _testbed_matrices(
            "random", network, n_online + n_bootstrap, rng
        )
        clean = build_testbed_dataset(testbed, matrices[:n_bootstrap], rng)
        testbed.set_shaper(
            Shaper(rate_bps=throttle_rate_bps, delay_s=throttle_delay_s)
        )
        throttled = build_testbed_dataset(testbed, matrices[n_bootstrap:], rng)
        samples = clean + throttled
        batch = 20 if network == "wifi" else 10
        schemes = _default_schemes(network, batch, n_bootstrap)
        out[network] = run_comparison(
            samples, schemes, n_bootstrap=n_bootstrap,
            eval_every=eval_every if network == "wifi" else max(eval_every // 2, 1),
            windowed=True,
        )
    return Fig11Result(
        wifi=out["wifi"], lte=out["lte"], throttle_delay_s=throttle_delay_s,
        throttle_rate_bps=throttle_rate_bps,
    )


# ----------------------------------------------------------------------
# Figure 12 — IQX fits
# ----------------------------------------------------------------------
@dataclass
class Fig12Result:
    models: Dict[str, IQXModel]
    sample_counts: Dict[str, int]

    def render(self) -> str:
        lines = ["Figure 12: IQX fits per application (QoE = a + b*exp(-g*QoS))"]
        for cls, model in self.models.items():
            lines.append(
                f"{cls:>13}: alpha={model.alpha:8.3f} beta={model.beta:8.3f} "
                f"gamma={model.gamma:7.3f} RMSE={model.rmse:6.3f} "
                f"({self.sample_counts[cls]} samples)"
            )
        return "\n".join(lines)


def fig12_iqx_fits(seed: int = 12, runs_per_point: int = 10) -> Fig12Result:
    """The paper's training sweep: rate 100 kbps-20 Mbps x latency
    10-250 ms, 10 runs per point, least-squares IQX fit per class."""
    rng = np.random.default_rng(seed)
    device = TrainingDevice()
    estimator = QoEEstimator()
    rates = tuple(np.geomspace(100e3, 20e6, 12))
    delays = tuple(np.linspace(0.010, 0.250, 7))
    data = device.collect_training_data(
        APP_CLASSES, rates, delays, runs_per_point=runs_per_point, rng=rng
    )
    models = {cls: estimator.fit_class(cls, samples) for cls, samples in data.items()}
    return Fig12Result(
        models=models, sample_counts={cls: len(s) for cls, s in data.items()}
    )


# ----------------------------------------------------------------------
# Figure 13 — mixed-SNR simulation
# ----------------------------------------------------------------------
@dataclass
class Fig13Result:
    series: Dict[str, EvaluationSeries]
    n_samples: int

    def render(self) -> str:
        any_series = next(iter(self.series.values()))
        return (
            f"Figure 13: mixed-SNR simulation ({self.n_samples} samples)\n"
            + series_table(
                any_series.sample_counts,
                {name: s.precision for name, s in self.series.items()},
            )
        )


def fig13_mixed_snr(
    n_samples: int = 2400,
    batch_sizes: Sequence[int] = (100, 200, 400),
    bootstrap_fraction: float = 0.1,
    seed: int = 13,
    eval_every: int = 200,
    max_buffer: int = 1200,
) -> Fig13Result:
    """LiveLab traffic on the ns-3-style WiFi cell with each flow placed
    at a random high (53 dB) or low (23 dB) SNR position; 8-dimensional
    ``X_m`` vectors as in Section 6.3."""
    rng = np.random.default_rng(seed)
    estimator = trained_estimator(seed=seed)
    binner = SnrBinner.two_level()
    synthesizer = LiveLabSynthesizer(
        n_users=40, days=14.0, sessions_per_user_day=40.0, duration_scale=8.0
    )
    matrices = synthesizer.matrices(rng, max_total_flows=60)
    if len(matrices) < n_samples:
        reps = int(np.ceil(n_samples / max(len(matrices), 1)))
        matrices = (matrices * reps)[:n_samples]
    matrices = matrices[:n_samples]
    cell = FluidWiFiCell.ns3_80211n()
    samples = build_simulation_dataset(
        cell, matrices, rng, estimator, binner=binner, mixed_snr=True
    )
    n_bootstrap = int(len(samples) * bootstrap_fraction)

    series: Dict[str, EvaluationSeries] = {}
    for batch in batch_sizes:
        scheme = ExBoxScheme(
            AdmittanceClassifier(
                batch_size=batch,
                min_bootstrap_samples=min(50, n_bootstrap - 5),
                max_bootstrap_samples=n_bootstrap,
                max_buffer=max_buffer,
            )
        )
        series[f"Batch {batch}"] = evaluate_scheme(
            samples, scheme, n_bootstrap=n_bootstrap, eval_every=eval_every
        )
    for baseline in (
        RateBasedAdmission(capacity_bps=130e6),  # the ns-3 cell's capacity
        # An association-limit sized for a populous AP (the testbed's 10
        # would reject essentially every >20-flow matrix outright).
        MaxClientAdmission(40),
    ):
        series[baseline.name] = evaluate_scheme(
            samples, baseline, n_bootstrap=n_bootstrap, eval_every=eval_every
        )
    return Fig13Result(series=series, n_samples=len(samples))


# ----------------------------------------------------------------------
# Figure 14 — populous networks
# ----------------------------------------------------------------------
@dataclass
class Fig14Result:
    wifi: Dict[str, EvaluationSeries]
    lte: Dict[str, EvaluationSeries]

    def render(self) -> str:
        parts = ["Figure 14: populous-network simulation"]
        for network, series in (("WiFi", self.wifi), ("LTE", self.lte)):
            any_series = next(iter(series.values()))
            for metric in ("precision", "accuracy", "recall"):
                parts.append(f"-- {network}: {metric} vs samples fed online --")
                parts.append(
                    series_table(
                        any_series.sample_counts,
                        {name: getattr(s, metric) for name, s in series.items()},
                    )
                )
        return "\n".join(parts)


def fig14_populous(
    n_wifi_samples: int = 800,
    n_lte_samples: int = 650,
    min_wifi_flows: int = 20,
    bootstrap_fraction: float = 0.1,
    batch_size: int = 10,
    seed: int = 14,
    eval_every: int = 100,
    max_buffer: int = 1200,
) -> Fig14Result:
    """WiFi: random traffic matrices with >20 simultaneous flows, sets of
    800 samples, 10% bootstrap, batch 10. LTE: LiveLab matrices with no
    flow-count restriction, 650 tuples (Section 6.4)."""
    estimator = trained_estimator(seed=seed)

    # WiFi populous: >20 simultaneous flows on the ns-3 cell, with totals
    # straddling the cell's capacity so both labels are exercised.
    rng = np.random.default_rng(seed)
    wifi_matrices = []
    while len(wifi_matrices) < n_wifi_samples:
        total = int(rng.integers(min_wifi_flows + 1, 41))
        splits = rng.multinomial(total, [1.0 / len(APP_CLASSES)] * len(APP_CLASSES))
        matrix = tuple(int(v) for v in splits)
        if max(matrix) <= 50:
            wifi_matrices.append(matrix)
    wifi_cell = FluidWiFiCell.ns3_80211n()
    wifi_samples = build_simulation_dataset(
        wifi_cell, wifi_matrices, rng, estimator
    )

    # LTE populous: unrestricted LiveLab matrices (no 8-flow cap) on the
    # 10 MHz small cell; a dense-campus session load so the mined
    # concurrency actually exercises the cell.
    rng_lte = np.random.default_rng(seed + 1)
    synthesizer = LiveLabSynthesizer(
        n_users=40, days=10.0, sessions_per_user_day=40.0, duration_scale=3.0
    )
    lte_matrices = synthesizer.matrices(rng_lte)
    if len(lte_matrices) < n_lte_samples:
        reps = int(np.ceil(n_lte_samples / max(len(lte_matrices), 1)))
        lte_matrices = (lte_matrices * reps)[:n_lte_samples]
    lte_matrices = lte_matrices[:n_lte_samples]
    lte_cell = FluidLTECell.small_cell()
    lte_samples = build_simulation_dataset(
        lte_cell, lte_matrices, rng_lte, estimator
    )

    out: Dict[str, Dict[str, EvaluationSeries]] = {}
    for network, samples, capacity in (
        ("wifi", wifi_samples, 130e6),
        ("lte", lte_samples, 41.6e6),
    ):
        n_bootstrap = int(len(samples) * bootstrap_fraction)
        schemes = [
            ExBoxScheme(
                AdmittanceClassifier(
                    batch_size=batch_size,
                    min_bootstrap_samples=min(50, max(n_bootstrap - 5, 6)),
                    max_bootstrap_samples=n_bootstrap,
                    max_buffer=max_buffer,
                )
            ),
            RateBasedAdmission(capacity),
            MaxClientAdmission(50),
        ]
        out[network] = run_comparison(
            samples, schemes, n_bootstrap=n_bootstrap, eval_every=eval_every
        )
    return Fig14Result(wifi=out["wifi"], lte=out["lte"])


# ----------------------------------------------------------------------
# Section 5.3 latency benchmarks
# ----------------------------------------------------------------------
@dataclass
class LatencyResult:
    decision_ms: Dict[str, float]
    training_ms: Dict[int, float]

    def render(self) -> str:
        parts = ["Latency benchmarks (Section 5.3)"]
        parts.append("-- median admission-decision latency (ms) --")
        parts.append(bar_table(self.decision_ms, precision=3))
        parts.append("-- median SVM training latency (ms) vs training size --")
        parts.append(
            bar_table({f"{n} samples": v for n, v in self.training_ms.items()},
                      precision=1)
        )
        return "\n".join(parts)


def latency_benchmarks(
    n_decision_samples: int = 60,
    training_sizes: Sequence[int] = (50, 200, 1000),
    seed: int = 15,
    obs: Optional[Obs] = None,
) -> LatencyResult:
    """Decision latency for the three schemes plus SVM training latency.

    Pass a recording ``obs`` (:meth:`repro.obs.Obs.recording`) to
    accumulate every timed region — ``latency.decision`` spans per
    admission call, ``svm.fit`` spans per training fit, and the ExBox
    scheme's own ``admittance.retrain`` instrumentation — into its
    registry for a ``BENCH_obs.json`` export.
    """
    rng = np.random.default_rng(seed)
    testbed = WiFiTestbed()
    matrices = _testbed_matrices("random", "wifi", n_decision_samples, rng)
    samples = build_testbed_dataset(testbed, matrices, rng)

    n_bootstrap = min(40, len(samples) // 2)
    exbox = ExBoxScheme(
        AdmittanceClassifier(
            batch_size=20,
            min_bootstrap_samples=10,
            max_bootstrap_samples=n_bootstrap,
            obs=obs,
        )
    )
    exbox.bootstrap(samples[:n_bootstrap])
    test_samples = samples[n_bootstrap:]

    decision_ms = {}
    for scheme in (
        exbox,
        RateBasedAdmission(_WIFI_CAPACITY_BPS),
        MaxClientAdmission(10),
    ):
        decision_ms[scheme.name] = median_ms(
            measure_decision_latency(scheme, test_samples, obs=obs)
        )
    # Decision quality over the held-out stream, exported as the
    # latency.eval.* gauges the CI baseline gate watches.
    measure_admission_quality(exbox, test_samples, obs=obs)
    training_ms = {
        n: median_ms(measure_training_latency(n, obs=obs)) for n in training_sizes
    }
    return LatencyResult(decision_ms=decision_ms, training_ms=training_ms)
