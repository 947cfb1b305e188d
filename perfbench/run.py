"""The repository's benchmark: ExBox workloads, checked and timed.

Run from the repository root::

    python3 perfbench/run.py --workload closed_loop --seed 17 --seconds 50 --trace 0

Workloads (see ``workloads.json`` for why each exists and which layer
metric should move which end-to-end metric):

- ``closed_loop``  -- the seeded WiFi closed loop (testbed, learning, decisions);
- ``fleet_serve``  -- read-only placement across a 4-cell fleet (decision path);
- ``large_buffer`` -- the Figure-13 stream at a 4000-row buffer (Gram + SVM fit).
  Not in ``BENCHMARK.json``: too unsteady across seeds to gate, so it is
  run by hand for its per-layer ledger.

A run sets the workload up at least three times (``setup_s`` is the
median), then repeats its cycle of passes, each from the same post-set-up
state, until ``--seconds`` have passed. ``--trace 0`` prints the end-to-end metrics of
untraced passes. ``--trace 1`` alternates untraced and traced cycles and
prints the per-layer ledger of the traced ones, plus the tracing overhead;
it also writes the spans to ``.perfbench/``. Every repeat of a pass must
reproduce the first one's decisions and work counters, traced or not.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Tuple

from tracing import Tracer, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Single-threaded BLAS: the workloads are single processes with no
# threads, and BLAS worker threads would only compete with the process
# they serve for the same CPUs. Must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

WORKLOADS = ("closed_loop", "large_buffer", "fleet_serve")
# Set-up runs at least 3 times and until 2 s of it were timed (at most 25),
# so a sub-second set-up still gets a steady median.
SETUP_MIN_REPEATS, SETUP_MIN_SECONDS, SETUP_MAX_REPEATS = 3, 2.0, 25

Metrics = Dict[str, Tuple[float, str]]


def _load_workload(name: str) -> Any:
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no repro package under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    return importlib.import_module(name)


class Timings:
    """Timings of the untraced repeats of each segment, summarised by medians.

    Every repeat of a segment does the same work, so its time over the run
    is the median of its repeats, and each decide call's latency is the
    median of that call over the repeats. On a shared 2-vCPU VM the same
    pass took 0.57-1.11 s from one repeat to the next; a median follows
    the speed the program gets most of the run, where a minimum follows
    whether a rare fast period came along, and moved decide latency by
    up to ~50% between runs.
    """

    def __init__(self) -> None:
        self.seconds: Dict[Tuple[int, int], List[float]] = {}
        self.latencies: Dict[Tuple[int, int], List[Any]] = {}
        self.repeats = 0

    def add(self, k: int, segments: List[Tuple[float, Any]]) -> None:
        import numpy as np  # after the BLAS thread settings above

        if k == 0:
            self.repeats += 1
        for i, (seconds, latencies) in enumerate(segments):
            key = (k, i)
            latencies = np.asarray(latencies, dtype=float)
            # A repeat that did other work is already counted as failed.
            if key in self.seconds and latencies.shape != self.latencies[key][0].shape:
                continue
            self.seconds.setdefault(key, []).append(seconds)
            self.latencies.setdefault(key, []).append(latencies)

    def segment_seconds(self) -> float:
        """One cycle's timed seconds: the sum of the segments' medians."""
        return sum(statistics.median(v) for v in self.seconds.values())

    def call_latencies(self) -> Any:
        """One cycle's decide latencies, each call's median over its repeats."""
        import numpy as np  # after the BLAS thread settings above

        return np.concatenate(
            [np.median(np.vstack(reps), axis=0) for reps in self.latencies.values()]
        )


def _run_cycles(
    workload: Any, pristine: Any, specs: List[Any], seconds: float, trace: bool
) -> Tuple[List[Tuple[int, bool, Any]], Timings]:
    """Repeat the cycle of passes until ``seconds`` have passed; with
    ``trace`` the cycles alternate untraced/traced (at least one each).
    Returns every pass and the timings of the untraced ones.

    Each repeat of a pass runs pinned to the next allowed CPU, so the
    repeats of every pass are spread evenly over the CPUs.

    Every repeat of pass ``k`` must match its first run: decisions and work
    counters always, traced-only counters across traced repeats; each
    mismatched decision counts as a failed arrival. A repeat's decisions
    and scoring input are dropped once checked, so memory does not grow
    with the number of passes that fit in ``seconds``.
    """
    from common import PassResult

    results: List[Tuple[int, bool, Any]] = []
    timings = Timings()
    first: Dict[int, Any] = {}
    first_traced: Dict[int, Dict[str, Any]] = {}
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    cycle = 0
    while True:
        traced = trace and cycle % 2 == 1
        for k, spec in enumerate(specs):
            os.sched_setaffinity(0, {cpus[(cycle + k) % len(cpus)]})
            tracer = Tracer() if traced else None
            try:
                result = workload.run_pass(pristine, spec, tracer)
            except Exception:  # a crashed pass is a failed operation, not a crash
                traceback.print_exc()
                result = PassResult(arrivals=1, timed_s=0.0, segments=[], verdicts=[],
                                    failed=1, work={"crashed": True}, tracer=tracer)
            base = first.setdefault(k, result)
            if result is not base:
                bad = sum(1 for a, b in zip(result.verdicts, base.verdicts) if a != b)
                bad += abs(len(result.verdicts) - len(base.verdicts))
                if result.work != base.work:
                    bad = max(bad, 1)
                result.failed += bad
                result.verdicts = result.score_input = None
            if traced:
                signature = _traced_signature(result)
                if first_traced.setdefault(k, signature) != signature:
                    result.failed += 1
            else:
                timings.add(k, result.segments)
            result.segments = None
            results.append((k, traced, result))
        cycle += 1
        if time.perf_counter() - start >= seconds and (not trace or cycle >= 2):
            return results, timings


def _traced_signature(result: Any) -> Dict[str, Any]:
    layers = result.tracer.layers()
    return {
        "spans": {name: row["calls"] for name, row in sorted(layers.items())},
        "counts": dict(sorted(result.tracer.counts.items())),
        "work": result.traced_work,
    }


def _end_to_end(timings: Timings, setup_times: List[float], peak_mem_mb: float,
                quality: Dict[str, float]) -> Metrics:
    """End-to-end metrics over one cycle's worth of work (see Timings)."""
    import numpy as np  # after the BLAS thread settings above

    latencies = timings.call_latencies()
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "arrivals_per_s": (latencies.size / timings.segment_seconds(), "1/s"),
        "decision_p50_ms": (float(np.percentile(latencies, 50)) * 1e3, "ms"),
        "decision_p99_ms": (float(np.percentile(latencies, 99)) * 1e3, "ms"),
        "peak_mem_mb": (peak_mem_mb, "MB"),
        "precision": (quality["precision"], "ratio"),
        "recall": (quality["recall"], "ratio"),
    }


LAYERS = ("testbed.run_flows", "learn.observe", "learn.retrain", "decide", "fleet.departure")


def _per_layer(traced: List[Any], untraced: List[Tuple[int, Any]],
               traced_k: List[int], n_specs: int,
               quality: Dict[str, float]) -> Tuple[Metrics, List[str]]:
    """The per-layer ledger, per cycle of passes, from traced passes:
    the metrics, and the table that prints them by layer."""
    import numpy as np  # after the BLAS thread settings above

    cycles = len(traced) / n_specs
    timed_s = sum(r.timed_s for r in traced)
    rows: Dict[str, Dict[str, Any]] = {}
    counts: Dict[str, float] = {}
    for result in traced:
        for name, row in result.tracer.layers().items():
            agg = rows.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                         "top_s": 0.0, "durations": []})
            for key in ("calls", "total_s", "self_s", "top_s"):
                agg[key] += row[key]
            agg["durations"].extend(row["durations"])
        for name, value in result.tracer.counts.items():
            counts[name] = counts.get(name, 0) + value

    def row(name: str) -> Dict[str, Any]:
        return rows.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "top_s": 0.0,
                               "durations": []})

    def work(key: str) -> float:
        return sum(r.traced_work.get(key, 0) + r.work.get(key, 0) for r in traced)

    arrivals = sum(r.arrivals for r in traced)
    top_s = sum(agg["top_s"] for agg in rows.values())
    retrain = row("learn.retrain")
    per_cycle_retrains = retrain["calls"] / cycles if cycles else 0
    tail_pct = tail_percentile(int(per_cycle_retrains))

    # Tracing overhead: traced against untraced time of the same passes.
    by_k: Dict[int, List[float]] = {}
    for k, result in untraced:
        by_k.setdefault(k, []).append(result.timed_s)
    traced_by_k: Dict[int, List[float]] = {}
    for k, result in zip(traced_k, traced):
        traced_by_k.setdefault(k, []).append(result.timed_s)
    base = sum(statistics.median(by_k[k]) for k in traced_by_k)
    with_trace = sum(statistics.median(v) for v in traced_by_k.values())

    out: Metrics = {
        "timed.ms": (timed_s * 1e3 / cycles, "ms"),
        "driver.self_ms": ((timed_s - top_s) * 1e3 / cycles, "ms"),
        "driver.share": ((timed_s - top_s) / timed_s, "fraction"),
    }
    for name in ("testbed.run_flows", "learn.observe", "learn.retrain", "decide"):
        agg = row(name)
        out[f"{name}.calls"] = (agg["calls"] / cycles, "count")
        out[f"{name}.ms"] = (agg["total_s"] * 1e3 / cycles, "ms")
        out[f"{name}.share"] = (agg["top_s"] / timed_s, "fraction")
    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    durations = np.asarray(retrain["durations"] or [0.0])
    learner_calls = counts.get("learn.margin", 0) + counts.get("learn.classify", 0)
    out.update({
        "testbed.flows_per_call": (
            ratio(counts.get("testbed.flows", 0), row("testbed.run_flows")["calls"]), "count"),
        "learn.retrain.p50_ms": (float(np.percentile(durations, 50)) * 1e3, "ms"),
        "learn.retrain.tail_ms": (
            float(np.percentile(durations, tail_pct)) * 1e3 if tail_pct else 0.0, "ms"),
        "learn.retrain.tail_pct": (float(tail_pct), "percentile"),
        "learn.buffer_rows_mean": (
            ratio(counts.get("learn.buffer_rows", 0), retrain["calls"]), "rows"),
        "learn.label_agreement": (quality.get("learn.label_agreement", 0.0), "fraction"),
        "gram.cache.hits": (work("gram.cache.hits") / cycles, "count"),
        "gram.cache.misses": (work("gram.cache.misses") / cycles, "count"),
        "gram.reuse_fraction": (
            ratio(work("gram.reused_sum"), work("gram.retrains")), "fraction"),
        "decide.margin_calls_per_arrival": (counts.get("learn.margin", 0) / arrivals, "count"),
        "decide.classify_calls_per_arrival": (
            counts.get("learn.classify", 0) / arrivals, "count"),
        "fleet.departure.ms": (row("fleet.departure")["total_s"] * 1e3 / cycles, "ms"),
        "fleet.no_room": (work("no_room") / cycles, "count"),
        "trace.overhead_frac": (with_trace / base - 1.0, "fraction"),
        "closedloop.qoe_ok_fraction": (
            quality.get("closedloop.qoe_ok_fraction", 0.0), "fraction"),
        "closedloop.carried_flow_min": (
            quality.get("closedloop.carried_flow_min", 0.0), "flow-min"),
    })

    work_text = {
        "testbed.run_flows": f"{counts.get('testbed.flows', 0) / cycles:.0f} flows",
        "learn.retrain": (f"{out['learn.buffer_rows_mean'][0]:.0f} rows/retrain, Gram "
                          f"{out['gram.cache.hits'][0]:.0f} hits "
                          f"{out['gram.cache.misses'][0]:.0f} misses"),
        "decide": f"{learner_calls / cycles:.0f} learner calls",
    }
    table = [f"  {'layer':<18}{'calls':>9}{'ms':>11}{'self ms':>11}{'share':>8}  work",
             f"  {'driver':<18}{'':>9}{out['driver.self_ms'][0]:>11.1f}"
             f"{out['driver.self_ms'][0]:>11.1f}{out['driver.share'][0]:>8.3f}"]
    for name in LAYERS:
        agg = row(name)
        if agg["calls"]:
            table.append(f"  {name:<18}{agg['calls'] / cycles:>9.0f}"
                         f"{agg['total_s'] * 1e3 / cycles:>11.1f}"
                         f"{agg['self_s'] * 1e3 / cycles:>11.1f}{agg['top_s'] / timed_s:>8.3f}"
                         f"  {work_text.get(name, '')}")
    table.append(f"  {'timed region':<18}{'':>9}{out['timed.ms'][0]:>11.1f}{'':>11}"
                 f"{1.0:>8.3f}  {arrivals / cycles:.0f} arrivals (all per cycle of passes)")
    return out, table


def _write_trace(name: str, seed: int, traced: List[Any], metrics: Metrics) -> Path:
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{name}-seed{seed}-trace.json"
    payload = {
        "workload": name,
        "seed": seed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        # One list per traced pass; each span is [name, start, end, parent].
        "passes": [result.tracer.spans for result in traced],
    }
    path.write_text(json.dumps(payload))
    return path


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int,
                        help="input seed (default: the workload's default_seed in workloads.json)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is None:
        provenance = json.loads((HERE / "workloads.json").read_text())
        args.seed = provenance["workloads"][args.workload]["default_seed"]
    workload = _load_workload(args.workload)

    setup_times: List[float] = []
    pristine = None
    while len(setup_times) < SETUP_MAX_REPEATS and (
        len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS
    ):
        pristine = None
        gc.collect()
        start = time.perf_counter()
        pristine = workload.setup(args.seed)
        setup_times.append(time.perf_counter() - start)

    specs = workload.pass_specs(args.seed)
    results, timings = _run_cycles(workload, pristine, specs, args.seconds, bool(args.trace))
    # Peak RSS so far, before scoring allocates anything.
    peak_mem_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    quality = workload.score(
        [r for _, _, r in results if r.score_input is not None], pristine
    )

    attempted = sum(r.arrivals for _, _, r in results)
    failed = sum(r.failed for _, _, r in results)
    untraced = [(k, r) for k, traced, r in results if not traced]
    traced = [(k, r) for k, traced, r in results if traced]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(untraced)} untraced"
          f" + {len(traced)} traced  arrivals {attempted}  failed {failed}")
    if args.trace:
        metrics, table = _per_layer([r for _, r in traced], untraced, [k for k, _ in traced],
                                    len(specs), quality)
        print("\n".join(table))
        path = _write_trace(args.workload, args.seed, [r for _, r in traced], metrics)
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics = _end_to_end(timings, setup_times, peak_mem_mb, quality)
        samples = sum(reps[0].size for reps in timings.latencies.values())
        print(f"{len(timings.seconds)} segments, each timed as the median of"
              f" {timings.repeats} repeats; decision latency over {samples} decide calls,"
              f" each the median of its repeats; setup_s is the median of"
              f" {len(setup_times)} set-ups")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
