"""Snapshot comparison and the CI regression gate built on it.

``python -m repro obs diff A.json B.json`` answers the regression
question directly from two ``BENCH_*.json`` artifacts (or bare snapshot
dicts): which counters/gauges moved, and how each latency histogram's
count / mean / p50 / p99 shifted.

``python -m repro obs check --baseline B --candidate C`` is the same
diff (baseline -> candidate) read through the rules of the baseline's
``gate`` block, exiting non-zero on any breach::

    "gate": {
        "histograms": {
            "latency.decision": {"stat": "p99", "max_ratio": 10.0}
        },
        "gauges": {
            "latency.eval.precision": {"max_drop": 0.15}
        }
    }

Latency rules are *ratios* against the baseline (CI hardware varies run
to run; a 10x blowup is a code regression, a 1.3x wobble is the
machine); quality rules are absolute drops (precision is
hardware-independent). A gate that cannot be evaluated is a breach: a
baseline without rules, a gated histogram empty in the baseline, or a
rule key the gate does not know.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.exporters import load_snapshot
from repro.obs.registry import Histogram, MetricsRegistry

__all__ = [
    "ScalarDelta",
    "HistogramDelta",
    "SnapshotDiff",
    "diff_snapshots",
    "GateCheck",
    "GateResult",
    "check_baseline",
]

#: Histogram statistics the diff reports, in display order.
_HIST_STATS = ("count", "mean", "p50", "p95", "p99", "max")


def _metrics_of(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Accept either a bare snapshot dict or a BENCH payload."""
    return payload.get("metrics", payload)


def _hist_stat(hist: Histogram, stat: str) -> Optional[float]:
    if stat == "count":
        return float(hist.count)
    if stat == "mean":
        return hist.mean
    if stat == "p50":
        return hist.quantile(0.5)
    if stat == "p95":
        return hist.quantile(0.95)
    if stat == "p99":
        return hist.quantile(0.99)
    if stat == "max":
        return hist.max
    raise ValueError(f"unknown histogram stat {stat!r}")


@dataclass
class ScalarDelta:
    """One counter/gauge compared across snapshots."""

    name: str
    kind: str  # "counter" | "gauge"
    before: float
    after: float

    @property
    def delta(self) -> float:
        return self.after - self.before

    @property
    def changed(self) -> bool:
        return abs(self.delta) > 1e-12


@dataclass
class HistogramDelta:
    """One histogram's summary statistics compared across snapshots."""

    name: str
    before: Dict[str, Optional[float]]
    after: Dict[str, Optional[float]]

    def ratio(self, stat: str) -> Optional[float]:
        """``after/before`` for ``stat``; None when undefined."""
        a, b = self.before.get(stat), self.after.get(stat)
        if a is None or b is None or abs(a) < 1e-12:
            return None
        return b / a

    @property
    def changed(self) -> bool:
        for stat in _HIST_STATS:
            a, b = self.before.get(stat), self.after.get(stat)
            if (a is None) != (b is None):
                return True
            if a is not None and b is not None and abs(b - a) > 1e-12:
                return True
        return False


@dataclass
class SnapshotDiff:
    """Everything that differs (or could) between two snapshots."""

    scalars: List[ScalarDelta] = field(default_factory=list)
    histograms: List[HistogramDelta] = field(default_factory=list)
    added: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)

    @property
    def any_changes(self) -> bool:
        return bool(
            self.added
            or self.removed
            or any(s.changed for s in self.scalars)
            or any(h.changed for h in self.histograms)
        )

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self, only_changed: bool = True) -> str:
        """Aligned-text report; ``only_changed`` hides identical metrics."""
        lines: List[str] = []
        scalars = [s for s in self.scalars if s.changed or not only_changed]
        if scalars:
            lines.append("counters/gauges (before -> after):")
            width = max(len(s.name) for s in scalars)
            for s in scalars:
                lines.append(
                    f"  {s.name:<{width}}  {s.before:g} -> {s.after:g}"
                    f"  ({s.delta:+g})"
                )
            lines.append("")
        hists = [h for h in self.histograms if h.changed or not only_changed]
        if hists:
            lines.append(
                "histograms (count / mean / p50 / p95 / p99 / max, "
                "before -> after):"
            )
            for h in hists:
                lines.append(f"  {h.name}")
                for stat in _HIST_STATS:
                    a, b = h.before.get(stat), h.after.get(stat)
                    ratio = h.ratio(stat)
                    ratio_txt = f"  ({ratio:.2f}x)" if ratio is not None else ""
                    lines.append(
                        f"    {stat:<6} {_fmt(a):>12} -> {_fmt(b):>12}{ratio_txt}"
                    )
            lines.append("")
        if self.added:
            lines.append("only in B: " + ", ".join(self.added))
        if self.removed:
            lines.append("only in A: " + ", ".join(self.removed))
        if not lines:
            lines.append("(snapshots are identical)")
        return "\n".join(lines).rstrip() + "\n"


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:g}"


def _scalar_deltas(
    before: MetricsRegistry, after: MetricsRegistry
) -> List[ScalarDelta]:
    out: List[ScalarDelta] = []
    for kind, getter in (("counter", "counters"), ("gauge", "gauges")):
        a_side = getattr(before, getter)()
        b_side = getattr(after, getter)()
        for name in sorted(set(a_side) & set(b_side)):
            out.append(
                ScalarDelta(
                    name=name,
                    kind=kind,
                    before=a_side[name].value,
                    after=b_side[name].value,
                )
            )
    return out


def diff_snapshots(a: Dict[str, Any], b: Dict[str, Any]) -> SnapshotDiff:
    """Compare two snapshot payloads (bare snapshots or BENCH dicts).

    Metrics present in both sides are compared; metrics present in only
    one are listed as added/removed. Histograms are compared on their
    summary statistics (count/mean/quantiles/max), which is what the
    regression question actually needs — bucket-by-bucket diffs are
    recoverable from the raw snapshots.
    """
    before = load_snapshot(_metrics_of(a))
    after = load_snapshot(_metrics_of(b))
    diff = SnapshotDiff()
    diff.scalars = _scalar_deltas(before, after)
    a_hists = before.histograms()
    b_hists = after.histograms()
    for name in sorted(set(a_hists) & set(b_hists)):
        diff.histograms.append(
            HistogramDelta(
                name=name,
                before={s: _hist_stat(a_hists[name], s) for s in _HIST_STATS},
                after={s: _hist_stat(b_hists[name], s) for s in _HIST_STATS},
            )
        )
    a_names = set(before.names())
    b_names = set(after.names())
    diff.added = sorted(b_names - a_names)
    diff.removed = sorted(a_names - b_names)
    return diff


@dataclass
class GateCheck:
    """One evaluated gate rule."""

    name: str
    kind: str  # "histogram" | "gauge" | "gate"
    stat: str
    limit_kind: str  # "max_ratio" | "max_drop"
    ok: bool
    detail: str

    def render(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{status}] {self.name} {self.stat}: {self.detail}"


@dataclass
class GateResult:
    """All gate checks for one baseline/candidate pair."""

    checks: List[GateCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> List[GateCheck]:
        return [c for c in self.checks if not c.ok]

    def render(self) -> str:
        lines = [c.render() for c in self.checks]
        verdict = (
            "baseline gate: OK"
            if self.ok
            else f"baseline gate: {len(self.failures)} breach(es)"
        )
        return "\n".join([*lines, verdict]) + "\n"


def _unknown_keys(rule: Dict[str, Any], known: Tuple[str, ...]) -> Optional[str]:
    unknown = sorted(set(rule) - set(known))
    return f"unknown rule key(s): {', '.join(unknown)}" if unknown else None


def _check_histogram(
    name: str,
    rule: Dict[str, Any],
    delta: Optional[HistogramDelta],
    only_in_candidate: bool,
) -> GateCheck:
    stat = str(rule.get("stat", "p99"))
    if stat not in _HIST_STATS:
        raise ValueError(f"unknown histogram stat {stat!r}")
    max_ratio = float(rule.get("max_ratio", 10.0))

    def check(ok: bool, detail: str) -> GateCheck:
        return GateCheck(name, "histogram", stat, "max_ratio", ok, detail)

    unknown = _unknown_keys(rule, ("stat", "max_ratio"))
    if unknown is not None:
        return check(False, unknown)
    observed = delta.after[stat] if delta is not None else None
    if observed is None and not only_in_candidate:
        return check(False, "metric missing (or empty) in candidate")
    ratio = delta.ratio(stat) if delta is not None else None
    if delta is None or ratio is None:
        return check(
            False, "metric missing, empty or zero in baseline; no ratio to gate"
        )
    baseline = delta.before[stat]
    return check(
        ratio <= max_ratio,
        f"observed {observed:g} = {ratio:.2f}x baseline "
        f"{baseline:g} (limit {max_ratio:g}x)",
    )


def _check_gauge(
    name: str, rule: Dict[str, Any], delta: Optional[ScalarDelta]
) -> GateCheck:
    limit = float(rule.get("max_drop", 0.1))

    def check(ok: bool, detail: str) -> GateCheck:
        return GateCheck(name, "gauge", "value", "max_drop", ok, detail)

    unknown = _unknown_keys(rule, ("max_drop",))
    if unknown is not None:
        return check(False, unknown)
    if delta is None:
        return check(False, "metric missing in baseline or candidate")
    return check(
        delta.after >= delta.before - limit,
        f"observed {delta.after:g} vs baseline {delta.before:g} "
        f"(allowed drop {limit:g})",
    )


def check_baseline(
    baseline_payload: Dict[str, Any],
    candidate_payload: Dict[str, Any],
    gate: Optional[Dict[str, Any]] = None,
) -> GateResult:
    """Read :func:`diff_snapshots` (baseline -> candidate) through the
    gate rules; see the module docstring for the format.

    ``gate`` defaults to the baseline payload's own ``"gate"`` block, so
    the committed baseline file is self-describing.
    """
    if gate is None:
        gate = baseline_payload.get("gate", {})
    diff = diff_snapshots(baseline_payload, candidate_payload)
    hists = {h.name: h for h in diff.histograms}
    gauges = {s.name: s for s in diff.scalars if s.kind == "gauge"}
    result = GateResult()
    for name, rule in sorted(gate.get("histograms", {}).items()):
        result.checks.append(
            _check_histogram(name, rule, hists.get(name), name in diff.added)
        )
    for name, rule in sorted(gate.get("gauges", {}).items()):
        result.checks.append(_check_gauge(name, rule, gauges.get(name)))
    if not result.checks:
        result.checks.append(
            GateCheck(
                "gate", "gate", "rules", "-", False,
                "the baseline declares no gate rules; nothing was checked",
            )
        )
    return result
