"""``repro obs`` — the observability consumption CLI.

Three subcommands over exported snapshots::

    python -m repro obs summary --snapshot BENCH_obs.json
    python -m repro obs diff A.json B.json
    python -m repro obs check --baseline benchmarks/baselines/BENCH_baseline_obs.json \
        --candidate BENCH_obs.json

``summary`` renders one snapshot as aligned text. ``diff`` compares two
snapshots. ``check`` evaluates the CI baseline gate and exits non-zero
on breach.

Invoking without a subcommand keeps the original behaviour
(``python -m repro obs --snapshot ...`` is a ``summary``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, IO, List, Optional, Sequence

from repro.obs.diffing import check_baseline, diff_snapshots
from repro.obs.exporters import load_snapshot

__all__ = ["render_snapshot", "build_parser", "main"]

_SUBCOMMANDS = ("summary", "diff", "check")


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 1.0:
        return f"{value:.3f} s"
    return f"{value * 1e3:.3f} ms"


def render_snapshot(payload: Dict[str, Any]) -> str:
    """Aligned-text summary of a BENCH payload or bare snapshot dict."""
    metrics = payload.get("metrics", payload)
    meta = payload.get("meta", {})
    registry = load_snapshot(metrics)
    lines: List[str] = []
    if meta:
        lines.append("meta:")
        for key in sorted(meta):
            lines.append(f"  {key}: {meta[key]}")
        lines.append("")

    counters = registry.counters()
    if counters:
        lines.append("counters:")
        width = max(len(n) for n in counters)
        for name, counter in counters.items():
            lines.append(f"  {name:<{width}}  {counter.value:g}")
        lines.append("")

    gauges = registry.gauges()
    if gauges:
        lines.append("gauges:")
        width = max(len(n) for n in gauges)
        for name, gauge in gauges.items():
            lines.append(f"  {name:<{width}}  {gauge.value:g}")
        lines.append("")

    histograms = registry.histograms()
    if histograms:
        lines.append("histograms (count / mean / p50 / p95 / max):")
        width = max(len(n) for n in histograms)
        for name, hist in histograms.items():
            lines.append(
                f"  {name:<{width}}  {hist.count:>6}  "
                f"{_fmt_seconds(hist.mean):>12}  "
                f"{_fmt_seconds(hist.quantile(0.5)):>12}  "
                f"{_fmt_seconds(hist.quantile(0.95)):>12}  "
                f"{_fmt_seconds(hist.max):>12}"
            )
        lines.append("")

    if not (counters or gauges or histograms):
        lines.append("(snapshot is empty)")
    return "\n".join(lines).rstrip() + "\n"


def _load_payload(path: Path) -> Optional[Dict[str, Any]]:
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Subcommand runners
# ----------------------------------------------------------------------
def _run_summary(args: argparse.Namespace, stream: IO[str]) -> int:
    path = Path(args.snapshot)
    payload = _load_payload(path)
    if payload is None:
        print(f"repro obs: snapshot not found: {path}", file=stream)
        return 2
    stream.write(render_snapshot(payload))
    return 0


def _run_diff(args: argparse.Namespace, stream: IO[str]) -> int:
    payload_a = _load_payload(Path(args.snapshot_a))
    payload_b = _load_payload(Path(args.snapshot_b))
    if payload_a is None or payload_b is None:
        missing = args.snapshot_a if payload_a is None else args.snapshot_b
        print(f"repro obs diff: snapshot not found: {missing}", file=stream)
        return 2
    diff = diff_snapshots(payload_a, payload_b)
    stream.write(diff.render(only_changed=not args.all))
    if args.exit_code and diff.any_changes:
        return 1
    return 0


def _run_check(args: argparse.Namespace, stream: IO[str]) -> int:
    baseline = _load_payload(Path(args.baseline))
    candidate = _load_payload(Path(args.candidate))
    if baseline is None or candidate is None:
        missing = args.baseline if baseline is None else args.candidate
        print(f"repro obs check: snapshot not found: {missing}", file=stream)
        return 2
    result = check_baseline(baseline, candidate)
    stream.write(result.render())
    return 0 if result.ok else 1


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro obs",
        description="Consume exported repro.obs metrics snapshots.",
    )
    sub = parser.add_subparsers(dest="subcommand")

    p_summary = sub.add_parser("summary", help="render one snapshot as text")
    p_summary.add_argument(
        "--snapshot",
        default="BENCH_obs.json",
        help="path to a BENCH_*.json snapshot (default: BENCH_obs.json)",
    )

    p_diff = sub.add_parser("diff", help="compare two snapshots")
    p_diff.add_argument("snapshot_a", help="before snapshot (A)")
    p_diff.add_argument("snapshot_b", help="after snapshot (B)")
    p_diff.add_argument(
        "--all",
        action="store_true",
        help="show unchanged metrics too",
    )
    p_diff.add_argument(
        "--exit-code",
        action="store_true",
        help="exit 1 when the snapshots differ (git-diff style)",
    )

    p_check = sub.add_parser(
        "check", help="evaluate the CI baseline regression gate"
    )
    p_check.add_argument(
        "--baseline",
        default="benchmarks/baselines/BENCH_baseline_obs.json",
        help="committed baseline payload (with its 'gate' block)",
    )
    p_check.add_argument(
        "--candidate",
        default="BENCH_obs.json",
        help="freshly exported snapshot to gate",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None, out: Optional[IO[str]] = None) -> int:
    stream: IO[str] = out if out is not None else sys.stdout
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in _SUBCOMMANDS and argv[0] not in ("-h", "--help"):
        # Back-compat: `repro obs --snapshot X` means `repro obs summary`.
        argv = ["summary", *argv]
    args = build_parser().parse_args(argv)
    if args.subcommand == "diff":
        return _run_diff(args, stream)
    if args.subcommand == "check":
        return _run_check(args, stream)
    return _run_summary(args, stream)
