"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload fleet_serve --seeds 1-10 --seconds 10

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
each metric the median, the quartiles (``statistics.quantiles(n=4)``),
the spread ``(q3 - q1) / median`` and the bound from ``BENCHMARK.json``.
A benchmark is steady when every spread but ``setup_s``'s is below a
third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> List[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: Dict[str, List[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + "  ".join(
            f"{name}={metric['value']:.5g}" for name, metric in result["metrics"].items()
        ), flush=True)

    print(f"{'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name, float("nan"))
        flag = "" if name == "setup_s" or spread < bound / 3 else "  <- above bound/3"
        print(f"{name:<18}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.3f}{bound:>8}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
