"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

    python3 perfbench/spread.py --workload optimized-periodic --seeds 1-10

Runs the benchmark once per seed, one run at a time, and prints for each
metric the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (Q3 - Q1) / median, beside a third of the metric's bound in
BENCHMARK.json.  Also prints the failed share of attempted operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(result)
        summary = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {summary}", flush=True)

    print(f"{args.workload}: {len(runs)} runs, failed share "
          f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        limit = f" (bound/3 = {bound / 3:.4f})" if bound else ""
        print(f"  {name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.4f}{limit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
