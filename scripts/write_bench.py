#!/usr/bin/env python3
"""Run the benchmark on one or more checkouts and write a BENCH_<n>.json file.

Usage:
    python scripts/write_bench.py --out BENCH_8.json --seeds 1-5 \\
        --checkout parent=<copy of the parent commit> --checkout change=<copy of the change> \\
        --note "no other load of ours ran"

Each checkout is a copy of this repository; its own ``perfbench/run.py``
runs every workload once per seed, with the run length of its
``BENCHMARK.json`` and tracing off.  For each workload and seed the
checkouts run one after another, and the order alternates from seed to
seed, so the machine's slow phases fall on every side.  The file holds,
per checkout and workload, the median over the seeds of each end-to-end
metric, the per-seed values, and the correct / attempted / failed counts;
and, for the machine, the core count, the Python, NumPy, SciPy and
OpenBLAS versions, the load averages before and after the runs and the
``--note`` on other load.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

WORKLOADS = ("tables-periodic", "optimized-periodic", "transported-mc")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def openblas_version() -> str | None:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return blas.get("version") if "openblas" in blas.get("name", "") else None


def commit_of(path: Path) -> str | None:
    out = subprocess.run(["git", "-C", str(path), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    if out.returncode != 0:
        return None
    return out.stdout.strip()


def run_once(path: Path, workload: str, seed: int) -> dict:
    spec = json.loads((path / "BENCHMARK.json").read_text())
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=path, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict], seeds: list[int]) -> dict:
    names = list(runs[0]["metrics"])
    return {
        "seeds": seeds,
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "medians": {name: {"value": statistics.median(r["metrics"][name]["value"] for r in runs),
                           "unit": runs[0]["metrics"][name]["unit"]} for name in names},
        "per_seed": {name: [r["metrics"][name]["value"] for r in runs] for name in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, type=Path, help="the BENCH_<n>.json to write")
    parser.add_argument("--checkout", action="append", required=True, metavar="LABEL=PATH",
                        help="a labelled copy of the repository; repeat for each side")
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--note", required=True,
                        help="whether other load ran on the machine during the runs")
    args = parser.parse_args(argv)

    checkouts = {}
    for item in args.checkout:
        label, sep, path = item.partition("=")
        if not sep or not label or not Path(path, "perfbench", "run.py").is_file():
            parser.error(f"--checkout {item!r}: expected LABEL=PATH of a repository copy")
        checkouts[label] = Path(path).resolve()
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")

    load_before = os.getloadavg()
    runs = {label: {w: [] for w in workloads} for label in checkouts}
    for workload in workloads:
        for i, seed in enumerate(seeds):
            order = list(checkouts) if i % 2 == 0 else list(reversed(checkouts))
            for label in order:
                result = run_once(checkouts[label], workload, seed)
                runs[label][workload].append(result)
                print(f"{workload} seed {seed} {label}: wall_s "
                      f"{result['metrics']['wall_s']['value']:.4f} correct {result['correct']}",
                      flush=True)

    bench = {
        "machine": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "openblas": openblas_version(),
            "load_average_before": list(load_before),
            "load_average_after": list(os.getloadavg()),
            "other_load": args.note,
        },
        "checkouts": {
            label: {"commit": commit_of(path),
                    "workloads": {w: summarize(runs[label][w], seeds) for w in workloads}}
            for label, path in checkouts.items()
        },
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
