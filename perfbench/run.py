"""Benchmark entry point: runs one workload of kerndisc in a fresh process.

    python3 perfbench/run.py --workload tables-periodic --seed 1 --seconds 30 --trace 0

The worker process gets one OpenBLAS/OpenMP thread and the start time
of the launch, so that its set-up time counts interpreter start and
imports.  The last line of standard output is the run's JSON result.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

WORKER = Path(__file__).resolve().parent / "worker.py"
TIMEOUT_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        help="tables-periodic, optimized-periodic or transported-mc")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    env = dict(os.environ, **PINNED)
    env["PERFBENCH_T0"] = repr(time.perf_counter())
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)], env=env)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker exceeded {TIMEOUT_S:.0f} s; stopped", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
