"""One benchmark run in a fresh process; started by run.py.

Imports kerndisc from the checkout's ``src``, runs whole rounds of one
workload through the ``kerndisc`` command line (in process, one table
worker, one command per table cell), checks every output against the
oracles, and prints the result as the last line of standard output.
Exit code 2, without a result, if kerndisc cannot be imported from this
checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import heapq
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

START = time.perf_counter()
ROOT = Path(__file__).resolve().parents[1]
RESULTS = Path(__file__).resolve().parent / "results"

import numpy as np  # noqa: E402

import oracles  # noqa: E402

WORKLOADS = ("tables-periodic", "optimized-periodic", "transported-mc")
PER_FAMILIES = oracles.PER_FAMILIES
MC_SAMPLES = 2**16  # the kerndisc default for --mc-samples
OPT_MAX_ITERS = 300
OPT_N = (16, 64)
OPT_D = (1, 2, 8)
TRA_N = (16, 64)
TRA_D = (4, 8, 16)
# random cells up to this N^2 D are re-evaluated by the oracle
OWN_LIMIT = 2**20
BRACKET_BOX = {1: 4096, 2: 128}
# stop starting rounds that would end after this many seconds
HARD_LIMIT_S = 120.0
# the speed gauge: about its call time on this machine in its fast
# state, its input, and how often it is read
GAUGE_REF_S = 0.018
GAUGE_POINTS = np.random.RandomState(0).random_sample((128, 8))
GAUGE_WINDOW_S = 0.1
SEGMENT_S = 1.0


@dataclass
class Task:
    """One kerndisc command producing one table cell."""

    argv: list[str]
    kind: str  # "random", "asymptotic" or "optimized"
    kernel: str
    n: int
    d: int
    text: str = ""
    value: float | None = None
    points: np.ndarray | None = None

    @property
    def family(self) -> str:
        return self.kernel.split("-")[1]


def table_task(kernel: str, mode: str, n: int, d: int, seed: int) -> Task:
    argv = ["table", "--kernel", kernel, "--mode", mode, "--format", "csv", "--threads", "1",
            "--seed", str(seed), "--N", str(n), "--D", str(d)]
    return Task(argv, mode, kernel, n, d)


def points_task(family: str, n: int, d: int, seed: int) -> Task:
    argv = ["points", "--kernel", f"per-{family}", "--mode", "optimized", "--N", str(n),
            "--D", str(d), "--max-iters", str(OPT_MAX_ITERS), "--seed", str(seed)]
    return Task(argv, "optimized", f"per-{family}", n, d)


def build_tasks(workload: str, seed: int) -> list[Task]:
    if workload == "tables-periodic":
        return [table_task(f"per-{fam}", mode, n, d, seed)
                for mode in ("random", "asymptotic") for fam in PER_FAMILIES
                for n in oracles.N_GRID for d in oracles.D_GRID]
    if workload == "optimized-periodic":
        return [points_task(fam, n, d, seed)
                for fam in PER_FAMILIES for n in OPT_N for d in OPT_D]
    if workload == "transported-mc":
        return [table_task(f"tra-{fam}", "random", n, d, seed)
                for fam in PER_FAMILIES for n in TRA_N for d in TRA_D]
    raise ValueError(f"unknown workload {workload!r}")


def run_task(cli, task: Task) -> None:
    """Run the command and parse its value (and points) from its output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(task.argv)
    task.text = out.getvalue()
    if code != 0:
        return
    lines = task.text.splitlines()
    if task.kind == "optimized":
        meta = dict(line[2:].split(": ", 1) for line in lines if line.startswith("# "))
        rows = [line for line in lines if line and not line.startswith("#")][1:]
        task.points = np.array([[float(v) for v in row.split(",")] for row in rows])
        task.value = float(meta["E"])
    else:
        n, d, _, full, _ = lines[2].split(",")
        if (int(n), int(d)) == (task.n, task.d):
            task.value = float(full)


@dataclass
class Timing:
    """One round's time, raw and scaled to the machine's reference speed."""

    wall: float = 0.0
    cpu: float = 0.0
    wall_ref: float = 0.0
    cpu_ref: float = 0.0


def gauge() -> list[tuple[float, float]]:
    """(wall, CPU) times per call of a fixed computation, over at least
    GAUGE_WINDOW_S.

    The machine is shared and switches between a fast and a slow state
    (about 40% apart) every few tens of seconds; at times other tenants
    also take CPU time from it (steal).  The gauge's medians, read next
    to the measured work, track that on each clock.  Interpreter-bound
    code slows more than vectorized NumPy in the slow state, so a call
    mixes the two: the Gram mean of gauss and mq on 128 points in D = 8
    (about 70% of its time) and heap and dict operations in pure Python
    (30%).  Of the mixes tried, this one followed the rounds of
    tables-periodic and transported-mc best, and optimized-periodic about
    as well as any.
    """
    times = []
    end = time.perf_counter() + GAUGE_WINDOW_S
    while len(times) < 3 or time.perf_counter() < end:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        oracles.periodic_e2("gauss", GAUGE_POINTS)
        oracles.periodic_e2("mq", GAUGE_POINTS)
        heap, sums = [], {}
        for i in range(6000):
            heapq.heappush(heap, ((i * 7919) % 1009, i))
            sums[i % 97] = sums.get(i % 97, 0.0) + 0.5 * i
        while heap:
            heapq.heappop(heap)
        times.append((time.perf_counter() - wall0, time.process_time() - cpu0))
    return times


def run_round(cli, tasks: list[Task], before: list[tuple[float, float]]):
    """Run every task once; returns the round's Timing and the last gauge
    reading.  Segments of at least SEGMENT_S are bracketed by gauge
    readings, ``before`` being the first; their wall (CPU) time is scaled
    by GAUGE_REF_S over the median wall (CPU) time of the gauge calls on
    both sides."""
    timing = Timing()
    seg_wall = seg_cpu = 0.0
    for i, task in enumerate(tasks):
        task.value, task.points = None, None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            run_task(cli, task)
        except Exception as exc:  # a failed cell is counted, the run goes on
            print(f"{' '.join(task.argv)}: {type(exc).__name__}: {exc}", file=sys.stderr)
        seg_wall += time.perf_counter() - wall0
        seg_cpu += time.process_time() - cpu0
        if seg_wall >= SEGMENT_S or i == len(tasks) - 1:
            after = gauge()
            gauge_wall, gauge_cpu = (statistics.median(col) for col in zip(*before, *after))
            timing.wall += seg_wall
            timing.cpu += seg_cpu
            timing.wall_ref += seg_wall * GAUGE_REF_S / gauge_wall
            timing.cpu_ref += seg_cpu * GAUGE_REF_S / gauge_cpu
            before, seg_wall, seg_cpu = after, 0.0, 0.0
    return timing, before


def succeeded(task: Task) -> bool:
    return task.value is not None and math.isfinite(task.value)


def check(tasks: list[Task], seed: int) -> tuple[list[str], dict]:
    """Every oracle over one round's outputs; failed cells are skipped."""
    problems: list[str] = []
    stats: dict = {}
    random_periodic: dict[str, dict] = {}
    for task in filter(succeeded, tasks):
        n, d, e = task.n, task.d, task.value
        cell = oracles.cell_seed(seed, n, d)
        if task.kind == "random" and task.kernel.startswith("per-"):
            problems += oracles.check_random_cell(task.family, seed, n, d, e,
                                                  OWN_LIMIT, BRACKET_BOX)
            random_periodic.setdefault(task.family, {})[(n, d)] = e
        elif task.kind == "asymptotic":
            problems += oracles.check_asymptotic(task.family, {(n, d): e})
        elif task.kind == "optimized":
            problems += oracles.check_optimized(task.family, n, d, cell, e, task.points)
        elif e < 0.0:
            problems.append(f"{task.kernel} N={n} D={d}: E = {e!r}")
        elif task.family == "gauss":
            # the command line draws MC samples from the cell seed + 101
            found, z = oracles.check_tra_gauss(n, d, cell, e, MC_SAMPLES, (cell + 101) % 2**32)
            problems += found
            stats[f"tra-gauss.z.N{n}.D{d}"] = z
    for family, values in random_periodic.items():
        found, mean, se = oracles.check_random_law(family, values)
        problems += found
        stats[f"per-{family}.random_law"] = [mean, se]
    return problems, stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = args.seed % 2**32
    # run.py passes its clock reading at launch; run directly, set-up
    # starts when this module starts
    t0 = float(os.environ.get("PERFBENCH_T0", START))

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import kerndisc.cli as cli
    except ImportError as exc:
        print(f"cannot import kerndisc from {src}: {exc}", file=sys.stderr)
        return 2
    if src.resolve() not in Path(cli.__file__).resolve().parents:
        print(f"kerndisc was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tasks = build_tasks(args.workload, seed)
    parser = cli.build_parser()
    for task in tasks:
        parser.parse_args(task.argv)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    setup_raw_s = time.perf_counter() - t0
    # the cold set-up, scaled to reference speed by the gauge reading
    # that follows it, like the rounds
    reading = gauge()
    setup_s = setup_raw_s * GAUGE_REF_S / statistics.median(wall for wall, _ in reading)

    timings, first, problems = [], None, []
    attempted = failed = 0
    rounds0 = time.perf_counter()
    while True:
        timing, reading = run_round(cli, tasks, reading)
        timings.append(timing)
        attempted += len(tasks)
        failed += sum(not succeeded(task) for task in tasks)
        texts = [task.text for task in tasks]
        if first is None:
            first = texts
        elif texts != first:
            problems.append(f"round {len(timings)} output differs from round 1")
        # start another round only if it is expected to end within --seconds
        elapsed = time.perf_counter() - rounds0
        if elapsed + elapsed / len(timings) > min(args.seconds, HARD_LIMIT_S):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    # the oracles check the last round after the measurement, so their
    # memory is not in peak_rss_mb
    oracle0 = time.perf_counter()
    found, stats = check(tasks, seed)
    problems += found
    oracle_s = time.perf_counter() - oracle0
    e_values = [task.value for task in tasks if succeeded(task)]

    rounds = len(timings)
    wall_s = statistics.median(t.wall_ref for t in timings)
    cpu_s = statistics.median(t.cpu_ref for t in timings)
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "cpu_s": {"value": cpu_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "e_mean": {"value": float(np.mean(e_values)) if e_values else 0.0, "unit": "1"},
        }
    else:
        metrics = tracer.metrics(rounds)
    for line in problems:
        print(f"# oracle: {line}", file=sys.stderr)
    raw_wall_s = statistics.median(t.wall for t in timings)
    print(f"# {args.workload} seed={seed} trace={args.trace} rounds={rounds} "
          f"wall_s={wall_s:.3f} raw_wall_s={raw_wall_s:.3f} "
          f"raw_cpu_s={statistics.median(t.cpu for t in timings):.3f} "
          f"setup_s={setup_s:.3f} raw_setup_s={setup_raw_s:.3f} oracle problems={len(problems)}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=seed, trace=args.trace,
                  rounds=[vars(t) for t in timings], oracle_s=oracle_s, problems=problems,
                  stats=stats, setup_raw_s=setup_raw_s)
    name = f"{args.workload}-seed{seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
