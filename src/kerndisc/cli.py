"""Command-line driver: discrepancy tables, point-set files, kernel
slices, and a quick property check.

Commands
--------
table   E(N, D) grid for one kernel in random / optimized / asymptotic
        mode, markdown (3 decimals, matrix layout) or CSV (rounded value
        plus full-precision companion column).
points  One point set as CSV (17-significant-digit coordinates);
        optimized mode prepends '#' metadata lines.
slice   The 1-D periodic factor (or an axis slice through the cube
        center for non-tensor kernels) as t,value rows.
check   Fast self-checks of the numerical core; exit 0/3.

Every cell's RNG seed is base_seed + 1000003 * D + N, so runs are
bit-reproducible; cells are independent jobs distributed over
``--threads`` workers and assembled in deterministic order.  Exit codes:
0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np

from . import lattice
from .discrepancy import MonteCarlo, periodic_error, physical_error
from .kernels import PeriodicKernel, SplineKernel, kernel_from_id
from .optimize import OptimizerConfig, optimize_points
from .sampling import MT19937, cell_seed, uniform_points

DEFAULT_N = (16, 32, 64, 128, 256, 512)
DEFAULT_D = (1, 2, 4, 8, 16, 32, 64, 128)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"bad integer list {text!r}") from exc
    if not values or any(v < 1 for v in values):
        raise ValueError(f"list entries must be positive integers: {text!r}")
    return values


def _random_cell_error(kernel, n: int, seed: int, mc_samples: int) -> float:
    pts = uniform_points(seed, n, kernel.dim)
    if isinstance(kernel, PeriodicKernel):
        return periodic_error(kernel, pts).value
    if isinstance(kernel, SplineKernel):
        return physical_error(kernel, pts, "exact").value
    # the integration stream is kept distinct from the point stream
    return physical_error(kernel, pts, MonteCarlo(mc_samples, (seed + 101) % 2**32)).value


def _optimized_cell(kernel, n: int, seed: int,
                    max_iters: int | None) -> tuple[float, bool, dict]:
    config = OptimizerConfig() if max_iters is None else OptimizerConfig(max_iterations=max_iters)
    points, report, info = optimize_points(kernel, n, seed, config)
    # flagged when the returned points are those of a stalled descent
    failed = info["stage"] == "descent" and info["descent_stopped_by"] == "stalled"
    return report.value, failed, info


def _usable_cores() -> int:
    """The cores this process may run on: the default table worker count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity query on this platform
        return os.cpu_count() or 1


def table_values(kernel_id: str, mode: str, n_list, d_list, base_seed: int,
                 mc_samples: int, max_iters: int | None, threads: int | None):
    """{(N, D): (E, failed)} over the grid, one independent job per cell."""
    jobs = [(n, d) for n in n_list for d in d_list]

    def run(cell):
        n, d = cell
        kernel = kernel_from_id(kernel_id, d)
        seed = cell_seed(base_seed, n, d)
        if mode == "asymptotic":
            return lattice.asymptotic_discrepancy(kernel.profile, n), False
        if mode == "random":
            return _random_cell_error(kernel, n, seed, mc_samples), False
        value, failed, _ = _optimized_cell(kernel, n, seed, max_iters)
        return value, failed

    threads = threads or _usable_cores()
    if threads == 1:
        results = [run(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, jobs))
    return {job: res for job, res in zip(jobs, results)}


def render_table(kernel_id: str, mode: str, seed: int, n_list, d_list, values,
                 fmt: str) -> str:
    """The ``table_values`` grid as markdown or CSV text."""
    out = io.StringIO()
    if fmt == "markdown":
        out.write(f"# E_K for {kernel_id}, mode={mode}, seed={seed}\n\n")
        out.write("| |" + "|".join(f" D= {d} " for d in d_list) + "|\n")
        out.write("|---" * (len(d_list) + 1) + "|\n")
        for n in n_list:
            cells = []
            for d in d_list:
                v, failed = values[(n, d)]
                cells.append(f" {v:.3f}{'*' if failed else ''} ")
            out.write(f"| N= {n} |" + "|".join(cells) + "|\n")
    else:
        out.write(f"# kernel={kernel_id} mode={mode} seed={seed}\n")
        out.write("N,D,value,value_full,flag\n")
        for n in n_list:
            for d in d_list:
                v, failed = values[(n, d)]
                out.write(f"{n},{d},{v:.3f},{v:.17g},{int(failed)}\n")
    return out.getvalue()


def cmd_table(args) -> int:
    n_list = _parse_int_list(args.N)
    d_list = _parse_int_list(args.D)
    mode = args.mode
    if args.threads is not None and args.threads < 1:
        raise ValueError("--threads must be >= 1")
    kernel0 = kernel_from_id(args.kernel, d_list[0])  # validates the id
    if mode == "asymptotic" and not isinstance(kernel0, PeriodicKernel):
        raise ValueError("asymptotic mode is defined for periodic kernels only")
    values = table_values(args.kernel, mode, n_list, d_list, args.seed,
                          args.mc_samples, args.max_iters, args.threads)
    _emit(args.out, render_table(args.kernel, mode, args.seed, n_list, d_list, values,
                                 args.format))
    return EXIT_OK


def cmd_points(args) -> int:
    if args.N_single < 1 or args.D_single < 1:
        raise ValueError("N and D must be >= 1")
    kernel = kernel_from_id(args.kernel, args.D_single)
    seed = cell_seed(args.seed, args.N_single, args.D_single)
    out = io.StringIO()
    if args.mode == "random":
        pts = uniform_points(seed, args.N_single, args.D_single)
    elif args.mode == "optimized":
        config = OptimizerConfig() if args.max_iters is None else OptimizerConfig(
            max_iterations=args.max_iters)
        pts, report, info = optimize_points(kernel, args.N_single, seed, config)
        out.write(f"# kernel: {args.kernel}\n")
        out.write(f"# N: {args.N_single}\n# D: {args.D_single}\n# seed: {seed}\n")
        out.write(f"# E: {report.value:.17g}\n# method: {report.method}\n")
        for key in ("descent_iterations", "descent_stopped_by", "stage"):
            out.write(f"# {key}: {info[key]}\n")
    else:
        raise ValueError(f"points mode must be random or optimized, not {args.mode!r}")
    out.write(",".join(f"x{d}" for d in range(args.D_single)) + "\n")
    for row in pts.coords:
        out.write(",".join(f"{v:.17g}" for v in row) + "\n")
    _emit(args.out, out.getvalue())
    return EXIT_OK


def cmd_slice(args) -> int:
    if args.resolution < 2:
        raise ValueError("resolution must be >= 2")
    kernel = kernel_from_id(args.kernel, args.D_single)
    t = np.linspace(0.0, 1.0, args.resolution)
    if isinstance(kernel, PeriodicKernel):
        vals = kernel.factor(t)
    else:
        center = np.full((1, kernel.dim), 0.5)
        x = np.repeat(center, args.resolution, axis=0)
        x[:, 0] = t
        vals = kernel.pairwise(x, center)[:, 0]
    out = io.StringIO()
    out.write("t,value\n")
    for ti, vi in zip(t, vals):
        out.write(f"{ti:.17g},{vi:.17g}\n")
    _emit(args.out, out.getvalue())
    return EXIT_OK


def _check_lines() -> list[tuple[str, bool, str]]:
    from . import kernels as _k
    from .optimize import Cond1Problem, box_targets, canonical_grid, cond1_functional, midpoint_1d
    from .rkhs import gram, partition_of_unity

    checks: list[tuple[str, bool, str]] = []

    gen = MT19937(5489)
    first = int(gen.uint32(1)[0])
    checks.append(("mt19937 reference stream", first == 3499211612, f"first draw {first}"))

    u = np.linspace(-1 + 1e-10, 1 - 1e-10, 1001)
    from scipy import special
    rt = np.max(np.abs(special.erf(_k.erfinv(u)) - u))
    checks.append(("erfinv round trip", rt < 1e-12, f"max residual {rt:.2e}"))

    worst = 0.0
    for fam in ("mq", "gauss"):
        kern = PeriodicKernel(fam, 2)
        tt = np.linspace(0, 1, 17)
        series = sum(kern.profile.r(k) * np.cos(2 * math.pi * k * tt) for k in range(-64, 65))
        worst = max(worst, float(np.max(np.abs(kern.factor(tt) - series))))
    checks.append(("poisson series cross-check", worst < 1e-8, f"max err {worst:.2e}"))

    ok = True
    detail = ""
    for kid in ("per-exp", "per-mq", "per-gauss", "per-trunc",
                "tra-exp", "tra-mq", "tra-gauss", "tra-trunc"):
        kern = kernel_from_id(kid, 2)
        pts = uniform_points(7, 16, 2)
        vals = gram(kern, pts).eigenvalues
        if vals[-1] < -1e-8 * vals[0]:
            ok = False
            detail = f"{kid} min eig {vals[-1]:.2e}"
    checks.append(("gram positive semidefinite", ok, detail or "8 kernels, N=16, D=2"))

    spl = SplineKernel(1)
    pts = uniform_points(3, 8, 1)
    theta = partition_of_unity(spl, pts, pts.coords[2])
    kron = float(np.max(np.abs(theta - np.eye(8)[2])))
    checks.append(("partition-of-unity delta", kron < 1e-8, f"max dev {kron:.2e}"))

    e16 = physical_error(spl, midpoint_1d(16), "exact").value
    target = 1.0 / (math.sqrt(12.0) * 16)
    checks.append(("spline midpoint closed form", abs(e16 - target) < 1e-10,
                   f"|E - 1/(sqrt(12) N)| = {abs(e16 - target):.2e}"))

    anchors = [("exp", 16, 1, 0.069), ("exp", 16, 2, 0.143), ("mq", 16, 2, 0.081),
               ("gauss", 16, 2, 0.018), ("exp", 512, 1, 0.002)]
    ok = True
    for fam, n, d, ref in anchors:
        v = lattice.asymptotic_discrepancy(_k.coefficient_profile(fam, d), n)
        ok = ok and abs(v - ref) <= 0.0015
    checks.append(("asymptotic table anchors", ok, f"{len(anchors)} cells"))

    # the orbit-counted partial sum against the sum over listed indices; both
    # walk one orbit search, so this checks the counting and the expansion
    n, dim = 512, 16
    worst = 0.0
    for fam in _k.FAMILIES:
        prof = _k.coefficient_profile(fam, dim)
        listed = math.fsum(t.coefficient for t in lattice.enumerate_decreasing(prof, n))
        worst = max(worst, abs(lattice.partial_sum(prof, n) - listed) / listed)
    checks.append(("partial sum vs enumerated sum", worst < 1e-13,
                   f"max rel diff {worst:.2e}, N={n}, D={dim}"))

    grid = canonical_grid([4, 4])
    prob = Cond1Problem.from_indices(box_targets([4, 4]), 2)
    res = cond1_functional(prob, grid) / grid.n**2
    checks.append(("canonical grid annihilation", res < 1e-9, f"residual {res:.2e}"))

    # on a rank-1 lattice y_n = frac(n z / N) every difference y_n - y_m is
    # again a lattice point, so the Gram mean is (1/N) sum_n K(y_n, 0)
    n, dim = 200, 4
    lat = np.mod(np.outer(np.arange(n), [1, 19, 47, 101]) / n, 1.0)
    worst = 0.0
    for fam in _k.FAMILIES:
        kern = PeriodicKernel(fam, dim)
        ref = float(kern.elementwise(lat, np.zeros_like(lat)).mean())
        worst = max(worst, abs(kern.pair_mean(lat) - ref) / ref)
    checks.append(("gram mean vs rank-1 lattice sum", worst < 1e-13,
                   f"max rel diff {worst:.2e}, N={n}, D={dim}"))

    # the descent's series gradient against central differences of
    # pair_mean, which builds its own features over its own bands
    n, dim, step = 12, 2, 1e-5
    y = uniform_points(11, n, dim).coords
    shifts = step * np.eye(n * dim).reshape(-1, n, dim)
    worst = 0.0
    for fam in ("mq", "gauss"):
        kern = PeriodicKernel(fam, dim)
        grad = kern.log_series_value_grad(y)[1].ravel() / (n * n)
        fd = np.array([kern.pair_mean(y + h) - kern.pair_mean(y - h) for h in shifts]) / (2 * step)
        worst = max(worst, float(np.max(np.abs(grad - fd)) / np.max(np.abs(fd))))
    checks.append(("series gradient vs finite differences", worst < 1e-6,
                   f"max rel diff {worst:.2e}, per-mq and per-gauss, N={n}, D={dim}"))

    # the exact integrals of every tra-* kernel against the shared-sample
    # MC estimator, which shares no algebra with them: within 5 standard errors
    gaps = []
    for fam in _k.FAMILIES:
        for dim in (2, 4):
            kern = _k.TransportedKernel(fam, dim)
            pts = uniform_points(7, 16, dim)
            rep = physical_error(kern, pts, MonteCarlo(2**14, 108))
            exact = physical_error(kern, pts, "exact")
            gaps.append((rep.squared_value - exact.squared_value) / rep.metadata["se_squared"])
    worst = max(gaps, key=abs)
    checks.append(("tra-* MC vs exact integrals", abs(worst) < 5.0,
                   f"largest gap {worst:+.2f} standard errors, 4 families, N=16, D=2,4"))

    return checks


def cmd_check(args) -> int:
    checks = _check_lines()
    lines = []
    failed = 0
    for name, ok, detail in checks:
        status = "ok" if ok else "FAIL"
        failed += 0 if ok else 1
        lines.append(f"[{status}] {name}: {detail}")
    lines.append(f"{len(checks) - failed}/{len(checks)} checks passed")
    _emit(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if failed == 0 else EXIT_NUMERICAL


def _emit(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each
    ``add_argument`` queries the terminal size, so a fresh parser per
    ``main`` call costs more than a small table cell.  Parsing leaves the
    parser unchanged, so every call shares it."""
    parser = argparse.ArgumentParser(
        prog="kerndisc",
        description="Kernel quadrature discrepancy tables, point sets, and checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, draws=True):
        # --seed and --max-iters only where points are drawn and optimized
        p.add_argument("--kernel", required=True,
                       help="kernel id: per-/tra-/seed- + exp|mq|gauss|trunc, or spline")
        if draws:
            p.add_argument("--seed", type=int, default=0, help="base RNG seed")
            p.add_argument("--max-iters", type=int, default=None, dest="max_iters",
                           help="optimizer iteration cap")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_table = sub.add_parser("table", help="E(N, D) table for one kernel")
    common(p_table)
    p_table.add_argument("--mc-samples", type=int, default=2**16, dest="mc_samples",
                         help="Monte-Carlo samples for the random transported-kernel tables")
    p_table.add_argument("--mode", choices=("random", "optimized", "asymptotic"),
                         default="random")
    p_table.add_argument("--N", default=",".join(map(str, DEFAULT_N)),
                         help="comma list of point counts")
    p_table.add_argument("--D", default=",".join(map(str, DEFAULT_D)),
                         help="comma list of dimensions")
    p_table.add_argument("--format", choices=("csv", "markdown"), default="markdown")
    p_table.add_argument("--threads", type=int, default=None,
                         help="worker threads over table cells (default: usable cores)")
    p_table.set_defaults(func=cmd_table)

    p_points = sub.add_parser("points", help="write one point set as CSV")
    common(p_points)
    p_points.add_argument("--mode", choices=("random", "optimized"), default="random")
    p_points.add_argument("--N", type=int, required=True, dest="N_single")
    p_points.add_argument("--D", type=int, required=True, dest="D_single")
    p_points.set_defaults(func=cmd_points)

    p_slice = sub.add_parser("slice", help="1-D kernel slice as CSV")
    common(p_slice, draws=False)
    p_slice.add_argument("--D", type=int, required=True, dest="D_single")
    p_slice.add_argument("--resolution", type=int, default=512)
    p_slice.set_defaults(func=cmd_slice)

    p_check = sub.add_parser("check", help="run fast property checks")
    p_check.add_argument("--out", default=None)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError:
        print("error: out of memory; reduce --N, --D or --mc-samples", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
