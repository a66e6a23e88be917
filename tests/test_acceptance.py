"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Everything is
deterministic: base seed 0, per-cell seeds base + 1000003 D + N, and
per-replicate offsets 7919 i.  The statistics and optimization criteria
take a few minutes.
"""

import math
import time

import numpy as np
import pytest
from scipy import special

from kerndisc.discrepancy import (MonteCarlo, periodic_error, periodic_error_sp, physical_error,
                                  spectral_error)
from kerndisc.kernels import (FAMILIES, PeriodicKernel, SplineKernel, TransportedKernel,
                              coefficient_profile, erfinv, kernel_from_id)
from kerndisc.lattice import asymptotic_discrepancy, enumerate_decreasing, tail_mass
from kerndisc.optimize import (Cond1Problem, OptimizerConfig, box_targets, build_objective,
                               canonical_grid, cond1_functional, cond1_gradient, midpoint_1d,
                               optimize_points, solve_cond1)
from kerndisc.rkhs import NormParams, PointSet, gram, partition_of_unity, project
from kerndisc.sampling import cell_seed, uniform_points

N_GRID = (16, 32, 64, 128, 256, 512)
D_GRID = (1, 2, 4, 8, 16, 32, 64, 128)
BASE_SEED = 0

# the reference asymptotic tables (3 decimals), rows N in N_GRID,
# columns D in D_GRID; the truncated table is excluded (documented open
# calibration question)
ASYMPTOTIC_TABLES = {
    "exp": [
        [0.069, 0.143, 0.202, 0.245, 0.288, 0.308, 0.318, 0.323],
        [0.034, 0.082, 0.129, 0.157, 0.179, 0.207, 0.220, 0.226],
        [0.017, 0.046, 0.078, 0.102, 0.116, 0.129, 0.147, 0.156],
        [0.009, 0.026, 0.048, 0.067, 0.077, 0.084, 0.092, 0.105],
        [0.004, 0.014, 0.029, 0.042, 0.052, 0.056, 0.060, 0.066],
        [0.002, 0.008, 0.018, 0.027, 0.034, 0.038, 0.040, 0.043],
    ],
    "mq": [
        [0.004, 0.081, 0.171, 0.207, 0.272, 0.301, 0.314, 0.321],
        [0.000, 0.027, 0.092, 0.134, 0.148, 0.194, 0.213, 0.223],
        [0.000, 0.005, 0.044, 0.085, 0.100, 0.105, 0.137, 0.151],
        [0.000, 0.001, 0.017, 0.043, 0.067, 0.073, 0.075, 0.097],
        [0.000, 0.000, 0.008, 0.025, 0.043, 0.050, 0.052, 0.053],
        [0.000, 0.000, 0.003, 0.014, 0.021, 0.034, 0.036, 0.037],
    ],
    "gauss": [
        [0.000, 0.018, 0.145, 0.198, 0.270, 0.300, 0.314, 0.321],
        [0.000, 0.000, 0.052, 0.126, 0.145, 0.193, 0.213, 0.223],
        [0.000, 0.000, 0.012, 0.077, 0.097, 0.104, 0.137, 0.151],
        [0.000, 0.000, 0.002, 0.032, 0.065, 0.072, 0.074, 0.097],
        [0.000, 0.000, 0.000, 0.020, 0.041, 0.050, 0.052, 0.053],
        [0.000, 0.000, 0.000, 0.008, 0.018, 0.033, 0.036, 0.037],
    ],
}


def report(num: int, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {detail}")
    assert passed, detail


def test_criterion_1_spline_closed_form():
    t0 = time.time()
    worst_phys = 0.0
    worst_spec = 0.0
    spline = SplineKernel(1)
    for n in N_GRID:
        mids = midpoint_1d(n)
        target = 1.0 / (math.sqrt(12.0) * n)
        phys = physical_error(spline, mids, "exact").value
        worst_phys = max(worst_phys, abs(phys - target))
        spec = spectral_error(mids, NormParams(1, 2), max_index=10_000,
                              exact_tail_period=4 * n).value
        worst_spec = max(worst_spec, abs(spec - phys))
    # the documented N=1 hand computation: E^2 = 1/12 + 1/4 - 1/4 = 1/12
    one = physical_error(spline, PointSet(np.array([[0.5]])), "exact")
    elapsed = time.time() - t0
    ok = (worst_phys <= 1e-10 and worst_spec <= 1e-6
          and abs(one.squared_value - 1.0 / 12.0) < 1e-15 and elapsed < 1.0)
    report(1, ok, f"|E - 1/(sqrt(12)N)| <= {worst_phys:.2e}, "
                  f"|spectral - physical| <= {worst_spec:.2e}, {elapsed:.2f}s")


def test_criterion_2_asymptotic_golden_tables():
    t0 = time.time()
    worst = 0.0
    cells = 0
    for fam, table in ASYMPTOTIC_TABLES.items():
        for i, n in enumerate(N_GRID):
            for j, d in enumerate(D_GRID):
                value = asymptotic_discrepancy(coefficient_profile(fam, d), n)
                worst = max(worst, abs(value - table[i][j]))
                cells += 1
    elapsed = time.time() - t0
    ok = worst <= 0.0015 and cells == 144 and elapsed < 30.0
    report(2, ok, f"{cells} cells, max |diff| = {worst:.4f} (tol 0.0015), {elapsed:.1f}s")


def test_criterion_3_random_baseline_statistics():
    t0 = time.time()
    violations = []
    worst_t = 0.0
    for fam in FAMILIES:
        for d in D_GRID:
            kernel = PeriodicKernel(fam, d)
            law_base = kernel.diagonal() - 1.0
            for n in N_GRID:
                vals = np.empty(20)
                for i in range(20):
                    seed = (cell_seed(BASE_SEED, n, d) + 7919 * i) % 2**32
                    pts = uniform_points(seed, n, d)
                    vals[i] = periodic_error(kernel, pts).squared_value
                se = vals.std(ddof=1) / math.sqrt(20)
                tstat = abs(vals.mean() - law_base / n) / se
                worst_t = max(worst_t, tstat)
                if tstat > 3.0:
                    violations.append((fam, n, d, round(tstat, 2)))
    # spot anchor: exponential (512, 128) prints 0.059 in the reference
    kernel = PeriodicKernel("exp", 128)
    anchor_vals = [periodic_error(kernel, uniform_points(
        (cell_seed(BASE_SEED, 512, 128) + 7919 * i) % 2**32, 512, 128)).squared_value
        for i in range(20)]
    anchor = math.sqrt(float(np.mean(anchor_vals)))
    elapsed = time.time() - t0
    ok = (not violations and abs(anchor - 0.058) < 0.002
          and abs(anchor - 0.059) < 0.002 and elapsed < 300.0)
    report(3, ok, f"192 cells x 20 seeds within 3 SE (max |t| = {worst_t:.2f}), "
                  f"anchor E(512,128) = {anchor:.4f} ~ 0.059, {elapsed:.0f}s"
                  + (f"; violations: {violations}" if violations else ""))


def test_criterion_4_optimized_beats_random():
    t0 = time.time()
    # 300 L-BFGS-B descent iterations suffice: the smooth kernels often
    # reach the cap still improving, but the annihilation refinement does
    # the deep reduction and the margins over random are wide
    config = OptimizerConfig(max_iterations=300)
    failures = []
    exp_d1 = {}
    for fam in FAMILIES:
        for d in (1, 2, 4, 8):
            kernel = PeriodicKernel(fam, d)
            for n in (16, 32, 64, 128, 256):
                seed = cell_seed(BASE_SEED, n, d)
                _, rep, _ = optimize_points(kernel, n, seed, config)
                random_rep = periodic_error(kernel, uniform_points(seed, n, d))
                if not rep.value < random_rep.value:
                    failures.append((fam, n, d, rep.value, random_rep.value))
                if fam == "exp" and d == 1:
                    exp_d1[n] = rep.value
    rate_ok = all(abs(exp_d1[n] * n - 1.0) <= 0.02 for n in exp_d1)
    elapsed = time.time() - t0
    ok = not failures and rate_ok and elapsed < 900.0
    rates = {n: round(v * n, 4) for n, v in exp_d1.items()}
    report(4, ok, f"80 cells optimized < random, exp D=1 N*E = {rates} "
                  f"(within 2% of 1), {elapsed:.0f}s"
                  + (f"; failures: {failures}" if failures else ""))


def test_criterion_5_annihilation_solver():
    t0 = time.time()
    grid_ok = True
    for res in ([4], [2, 2], [3, 2], [4, 4]):
        grid = canonical_grid(res)
        prob = Cond1Problem.from_indices(box_targets(res), len(res))
        if cond1_functional(prob, grid) / grid.n**2 >= 1e-9:
            grid_ok = False
    solver_rows = []
    bound_ok = True
    for fam in FAMILIES:
        kernel = PeriodicKernel(fam, 2)
        for n in (16, 64):
            terms = enumerate_decreasing(kernel.profile, n + 1)
            prob = Cond1Problem.from_indices([t.index for t in terms[1:]], 2)
            best = None
            for attempt in range(3):
                start = uniform_points((cell_seed(1000, n, 2) + 13 * attempt) % 2**32, n, 2)
                result = solve_cond1(prob, start)
                if best is None or result.residual < best.residual:
                    best = result
                if best.residual < 1e-8:
                    break
            solver_rows.append((fam, n, best.residual))
            e2 = periodic_error(kernel, best.points).squared_value
            if not e2 <= tail_mass(kernel.profile, n) * (1 + 1e-6) + 1e-10:
                bound_ok = False
    worst_res = max(r for _, _, r in solver_rows)
    elapsed = time.time() - t0
    ok = grid_ok and worst_res < 1e-8 and bound_ok
    report(5, ok, f"grids annihilate, solver residual <= {worst_res:.1e} on 8 cells, "
                  f"E^2 within coefficient tail, {elapsed:.0f}s")


def _series_vs_closed_form(fam: str, dim: int, tol_target: float) -> float:
    """Max |closed form - Fourier series| with the series summed far
    enough that the analytic tail is below tol_target / 2."""
    kernel = PeriodicKernel(fam, dim)
    prof = kernel.profile
    ts = np.array([0.13, 0.5, 0.82])
    series = np.ones_like(ts)
    partial = 1.0
    k0 = 1
    chunk = 1 << 21
    while prof.per_dim_total - partial > tol_target / 2.0:
        ks = np.arange(k0, k0 + chunk, dtype=float)
        if fam == "exp":
            r = 1.0 / (1.0 + (4.0 * math.pi**2 / kernel.record.tau**2) * ks * ks)
        else:
            raise NotImplementedError
        partial += 2.0 * float(r.sum())
        series = series + 2.0 * (np.cos(2.0 * math.pi * np.outer(ts, ks)) @ r)
        k0 += chunk
        if k0 > 1 << 29:
            raise RuntimeError("series did not reach the target tail")
    return float(np.max(np.abs(kernel.factor(ts) - series)))


def test_criterion_6_formulation_equivalence():
    t0 = time.time()
    # closed form (Gram mean - 1) vs the lattice-Fourier sum over the
    # largest coefficients: the difference is the omitted tail, so it
    # must lie in [0, tail_bound] up to rounding
    worst_low = 0.0  # most negative closed - lattice
    worst_high = -math.inf  # largest (closed - lattice) - tail_bound
    for fam in FAMILIES:
        for d in (1, 2, 4):
            kernel = PeriodicKernel(fam, d)
            for n in (16, 64):
                pts = uniform_points(cell_seed(7, n, d), n, d)
                closed = periodic_error(kernel, pts).squared_value
                sp = periodic_error_sp(kernel, pts, NormParams(1, 2))
                gap = closed - sp.squared_value
                worst_low = min(worst_low, gap)
                worst_high = max(worst_high, gap - sp.metadata["tail_bound"])
    # Poisson cross-check of the closed forms against the coefficient series
    worst_series = 0.0
    for fam in ("mq", "gauss"):
        for d in (1, 2):
            kernel = PeriodicKernel(fam, d)
            ts = np.linspace(0.0, 1.0, 17)
            series = sum(kernel.profile.r(k) * np.cos(2 * math.pi * k * ts)
                         for k in range(-64, 65))
            worst_series = max(worst_series, float(np.max(np.abs(kernel.factor(ts) - series))))
    for d in (1, 2):
        worst_series = max(worst_series, _series_vs_closed_form("exp", d, 1e-8))
    # truncated kernel: the periodization is a finite sum, exact
    worst_trunc = 0.0
    for d in (1, 2):
        kernel = PeriodicKernel("trunc", d)
        tau = kernel.record.tau
        ts = np.linspace(0.0, 1.0, 33)
        direct = tau * sum(np.maximum(1 - tau * np.abs(ts + a), 0.0) for a in (-1, 0, 1))
        worst_trunc = max(worst_trunc, float(np.max(np.abs(kernel.factor(ts) - direct))))
    # spectral vs physical for the spline kernel
    worst_spec = 0.0
    mids = midpoint_1d(32)
    worst_spec = max(worst_spec, abs(
        spectral_error(mids, NormParams(1, 2), 10_000, exact_tail_period=128).value
        - physical_error(SplineKernel(1), mids, "exact").value))
    rand = uniform_points(99, 16, 1)
    worst_spec = max(worst_spec, abs(
        spectral_error(rand, NormParams(1, 2), 2_000_000).value
        - physical_error(SplineKernel(1), rand, "exact").value))
    elapsed = time.time() - t0
    ok = worst_low >= -1e-12 and worst_high <= 1e-12 and worst_series <= 1e-8 \
        and worst_trunc <= 1e-12 and worst_spec <= 1e-6
    report(6, ok, f"closed - lattice >= {worst_low:.1e}, <= tail bound {worst_high:+.1e}, "
                  f"series to {worst_series:.1e}, "
                  f"truncated exact to {worst_trunc:.1e}, spectral to {worst_spec:.1e}, "
                  f"{elapsed:.0f}s")


def test_criterion_7_property_suites():
    t0 = time.time()
    kernel_ids = [f"{loc}-{fam}" for loc in ("per", "tra") for fam in FAMILIES]
    # Gram PSD across the eight kernels
    min_ratio = math.inf
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for kid in kernel_ids:
            for d in (1, 2, 4):
                kernel = kernel_from_id(kid, d)
                for seed in range(20):
                    for n in (8, 32):
                        pts = uniform_points(2000 + 31 * seed + n, n, d)
                        vals = gram(kernel, pts).eigenvalues
                        min_ratio = min(min_ratio, vals[-1] / vals[0])
    psd_ok = min_ratio > -1e-8
    # partition of unity and projection idempotence
    kernel = PeriodicKernel("exp", 2)
    pts = uniform_points(5, 12, 2)
    g = gram(kernel, pts)
    kron = max(float(np.max(np.abs(partition_of_unity(kernel, pts, pts.coords[m], g)
                                   - np.eye(12)[m]))) for m in range(12))
    rng = np.random.default_rng(0)
    f_values = rng.standard_normal(12)
    a = project(kernel, pts, f_values, g)
    a2 = project(kernel, pts, g.matrix @ a, g)
    idem = float(np.max(np.abs(a2 - a)))
    # analytic vs finite-difference gradients
    worst_grad = 0.0
    for kid in ("per-exp", "per-mq", "per-gauss", "per-trunc", "spline", "tra-gauss"):
        kernel = kernel_from_id(kid, 2)
        obj = build_objective(kernel, 10)
        y = 0.05 + 0.9 * rng.random((10, 2))
        _, gvec = obj.grad(y)
        for _ in range(6):
            i, d = rng.integers(10), rng.integers(2)
            yp = y.copy()
            yp[i, d] += 1e-6
            ym = y.copy()
            ym[i, d] -= 1e-6
            fd = (obj.fun(yp) - obj.fun(ym)) / 2e-6
            scale = max(abs(fd), abs(gvec[i, d]), 1e-9)
            worst_grad = max(worst_grad, abs(fd - gvec[i, d]) / scale)
    # annihilation-functional gradient
    prob = Cond1Problem.from_indices([(1, 0), (0, 1), (2, -1)], 2)
    y = rng.random((5, 2))
    gvec = cond1_gradient(prob, y)
    for _ in range(6):
        i, d = rng.integers(5), rng.integers(2)
        yp = y.copy()
        yp[i, d] += 1e-6
        ym = y.copy()
        ym[i, d] -= 1e-6
        fd = (cond1_functional(prob, yp) - cond1_functional(prob, ym)) / 2e-6
        worst_grad = max(worst_grad, abs(fd - gvec[i, d]) / max(abs(fd), 1e-9))
    # erfinv round trip
    u = np.linspace(-1 + 1e-10, 1 - 1e-10, 20_001)
    rt = float(np.max(np.abs(special.erf(erfinv(u)) - u)))
    elapsed = time.time() - t0
    ok = psd_ok and kron <= 1e-8 and idem <= 1e-8 and worst_grad <= 1e-5 and rt <= 1e-12
    report(7, ok, f"PSD min ratio {min_ratio:.1e}, kronecker {kron:.1e}, "
                  f"idempotence {idem:.1e}, grad-vs-FD {worst_grad:.1e}, "
                  f"erfinv round trip {rt:.1e}, {elapsed:.0f}s")


def test_criterion_8_transported_mc_pipeline():
    t0 = time.time()
    kernel = TransportedKernel("gauss", 2)
    n = 64
    seed = cell_seed(BASE_SEED, n, 2)
    pts = uniform_points(seed, n, 2)
    reps = [physical_error(kernel, pts, MonteCarlo(2**16, 40_000 + i)) for i in range(200)]
    estimates = np.array([r.squared_value for r in reps])
    ses = np.array([r.metadata["se_squared"] for r in reps])
    pooled = estimates.mean()
    coverage = float(np.mean(np.abs(estimates - pooled) <= 2.0 * ses))
    # optimize on the exact integrals, then compare optimized vs random
    # with the full 2^16-sample estimator the criterion states
    opt_pts, _, _ = optimize_points(kernel, n, seed, OptimizerConfig(max_iterations=250))
    opt_rep = physical_error(kernel, opt_pts, MonteCarlo(2**16, 99))
    base = physical_error(kernel, pts, MonteCarlo(2**16, 99))
    improvement = 1.0 - opt_rep.value / base.value
    elapsed = time.time() - t0
    ok = 0.90 <= coverage <= 0.99 and improvement >= 0.20
    report(8, ok, f"SE coverage {coverage:.3f} in [0.90, 0.99], optimized improves "
                  f"{improvement * 100:.0f}% (>= 20%), {elapsed:.0f}s")
