"""Point-set optimization: L-BFGS-B descent on E^2, the exponential-sum
annihilation system, canonical grids, and the 1-D closed form.

Descent minimizes the squared discrepancy directly (for periodic kernels
the constant integral terms drop, leaving the mean of the Gram matrix)
with SciPy's L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995).  Each evaluation is
one kernel pass that yields the value and the gradient together, by one
route per periodic family.  mq and gauss take both from the log-series
features of their Gram mean (``PeriodicKernel.log_series_value_grad``).
exp and trunc run over blocks of Gram columns: the Gram block K is the
running product of the factor blocks chi_d, and the gradient comes from
the log-derivative identity dK/dx_d = K chi'_d / chi_d, with chi'/chi
built beside chi (both factors are strictly positive but for the one
zero of trunc at D = 1, which carries the zero subgradient).  Spline
factors vanish on the boundary, so the spline gradient keeps prefix and
suffix products.  The transported objective is E^2 itself, from the
exact integrals of ``TransportedKernel`` and the Gram mean, in the
transported coordinates u = S(x).  The annihilation system drives
I(Y) = sum_n |sum_m exp(2 i pi <y^m, alpha^n>)|^2 to zero over a target
set of nonzero lattice indices, taking the value and the gradient from
one set of exponentials per evaluation; its residual I(Y)/N^2 bounds
the discrepancy head, leaving only the coefficient tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize as _sciopt

from . import lattice
from .discrepancy import DiscrepancyReport, check_array_bytes, periodic_error, physical_error
from .kernels import Kernel, PeriodicKernel, SplineKernel, TransportedKernel
from .lattice import LatticeIndex
from .rkhs import PointSet
from .sampling import uniform_points

__all__ = [
    "OptimizerConfig",
    "DescentTrace",
    "Cond1Problem",
    "Cond1Result",
    "descend_physical",
    "solve_cond1",
    "cond1_functional",
    "cond1_gradient",
    "canonical_grid",
    "box_targets",
    "midpoint_1d",
    "optimize_points",
]

_BOUNDARY_MARGIN = 1e-7  # keeps transported points off the erfinv singularity
# L-BFGS-B stopping tolerances of the descent (memory: SciPy's default maxcor)
_DESCENT_FTOL = 1e-15
_DESCENT_GTOL = 1e-12
# L-BFGS-B exit status -> DescentTrace.stopped_by; any other status is "stalled"
_STOPPED_BY = {0: "converged", 1: "max_iterations"}
# doubles held by the D log-derivative blocks of one column block of the
# periodic gradient pass (32 MB)
_LOGDERIV_DOUBLES = 1 << 22


@dataclass
class OptimizerConfig:
    """The iteration cap of the descent and of the annihilation solve
    (L-BFGS-B ``maxiter``)."""

    max_iterations: int = 10_000

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class DescentTrace:
    """Objective at the start and after each L-BFGS-B iteration.

    The trace is nonincreasing: every line search demands sufficient
    decrease.  ``stopped_by`` is "converged" (L-BFGS-B status 0: the
    objective or projected-gradient tolerance was met), "max_iterations"
    (status 1: the iteration or evaluation cap) or "stalled" (any other
    status, e.g. a line search that can make no further progress).
    """

    objectives: list[float] = field(default_factory=list)
    iterations: int = 0
    stopped_by: str = "max_iterations"


class _Objective:
    """``fun(v)`` gives the value alone; ``grad(v)`` gives (value,
    gradient) from one kernel pass, in the descent variable v.  ``bounds``
    is the box of v, None for the periodic torus; ``variable`` maps cube
    coordinates to v and ``points`` maps v back (default: v = y)."""

    def __init__(self, fun, grad, bounds: _sciopt.Bounds | None, variable=None, points=None):
        self.fun = fun
        self.grad = grad
        self.bounds = bounds
        self.variable = variable or (lambda y: y)
        self.points = points or (lambda v: v)


def _tensor_pair_grad(n: int, dim: int, factor_fn, prime_fn) -> tuple[float, np.ndarray]:
    """The Gram sum and the gradient row-sums over ordered pairs, for
    factors that may vanish (the spline kernel).

    Returns (sum_{m,m'} prod_e g_e, 2 sum_m g'_d prod_{e != d} g_e).
    factor_fn/prime_fn(d, cols) evaluate the per-dimension factor and its
    derivative between all n points and the points in the slice
    ``cols``; the suffix products end in the Gram block itself, so the
    sum costs no extra factor evaluation.  The diagonal pair (constant in
    y) is masked from the gradient.  Columns are blocked so memory stays
    near dim * n * block doubles.
    """
    total = 0.0
    grad = np.zeros((n, dim))
    block = max(1, min(n, (1 << 24) // max(1, dim * n)))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        cols = slice(lo, hi)
        factors = [factor_fn(d, cols) for d in range(dim)]
        idx = np.arange(lo, hi)
        suffixes = [None] * dim
        running = np.ones((n, hi - lo))
        for e in range(dim - 1, -1, -1):
            suffixes[e] = running
            running = running * factors[e]
        total += float(running.sum())
        prefix = np.ones((n, hi - lo))
        for d in range(dim):
            contrib = prime_fn(d, cols) * prefix * suffixes[d]
            contrib[idx, idx - lo] = 0.0
            grad[:, d] += 2.0 * contrib.sum(axis=1)
            prefix = prefix * factors[d]
    return total, grad


def _periodic_objective(kernel: PeriodicKernel, n: int) -> _Objective:
    every = slice(None)
    dim = kernel.dim
    block = max(1, min(n, _LOGDERIV_DOUBLES // (dim * n)))

    def fun(y: np.ndarray) -> float:
        return kernel.pair_mean(y) - 1.0

    def tile_value_grad(y: np.ndarray) -> tuple[float, np.ndarray]:
        # log-derivative pass: dK/dx_d = K chi'_d / chi_d over a column
        # block, with K the running product of the factor blocks.  The
        # diagonal pair needs no mask: chi'/chi is exactly 0 at t = 0.
        setup = kernel.gram_setup(y)
        total = 0.0
        g = np.zeros((n, dim))
        for lo in range(0, n, block):
            cols = slice(lo, min(lo + block, n))
            ratios = [None] * dim
            gram, ratios[-1] = kernel.factor_logderiv_block(setup, dim - 1, every, cols)
            for d in range(dim - 2, -1, -1):
                chi, ratios[d] = kernel.factor_logderiv_block(setup, d, every, cols)
                gram *= chi
            total += float(gram.sum())
            for d, ratio in enumerate(ratios):
                g[:, d] += 2.0 * np.einsum("ij,ij->i", gram, ratio)
        return total, g

    value_grad = tile_value_grad
    if kernel.record.log_series is not None:
        # the series pass's N x D x K complex features, refused up front
        check_array_bytes(n * dim * len(kernel.record.log_series[1]), 16,
                          f"the log-series features of {n} points at D={dim}")
        value_grad = kernel.log_series_value_grad

    def grad(y: np.ndarray) -> tuple[float, np.ndarray]:
        total, g = value_grad(y)
        return total / (n * n) - 1.0, g / (n * n)

    return _Objective(fun, grad, None, points=lambda y: np.mod(y, 1.0))


def _spline_objective(kernel: SplineKernel, n: int) -> _Objective:
    def fun(y: np.ndarray) -> float:
        return (kernel.integral_double() + kernel.pair_mean(y)
                - 2.0 * float(kernel.integral_single(y).mean()))

    def grad(y: np.ndarray) -> tuple[float, np.ndarray]:
        def factor_fn(d, cols):
            xd = y[:, d, None]
            yd = y[None, cols, d]
            return np.minimum(xd, yd) - xd * yd

        def prime_fn(d, cols):
            xd = y[:, d, None]
            yd = y[None, cols, d]
            return (xd < yd).astype(float) - yd

        total, g = _tensor_pair_grad(n, kernel.dim, factor_fn, prime_fn)
        g /= n * n
        # diagonal Gram entries prod (y - y^2) and the single integrals
        # prod y(1-y)/2 both depend on y
        for d in range(kernel.dim):
            others_diag = np.ones(y.shape[0])
            others_int = np.ones(y.shape[0])
            for e in range(kernel.dim):
                if e == d:
                    continue
                others_diag *= y[:, e] - y[:, e] ** 2
                others_int *= y[:, e] * (1.0 - y[:, e]) / 2.0
            deriv = 1.0 - 2.0 * y[:, d]
            g[:, d] += deriv * others_diag / (n * n)
            g[:, d] -= (2.0 / n) * (deriv / 2.0) * others_int
        value = (kernel.integral_double() + total / (n * n)
                 - 2.0 * float(kernel.integral_single(y).mean()))
        return value, g

    return _Objective(fun, grad, _sciopt.Bounds(0.0, 1.0))


def _transported_objective(kernel: TransportedKernel, n: int) -> _Objective:
    # the descent variable is u = S(x): in x, the chain factor S'(x) = sqrt(pi)
    # e^{u^2}, 1.8 to 1.3e6 over the box, stalls L-BFGS-B near the faces
    check_array_bytes(n * n, 8, f"the kernel matrix of {n} points")  # per evaluation
    double = kernel.integral_double()
    box = (_BOUNDARY_MARGIN, 1.0 - _BOUNDARY_MARGIN)

    def fun(u: np.ndarray) -> float:
        return (double + float(kernel.kernel_mapped(u, u).mean())
                - 2.0 * float(kernel.integral_single_mapped(u)[0].mean()))

    def grad(u: np.ndarray) -> tuple[float, np.ndarray]:
        rows, g_pair = kernel.grad_sum_mapped(u)
        singles, g_single = kernel.integral_single_mapped(u)
        value = double + float(rows.sum()) / (n * n) - 2.0 * float(singles.mean())
        return value, 2.0 / (n * n) * g_pair - 2.0 / n * g_single

    return _Objective(fun, grad, _sciopt.Bounds(*kernel.transport.apply(np.array(box))),
                      kernel.transport.apply,
                      lambda u: np.clip(kernel.transport.inverse(u), *box))


def build_objective(kernel: Kernel, n: int) -> _Objective:
    if isinstance(kernel, PeriodicKernel):
        return _periodic_objective(kernel, n)
    if isinstance(kernel, SplineKernel):
        return _spline_objective(kernel, n)
    if isinstance(kernel, TransportedKernel):
        return _transported_objective(kernel, n)
    raise ValueError(f"no descent objective for kernel {kernel.kernel_id!r}")


def descend_physical(kernel: Kernel, start: PointSet,
                     config: OptimizerConfig | None = None,
                     ) -> tuple[PointSet, DiscrepancyReport, DescentTrace]:
    """One L-BFGS-B run on the squared discrepancy from ``start``.

    Each evaluation is one call of the objective's fused ``grad``.
    Periodic kernels descend without bounds and the result is wrapped
    mod 1; spline points stay in [0, 1]; transported kernels descend in
    u = S(x), and their points stay in [_BOUNDARY_MARGIN, 1 -
    _BOUNDARY_MARGIN].  A non-finite gradient raises FloatingPointError.

    Returns the improved point set, its discrepancy report
    (``periodic_error`` for a periodic kernel, ``physical_error(...,
    "exact")`` for the spline and transported ones), and the objective
    trace.
    """
    config = config or OptimizerConfig()
    if kernel.dim != start.dim:
        raise ValueError("kernel/point dimension mismatch")
    shape = start.coords.shape
    obj = build_objective(kernel, start.n)
    trace = DescentTrace()

    def value_and_grad(flat: np.ndarray) -> tuple[float, np.ndarray]:
        value, g = obj.grad(flat.reshape(shape))
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient at iteration {trace.iterations}")
        if not trace.objectives:
            trace.objectives.append(value)  # L-BFGS-B evaluates the start first
        return value, g.ravel()

    def record(intermediate_result) -> None:
        trace.iterations += 1
        trace.objectives.append(float(intermediate_result.fun))

    out = _sciopt.minimize(
        value_and_grad, obj.variable(start.coords).ravel(), jac=True, method="L-BFGS-B",
        bounds=obj.bounds, callback=record,
        options={"maxiter": config.max_iterations, "ftol": _DESCENT_FTOL,
                 "gtol": _DESCENT_GTOL},
    )
    trace.stopped_by = _STOPPED_BY.get(out.status, "stalled")
    points = PointSet(obj.points(out.x.reshape(shape)))
    if isinstance(kernel, PeriodicKernel):
        return points, periodic_error(kernel, points), trace
    return points, physical_error(kernel, points, "exact"), trace


# exponential-sum annihilation -------------------------------------------------

@dataclass(frozen=True)
class Cond1Problem:
    """Annihilation targets: nonzero lattice indices whose exponential
    sums over the point set should vanish."""

    targets: np.ndarray  # (k, dim) integer array
    dim: int

    @staticmethod
    def from_indices(indices, dim: int) -> "Cond1Problem":
        rows = []
        for idx in indices:
            if isinstance(idx, LatticeIndex):
                if idx.dim != dim:
                    raise ValueError("target index dimension mismatch")
                row = idx.dense()
            else:
                row = tuple(int(v) for v in np.atleast_1d(idx))
                if len(row) != dim:
                    raise ValueError("target index dimension mismatch")
            if not any(row):
                raise ValueError("targets must be nonzero lattice indices")
            rows.append(row)
        if not rows:
            raise ValueError("at least one target is required")
        return Cond1Problem(np.array(rows, dtype=float), dim)


@dataclass
class Cond1Result:
    points: PointSet
    residual: float
    infeasible: bool = False
    iterations: int = 0
    converged: bool = False


def _check_cond1_size(problem: Cond1Problem, y: np.ndarray) -> None:
    # the (points, targets) complex arrays of the sums and the gradient
    check_array_bytes(y.shape[0] * problem.targets.shape[0], 16,
                      f"{y.shape[0]} points x {problem.targets.shape[0]} cond1 targets")


def _cond1_terms(problem: Cond1Problem, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (points, targets) exponentials e and their sums s over the points."""
    _check_cond1_size(problem, y)
    phases = 2.0 * math.pi * (y @ problem.targets.T)
    e = np.exp(1j * phases)
    return e, e.sum(axis=0)


def _cond1_grad_from_terms(problem: Cond1Problem, e: np.ndarray, s: np.ndarray) -> np.ndarray:
    # d|S_k|^2 / dy_nd = -4 pi alpha_kd Im(conj(S_k) e_{nk})
    w = np.imag(np.conj(s)[None, :] * e)  # (n, k)
    return -4.0 * math.pi * (w @ problem.targets)


def cond1_functional(problem: Cond1Problem, points: PointSet | np.ndarray) -> float:
    """I(Y) = sum over targets of |sum_m exp(2 i pi <y^m, alpha>)|^2."""
    y = points.coords if isinstance(points, PointSet) else np.asarray(points, dtype=float)
    _, s = _cond1_terms(problem, y)
    return float(np.sum(np.abs(s) ** 2))


def cond1_gradient(problem: Cond1Problem, points: PointSet | np.ndarray) -> np.ndarray:
    """Real gradient of I(Y) with respect to the point coordinates."""
    y = points.coords if isinstance(points, PointSet) else np.asarray(points, dtype=float)
    e, s = _cond1_terms(problem, y)
    return _cond1_grad_from_terms(problem, e, s)


def solve_cond1(problem: Cond1Problem, start: PointSet,
                config: OptimizerConfig | None = None) -> Cond1Result:
    """Minimize I(Y) by L-BFGS with the analytic gradient.

    Success means residual I(Y)/N^2 below 1e-8.  With a single point and
    any nonzero target the system is infeasible (a unit-modulus
    exponential cannot vanish); the result carries the residual floor
    and an infeasibility flag.
    """
    config = config or OptimizerConfig(max_iterations=20_000)
    if start.dim != problem.dim:
        raise ValueError("problem/point dimension mismatch")
    n = start.n
    if n == 1:
        res = cond1_functional(problem, start) / (n * n)
        return Cond1Result(points=start, residual=res, infeasible=True)

    def fun(flat: np.ndarray):
        # value and gradient from one set of exponentials
        e, s = _cond1_terms(problem, flat.reshape(n, problem.dim))
        return float(np.sum(np.abs(s) ** 2)), _cond1_grad_from_terms(problem, e, s).ravel()

    out = _sciopt.minimize(
        fun, start.coords.ravel(), jac=True, method="L-BFGS-B",
        options={"maxiter": config.max_iterations, "ftol": 1e-18, "gtol": 1e-14,
                 "maxcor": 20},
    )
    y = np.mod(out.x.reshape(n, problem.dim), 1.0)
    residual = cond1_functional(problem, y) / (n * n)
    return Cond1Result(points=PointSet(y), residual=residual,
                       iterations=int(out.nit), converged=residual < 1e-8)


def canonical_grid(resolutions) -> PointSet:
    """Tensor grid y^n = (n_d / R_d) with mixed-radix index n.

    For every nonzero lattice index in the box 0 <= alpha_d < R_d the
    exponential sum over the grid vanishes identically.
    """
    rs = [int(r) for r in resolutions]
    if any(r < 1 for r in rs):
        raise ValueError("grid resolutions must be >= 1")
    n_total = math.prod(rs)
    if n_total > 10**7:
        raise ValueError("grid too large (over 1e7 points)")
    # np.indices over the reversed radices varies the last axis fastest,
    # so reversing back puts n_0 first, the fastest digit of n
    coords = np.indices(rs[::-1]).reshape(len(rs), -1)[::-1].T / np.array(rs, dtype=float)
    return PointSet(coords)


def box_targets(resolutions) -> list[LatticeIndex]:
    """The nonzero lattice indices of the box 0 <= alpha_d < R_d."""
    rs = [int(r) for r in resolutions]
    dim = len(rs)
    out = []
    for n in range(math.prod(rs)):
        rem = n
        entry = {}
        for d, r in enumerate(rs):
            v = rem % r
            rem //= r
            if v:
                entry[d] = v
        if entry:
            out.append(LatticeIndex.make(dim, entry))
    return out


def midpoint_1d(n: int) -> PointSet:
    """The 1-D midpoints (2n - 1) / 2N, sorted."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return PointSet(((2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)).reshape(-1, 1))


def _cond1_targets_for(kernel: PeriodicKernel, n: int) -> Cond1Problem:
    terms = lattice.enumerate_decreasing(kernel.profile, n + 1)
    return Cond1Problem.from_indices([t.index for t in terms[1:]], kernel.dim)


def optimize_points(kernel: Kernel, n: int, seed: int,
                    config: OptimizerConfig | None = None,
                    ) -> tuple[PointSet, DiscrepancyReport, dict]:
    """The full optimized-points pipeline for one table cell.

    Random start, L-BFGS-B descent, then (periodic kernels) refinement by
    the annihilation system over the N largest nonzero-coefficient
    indices, keeping whichever point set scores better.  The report is
    exact for every kernel: ``periodic_error`` or ``physical_error(...,
    "exact")``.
    """
    config = config or OptimizerConfig()
    start = uniform_points(seed, n, kernel.dim)
    info: dict = {"seed": seed}
    points, report, trace = descend_physical(kernel, start, config)
    info["descent_iterations"] = trace.iterations
    info["descent_stopped_by"] = trace.stopped_by

    if isinstance(kernel, SplineKernel) and kernel.dim == 1:
        # the 1-D optimum is the equally-spaced family; descent lands on
        # an arbitrary shift of it, so prefer the symmetric representative
        mids = midpoint_1d(n)
        mid_rep = physical_error(kernel, mids, "exact")
        if mid_rep.value <= report.value + 1e-14:
            points, report = mids, mid_rep

    if isinstance(kernel, PeriodicKernel) and n > 1:
        problem = _cond1_targets_for(kernel, n)
        refined = solve_cond1(problem, points, config)
        info["cond1_residual"] = refined.residual
        candidate = periodic_error(kernel, refined.points)
        if candidate.value < report.value:
            points, report = refined.points, candidate

    return points, report, info
