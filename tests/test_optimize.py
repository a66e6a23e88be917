import math
import tracemalloc

import numpy as np
import pytest

from kerndisc import cli
from kerndisc.discrepancy import MonteCarlo, periodic_error, physical_error
from kerndisc.kernels import (_SERIES_BAND_DOUBLES, FAMILIES, PeriodicKernel, SplineKernel,
                              TransportedKernel, kernel_from_id)
from kerndisc.lattice import enumerate_decreasing, tail_mass
from kerndisc.optimize import (Cond1Problem, OptimizerConfig, box_targets, build_objective,
                               canonical_grid, cond1_functional, cond1_gradient,
                               descend_physical, lattice_points, midpoint_1d, optimize_points,
                               solve_cond1)
from kerndisc.rkhs import PointSet
from kerndisc.sampling import uniform_points


def central_difference(fun, y, i, d, h=1e-6):
    yp = y.copy()
    yp[i, d] += h
    ym = y.copy()
    ym[i, d] -= h
    return (fun(yp) - fun(ym)) / (2 * h)


@pytest.mark.parametrize("fam", FAMILIES)
def test_periodic_gradient_matches_fd(fam):
    for dim in (1, 2, 8):
        obj = build_objective(PeriodicKernel(fam, dim), 10)
        rng = np.random.default_rng(fam.__hash__() % 100 + dim)
        y = 0.05 + 0.9 * rng.random((10, dim))
        _, g = obj.grad(y)
        for _ in range(10):
            i, d = rng.integers(10), rng.integers(dim)
            fd = central_difference(obj.fun, y, i, d)
            assert g[i, d] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def dense_periodic_gradient(kernel, y):
    """2/N^2 sum_j chi'(y_id - y_jd) prod_{e != d} chi(y_ie - y_je), j != i,
    from the scalar closed forms on the full (D, N, N) difference stack."""
    n, dim = y.shape
    diff = np.moveaxis(y[:, None, :] - y[None, :, :], -1, 0)
    factors = kernel.factor(diff)
    # products over e < d and over e > d
    before = np.cumprod(np.concatenate([np.ones((1, n, n)), factors[:-1]]), axis=0)
    after = np.cumprod(np.concatenate([np.ones((1, n, n)), factors[:0:-1]]), axis=0)[::-1]
    terms = kernel.factor_prime(diff) * before * after
    terms[:, np.arange(n), np.arange(n)] = 0.0
    return 2.0 / (n * n) * terms.sum(axis=2).T


@pytest.mark.parametrize("fam", FAMILIES)
@pytest.mark.parametrize("dim", [1, 2, 8, 128])
@pytest.mark.parametrize("side", [0, 1])
def test_periodic_gradient_matches_dense_reference(fam, dim, side):
    # N = isqrt(2^22 / D) + side spans several 128-point tiles (a ragged
    # last tile at side = 1) for exp and trunc, and several row bands of
    # the series pass for mq and gauss at D <= 2
    n = math.isqrt(2**22 // dim) + side
    k = PeriodicKernel(fam, dim)
    y = np.random.default_rng(31 * dim + side).random((n, dim))
    shapes = []
    block_fn = k.factor_logderiv_block

    def recorded(setup, d, rows, cols):
        shapes.append((rows.stop - rows.start, cols.stop - cols.start))
        return block_fn(setup, d, rows, cols)

    k.factor_logderiv_block = recorded
    obj = build_objective(k, n)
    tracemalloc.start()
    try:
        value, g = obj.grad(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if k.record.log_series is None:
        # one block per dimension for each 128 x 128 tile on or above the
        # diagonal; the D ratio tiles of one tile, the Gram tile and the
        # temporaries of one block, next to O(N D) per-point arrays
        tiles = -(-n // 128)
        assert max(max(shape) for shape in shapes) <= 128
        assert len(shapes) == dim * tiles * (tiles + 1) // 2
        assert peak <= (dim + 3) * min(n, 128) ** 2 * 8 + 32 * n * dim
    else:
        # one series pass and no tiles: its N x D x K complex features and
        # the (rows, 2DK) temporaries of a band stay within four times the
        # features, next to one band of <= 2^20 kernel entries (the full
        # N x N matrix, 34 MB at N = 2048, would not fit)
        assert shapes == []
        features = 16 * n * dim * len(k.record.log_series[1])
        assert peak <= 8 * _SERIES_BAND_DOUBLES + 4 * features
    ref = dense_periodic_gradient(k, y)
    assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert value == pytest.approx(k.pair_mean(y) - 1.0, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("fam", ["exp", "trunc"])
@pytest.mark.parametrize("n, dim", [(16, 1), (64, 8), (200, 3), (300, 2)])
def test_tile_fused_value_equals_pair_mean(fam, n, dim):
    # the descent's value comes from the same tiles, multiplied in the
    # same order, as the Gram mean that scores the points
    k = PeriodicKernel(fam, dim)
    y = np.random.default_rng(n + dim).random((n, dim))
    obj = build_objective(k, n)
    assert obj.grad(y)[0] == k.pair_mean(y) - 1.0
    assert obj.fun(y) == k.pair_mean(y) - 1.0


def test_trunc_gradient_finite_at_half_spacing():
    # two points exactly 1/2 apart sit where the D = 1 truncated factor
    # vanishes; the gradient there is the zero subgradient
    k = PeriodicKernel("trunc", 1)
    start = PointSet(np.array([[0.25], [0.75]]))
    with np.errstate(all="raise"):
        value, g = build_objective(k, 2).grad(start.coords)
    assert value == pytest.approx(0.0, abs=1e-15)
    assert np.array_equal(g, np.zeros((2, 1)))
    _, rep, _ = descend_physical(k, start)
    assert rep.value == pytest.approx(0.0, abs=1e-7)


def test_spline_gradient_matches_fd():
    for dim in (1, 2):
        obj = build_objective(SplineKernel(dim), 9)
        rng = np.random.default_rng(dim)
        y = 0.05 + 0.9 * rng.random((9, dim))
        _, g = obj.grad(y)
        for _ in range(10):
            i, d = rng.integers(9), rng.integers(dim)
            fd = central_difference(obj.fun, y, i, d)
            assert g[i, d] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_spline_gradient_on_the_faces():
    # coordinates exactly at 0 and 1 zero some factors y - y^2, so the
    # leave-one-out products cannot come from dividing the full product
    n, dim = 7, 5
    rng = np.random.default_rng(5)
    y = rng.random((n, dim))
    y[rng.random((n, dim)) < 0.3] = 0.0
    y[rng.random((n, dim)) < 0.2] = 1.0
    y[0, 1] = 0.0
    y[3, 4] = 1.0
    _, g = build_objective(SplineKernel(dim), n).grad(y)
    # dense reference: the off-diagonal Gram pairs, then the diagonal
    # entries prod (y - y^2) and the single integrals prod y(1 - y)/2
    factor = np.minimum(y[:, None, :], y[None, :, :]) - y[:, None, :] * y[None, :, :]
    prime = (y[:, None, :] < y[None, :, :]).astype(float) - y[None, :, :]
    ref = np.zeros((n, dim))
    base = y - y * y
    for i in range(n):
        for d in range(dim):
            for j in range(n):
                if j != i:
                    ref[i, d] += 2.0 * prime[i, j, d] * np.prod(np.delete(factor[i, j], d))
            others = np.prod(np.delete(base[i], d))
            ref[i, d] /= n * n
            ref[i, d] += (1.0 - 2.0 * y[i, d]) * others / (n * n)
            ref[i, d] -= (1.0 - 2.0 * y[i, d]) * np.prod(np.delete(base[i] / 2.0, d)) / n
    assert np.any(g != 0.0)
    assert np.allclose(g, ref, rtol=1e-13, atol=1e-16)


@pytest.mark.parametrize("fam", FAMILIES)
def test_transported_gradient_matches_fd(fam):
    # the transported descent variable is u = S(x)
    for n, dim in ((8, 2), (64, 2), (12, 5)):
        k = TransportedKernel(fam, dim)
        obj = build_objective(k, n)
        rng = np.random.default_rng(17)
        u = k.map_points(rng.random((n, dim)))
        _, g = obj.grad(u)
        for _ in range(8):
            i, d = rng.integers(n), rng.integers(dim)
            fd = central_difference(obj.fun, u, i, d)
            assert g[i, d] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_gradient_vanishes_at_midpoint_grid():
    obj = build_objective(SplineKernel(1), 16)
    _, g = obj.grad(midpoint_1d(16).coords)
    assert np.linalg.norm(g) < 1e-10


def test_permutation_symmetry():
    k = PeriodicKernel("mq", 2)
    obj = build_objective(k, 12)
    rng = np.random.default_rng(5)
    y = rng.random((12, 2))
    perm = rng.permutation(12)
    assert obj.fun(y[perm]) == pytest.approx(obj.fun(y), rel=1e-14)
    assert np.allclose(obj.grad(y)[1][perm], obj.grad(y[perm])[1], atol=1e-12)


def test_spline_descent_reaches_equally_spaced():
    # the optimal family is equally spaced with free shift; the pipeline
    # reports the symmetric (midpoint) representative
    k = SplineKernel(1)
    pts, rep, trace = descend_physical(k, uniform_points(0, 4, 1))
    sorted_pts = np.sort(pts.coords[:, 0])
    gaps = np.diff(sorted_pts)
    assert np.allclose(gaps, 0.25, atol=1e-6)
    assert rep.value == pytest.approx(1.0 / (math.sqrt(12.0) * 4), abs=1e-10)
    assert trace.objectives == sorted(trace.objectives, reverse=True)

    best, rep2, _ = optimize_points(k, 4, seed=0)
    assert np.allclose(np.sort(best.coords[:, 0]), [0.125, 0.375, 0.625, 0.875], atol=1e-6)


def test_descent_monotone_trace_and_improvement():
    k = PeriodicKernel("exp", 2)
    start = uniform_points(11, 24, 2)
    pts, rep, trace = descend_physical(k, start)
    assert trace.objectives == sorted(trace.objectives, reverse=True)
    assert rep.value < periodic_error(k, start).value


FUSED_CASES = ([(f"per-{fam}", dim, n) for fam in FAMILIES for dim in (1, 2, 8)
                for n in (10, 130)]
               + [("spline", dim, n) for dim in (1, 3) for n in (10, 130)]
               + [(f"tra-{fam}", 2, n) for fam in FAMILIES for n in (10, 64, 130)])


@pytest.mark.parametrize("kernel_id,dim,n", FUSED_CASES)
def test_fused_value_matches_fun(kernel_id, dim, n):
    # grad sums whole Gram column blocks of its gradient pass (transported:
    # the row sums of the gradient's kernel matrix); fun sums the 128 x 128
    # tiles of pair_mean on or above the diagonal.  N = 130 crosses the
    # tile edge.
    obj = build_objective(kernel_from_id(kernel_id, dim), n)
    y = uniform_points(1000 * dim + n, n, dim).coords
    value, _ = obj.grad(y)
    # periodic fun is the Gram mean minus 1: compare the means, since
    # that subtraction alone can leave an ulp of 1 in a small E^2
    shift = 1.0 if kernel_id.startswith("per-") else 0.0
    assert value + shift == pytest.approx(obj.fun(y) + shift, rel=1e-13, abs=0.0)


def test_descent_stays_in_domain():
    cfg = OptimizerConfig(max_iterations=300)
    # edge coordinates start outside the transported box and are moved in
    start = uniform_points(3, 16, 2).coords.copy()
    start[0], start[1] = 0.0, 1.0
    pts, _, _ = descend_physical(TransportedKernel("gauss", 2), PointSet(start), cfg)
    assert pts.coords.min() >= 1e-7 and pts.coords.max() <= 1.0 - 1e-7
    # this spline descent ends on both faces of the cube
    pts, _, _ = descend_physical(SplineKernel(2), uniform_points(3, 16, 2), cfg)
    assert pts.coords.min() >= 0.0 and pts.coords.max() <= 1.0
    # the periodic descent is unbounded (its iterates leave the cube here)
    # and its result is wrapped
    pts, _, _ = descend_physical(PeriodicKernel("gauss", 2), uniform_points(1, 16, 2), cfg)
    assert pts.coords.min() >= 0.0 and pts.coords.max() < 1.0


def test_iteration_cap_stops_descent():
    pts, rep, trace = descend_physical(PeriodicKernel("gauss", 2), uniform_points(1, 16, 2),
                                       OptimizerConfig(max_iterations=1))
    assert trace.stopped_by == "max_iterations"
    assert trace.iterations == 1 and len(trace.objectives) == 2


def test_descent_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        descend_physical(PeriodicKernel("exp", 2), uniform_points(0, 8, 1))


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(max_iterations=0)
    with pytest.raises(TypeError):
        OptimizerConfig(step_size=0.1)


def test_canonical_grid_construction():
    assert np.allclose(np.sort(canonical_grid([4]).coords[:, 0]), [0.0, 0.25, 0.5, 0.75])
    # row n holds the mixed-radix digits of n, the first digit fastest
    rs = [3, 4, 2]
    digits = [[(n // math.prod(rs[:d])) % r / r for d, r in enumerate(rs)]
              for n in range(math.prod(rs))]
    assert np.array_equal(canonical_grid(rs).coords, np.array(digits))
    g22 = canonical_grid([2, 2])
    assert sorted(map(tuple, g22.coords.tolist())) == [
        (0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]
    with pytest.raises(ValueError):
        canonical_grid([0, 3])
    with pytest.raises(ValueError):
        canonical_grid([4000, 3000])


@pytest.mark.parametrize("rs", [[4], [3, 2], [4, 4], [1, 3]])
def test_box_targets_are_the_nonzero_grid_digits(rs):
    digits = np.rint(canonical_grid(rs).coords * rs).astype(int)
    nonzero = [row for row in digits.tolist() if any(row)]
    assert [list(t.dense()) for t in box_targets(rs)] == nonzero


def test_canonical_grid_annihilates_box():
    for res in ([4], [2, 2], [3, 2], [4, 4]):
        grid = canonical_grid(res)
        prob = Cond1Problem.from_indices(box_targets(res), len(res))
        residual = cond1_functional(prob, grid) / grid.n**2
        assert residual < 1e-9
    # spot-check one exponential sum by brute force
    grid = canonical_grid([3, 2])
    s = sum(np.exp(2j * math.pi * (p[0] * 1 + p[1] * 1)) for p in grid.coords)
    assert abs(s) < 1e-12


def test_cond1_gradient_matches_fd():
    prob = Cond1Problem.from_indices([(1, 0), (0, 1), (1, 1), (2, -1), (-3, 2)], 2)
    rng = np.random.default_rng(1)
    y = rng.random((6, 2))
    g = cond1_gradient(prob, y)
    for _ in range(10):
        i, d = rng.integers(6), rng.integers(2)
        fd = central_difference(lambda z: cond1_functional(prob, z), y, i, d)
        assert g[i, d] == pytest.approx(fd, rel=1e-5)


def test_cond1_single_point_infeasible():
    prob = Cond1Problem.from_indices([(1,)], 1)
    res = solve_cond1(prob, PointSet(np.array([[0.37]])))
    assert res.infeasible
    assert res.residual == pytest.approx(1.0)


def test_cond1_rejects_zero_target():
    with pytest.raises(ValueError):
        Cond1Problem.from_indices([(0, 0)], 2)
    with pytest.raises(ValueError):
        Cond1Problem.from_indices([], 2)


def test_cond1_grid_solution_is_fixed_point():
    # {0, 1/4, 1/2, 3/4} already solves targets {+-1, +-2}
    prob = Cond1Problem.from_indices([(1,), (-1,), (2,), (-2,)], 1)
    grid = canonical_grid([4])
    res = solve_cond1(prob, grid)
    assert res.residual < 1e-12


@pytest.mark.parametrize("fam", FAMILIES)
def test_cond1_solver_and_tail_bound(fam):
    # solving the first-N annihilation drops E^2 to the coefficient tail
    k = PeriodicKernel(fam, 2)
    n = 16
    terms = enumerate_decreasing(k.profile, n + 1)
    prob = Cond1Problem.from_indices([t.index for t in terms[1:]], 2)
    res = solve_cond1(prob, uniform_points(1000, n, 2))
    assert res.converged and res.residual < 1e-8
    e2 = periodic_error(k, res.points).squared_value
    assert e2 <= tail_mass(k.profile, n) * (1 + 1e-6) + 1e-10


def test_optimize_points_beats_random_baseline():
    k = PeriodicKernel("exp", 2)
    n, seed = 64, 12345
    pts, rep, info = optimize_points(k, n, seed, OptimizerConfig(max_iterations=2000))
    random_rep = periodic_error(k, uniform_points(seed, n, 2))
    assert rep.value < random_rep.value
    assert rep.value < 0.142  # the reference random-points table value


def test_optimize_points_exponential_1d_rate():
    k = PeriodicKernel("exp", 1)
    pts, rep, info = optimize_points(k, 16, seed=5)
    assert rep.value == pytest.approx(1.0 / 16.0, rel=0.02)


@pytest.mark.parametrize("fam", FAMILIES)
def test_lattice_points_in_one_dimension_are_the_equispaced_grid(fam):
    for n in (1, 7, 16, 64):
        pts = lattice_points(PeriodicKernel(fam, 1), n)
        assert np.array_equal(np.sort(pts.coords[:, 0]), np.arange(n) / n)


@pytest.mark.parametrize("fam", FAMILIES)
def test_lattice_generator_is_coprime(fam):
    for n, dim in ((12, 8), (30, 5), (64, 8), (97, 3)):
        coords = lattice_points(PeriodicKernel(fam, dim), n).coords
        z = np.rint(coords[1] * n).astype(int)  # row k = 1 is z / N
        assert z[0] == 1 and all(math.gcd(int(c), n) == 1 for c in z)
        assert np.array_equal(coords, np.outer(np.arange(n), z) % n / n)


@pytest.mark.parametrize("fam", FAMILIES)
@pytest.mark.parametrize("n", (12, 16))
def test_lattice_second_component_minimizes_periodic_error(fam, n):
    # the Gram-mean error of every candidate lattice, apart from the
    # rank-1 factor table the construction uses; z and N - z give the
    # same lattice, so the choice is one of the tied minimizers
    kernel = PeriodicKernel(fam, 2)
    z1 = round(lattice_points(kernel, n).coords[1, 1] * n)
    errors = {c: periodic_error(kernel, PointSet(np.outer(np.arange(n), [1, c]) % n / n)).value
              for c in range(1, n) if math.gcd(c, n) == 1}
    assert errors[z1] <= min(errors.values()) * (1.0 + 1e-12)


@pytest.mark.parametrize("n", (16, 64))
def test_optimized_exp_1d_is_the_equispaced_closed_form(n):
    # E^2 = a coth a - 1, a = tau / (2N) = sqrt(3) / N, on the grid k / N
    pts, rep, info = optimize_points(PeriodicKernel("exp", 1), n, seed=n,
                                     config=OptimizerConfig(max_iterations=300))
    a = math.sqrt(3.0) / n
    assert info["stage"] == "lattice"
    assert rep.value == pytest.approx(math.sqrt(a / math.tanh(a) - 1.0), rel=1e-12)


def test_transported_descent_improves():
    k = TransportedKernel("mq", 2)
    start = uniform_points(9, 16, 2)
    pts, rep, trace = descend_physical(k, start, OptimizerConfig(max_iterations=300))
    base = physical_error(k, start, "exact")
    assert rep.value < base.value
    assert np.all((pts.coords >= 0) & (pts.coords <= 1))


@pytest.mark.parametrize("fam", FAMILIES)
def test_transported_report_is_exact(fam):
    # the descent minimizes E^2 itself and reports its exact value, which
    # the last objective value and an MC estimate on the returned points
    # both confirm
    k = TransportedKernel(fam, 2)
    pts, rep, trace = descend_physical(k, uniform_points(5, 16, 2),
                                       OptimizerConfig(max_iterations=300))
    assert rep.method == "physical"
    assert rep.squared_value == physical_error(k, pts, "exact").squared_value
    assert rep.squared_value == pytest.approx(trace.objectives[-1], rel=1e-9)
    assert rep.squared_value > 0
    mc = physical_error(k, pts, MonteCarlo(2**16, 7))
    assert abs(mc.squared_value - rep.squared_value) < 5 * mc.metadata["se_squared"]


def test_size_guards_refuse_before_allocating(capsys):
    # 2^15 points x 2^15 targets would be 16 GiB per complex array
    prob = Cond1Problem(np.ones((2**15, 1)), 1)
    y = np.zeros((2**15, 1))
    with pytest.raises(ValueError, match="GiB"):
        cond1_functional(prob, y)
    with pytest.raises(ValueError, match="GiB"):
        cond1_gradient(prob, y)
    # 2^15 transported points: an 8 GiB kernel matrix per evaluation
    with pytest.raises(ValueError, match="GiB"):
        build_objective(TransportedKernel("gauss", 16), 2**15)
    # 2^21 points x 52 per-gauss D = 1 series terms: 1.6 GiB of complex
    # features, refused before the descent starts, and by the CLI with exit 2
    with pytest.raises(ValueError, match="GiB"):
        build_objective(PeriodicKernel("gauss", 1), 2**21)
    # per-exp at D = 2^14: the 2^14 log-derivative tiles of one 128 x 128
    # tile would hold 2 GiB together, and the message says so
    with pytest.raises(ValueError) as refused:
        build_objective(PeriodicKernel("exp", 2**14), 256)
    assert str(refused.value) == ("the 16384 chi'/chi tiles held at once for 256 points at "
                                  "D=16384 would need 2.0 GiB (limit 1 GiB)")
    # 2^16 + 1 (prime) points: a 2^16 x (2^16 + 1) lattice factor table of
    # 32 GiB, refused before the descent would start
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="GiB"):
            optimize_points(PeriodicKernel("exp", 1), 2**16 + 1, seed=0)
        assert tracemalloc.get_traced_memory()[1] < 2**24
    finally:
        tracemalloc.stop()
    assert cli.main(["points", "--kernel", "per-gauss", "--mode", "optimized",
                     "--N", str(2**21), "--D", "1"]) == 2
    assert "GiB" in capsys.readouterr().err


def test_descent_aborts_on_nonfinite_gradient(monkeypatch):
    import kerndisc.optimize as op

    real = op.build_objective

    def poisoned(kernel, n):
        obj = real(kernel, n)
        obj.grad = lambda y: (0.0, np.full_like(y, np.nan))
        return obj

    monkeypatch.setattr(op, "build_objective", poisoned)
    with pytest.raises(FloatingPointError, match="iteration 0"):
        op.descend_physical(PeriodicKernel("exp", 1), uniform_points(0, 4, 1))
