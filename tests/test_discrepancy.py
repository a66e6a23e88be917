import itertools
import math

import numpy as np
import pytest
from scipy import special

from kerndisc.discrepancy import (MonteCarlo, UnsupportedMethodError, asymptotic_error,
                                  periodic_error, periodic_error_sp, physical_error,
                                  spectral_error)
from kerndisc.kernels import (FAMILIES, PeriodicKernel, SeedKernel, SplineKernel,
                              TransportedKernel, coefficient_profile)
from kerndisc.lattice import enumerate_decreasing, tail_mass
from kerndisc.optimize import midpoint_1d
from kerndisc.rkhs import NormParams, PointSet
from kerndisc.sampling import uniform_points


def test_spline_midpoint_closed_form():
    # oracle: direct physical expansion with the closed-form integrals;
    # the optimum value is 1/(sqrt(12) N), not the 1/(sqrt(6) N) sometimes
    # quoted (N=1 by hand: E^2 = 1/12 + 1/4 - 2/8 = 1/12)
    for n in (1, 4, 16, 128):
        rep = physical_error(SplineKernel(1), midpoint_1d(n), "exact")
        assert rep.value == pytest.approx(1.0 / (math.sqrt(12.0) * n), abs=1e-12)


def test_spline_single_point_by_hand():
    rep = physical_error(SplineKernel(1), PointSet(np.array([[0.5]])), "exact")
    assert rep.squared_value == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert rep.value == pytest.approx(0.28868, abs=5e-6)


def test_spline_any_single_point_constant():
    # in 1-D the diagonal exactly cancels the single integral
    for y in (0.1, 0.33, 0.9):
        rep = physical_error(SplineKernel(1), PointSet(np.array([[y]])), "exact")
        assert rep.squared_value == pytest.approx(1.0 / 12.0, abs=1e-15)


def test_spline_2d_physical_against_brute_quadrature():
    # oracle: midpoint-rule quadrature of the defining double integral
    k = SplineKernel(2)
    pts = uniform_points(5, 6, 2)
    m = 400
    grid = (np.arange(m) + 0.5) / m
    gx, gy = np.meshgrid(grid, grid, indexing="ij")
    cube = np.column_stack([gx.ravel(), gy.ravel()])
    kxy = k.pairwise(cube, pts.coords)
    double = 1.0 / 12.0**2
    singles = kxy.mean(axis=0)
    gram_mean = k.pairwise(pts.coords, pts.coords).mean()
    e2 = double + gram_mean - 2.0 * singles.mean()
    rep = physical_error(k, pts, "exact")
    assert rep.squared_value == pytest.approx(e2, abs=1e-6)


def test_periodic_error_exponential_grid():
    # the N-point 1-D grid leaves only frequencies divisible by N, so
    # E^2 = T(tau/N) - 1 in closed form; the table prints 0.062
    k = PeriodicKernel("exp", 1)
    rep = periodic_error(k, midpoint_1d(16))
    tau_n = math.sqrt(12.0) / 16.0
    oracle = (tau_n / 2.0) / math.tanh(tau_n / 2.0) - 1.0
    assert rep.squared_value == pytest.approx(oracle, rel=1e-12)
    assert rep.value == pytest.approx(1.0 / 16.0, abs=1e-4)


def test_periodic_error_single_point():
    for fam in FAMILIES:
        k = PeriodicKernel(fam, 2)
        rep = periodic_error(k, PointSet(np.array([[0.3, 0.9]])))
        assert rep.value == pytest.approx(math.sqrt(k.diagonal() - 1.0), rel=1e-12)


def test_periodic_error_rejects_other_kernels():
    with pytest.raises(UnsupportedMethodError):
        periodic_error(SplineKernel(1), midpoint_1d(4))


@pytest.mark.parametrize("fam", FAMILIES)
def test_formulation_equivalence_physical_fourier(fam):
    # physical expansion vs the Fourier-series form truncated at M=64
    for dim in (1, 2):
        k = PeriodicKernel(fam, dim)
        pts = uniform_points(71 + dim, 12, dim)
        rep = periodic_error(k, pts)
        terms = enumerate_decreasing(k.profile, 3000 if dim == 1 else 20000)
        alphas = np.array([t.index.dense() for t in terms[1:]], dtype=float)
        rho = np.array([t.coefficient for t in terms[1:]])
        sums = np.abs(np.exp(2j * math.pi * pts.coords @ alphas.T).sum(axis=0)) ** 2
        series = float(np.sum(rho * sums) / pts.n**2)
        tail = tail_mass(k.profile, len(terms))
        # the omitted tail is bounded by tail * N^2 / N^2
        assert abs(rep.squared_value - series) <= tail * 1.001 + 1e-8


def test_physical_exact_rejects_periodic():
    # a periodic kernel's integrals are both 1; periodic_error evaluates it
    with pytest.raises(UnsupportedMethodError, match="periodic_error"):
        physical_error(PeriodicKernel("mq", 2), uniform_points(0, 8, 2), "exact")


def test_physical_exact_rejects_seed_kernel():
    # a seed kernel lives on R^D and has no integrals over the cube
    with pytest.raises(UnsupportedMethodError):
        physical_error(SeedKernel("gauss", 2), uniform_points(0, 8, 2), "exact")
    with pytest.raises(ValueError):
        physical_error(TransportedKernel("gauss", 2), uniform_points(0, 8, 2), "bogus-mode")


@pytest.mark.parametrize("dim", [2, 4])
def test_transported_gauss_exact_matches_closed_form(dim):
    # S(x) = erfinv(2x - 1) maps a uniform x to N(0, 1/2), so the tra-gauss
    # integrals are Gaussian: written here from (tau, beta) alone, with the
    # Gram mean summed pair by pair
    k = TransportedKernel("gauss", dim)
    pts = uniform_points(7, 16, dim)
    tau2, beta = k.record.tau**2, k.record.beta
    u = special.erfinv(2.0 * pts.coords - 1.0)
    sq = ((u[:, None, :] - u[None, :, :]) ** 2).sum(axis=2)
    single = beta * np.prod((1.0 + tau2) ** -0.5 * np.exp(-tau2 * u * u / (1.0 + tau2)), axis=1)
    double = beta * (1.0 + 2.0 * tau2) ** (-dim / 2.0)
    closed = double + beta * float(np.exp(-tau2 * sq).mean()) - 2.0 * float(single.mean())
    assert k.integral_single(pts.coords) == pytest.approx(single, rel=1e-12)
    assert k.integral_double() == pytest.approx(double, rel=1e-14)
    rep = physical_error(k, pts, "exact")
    assert rep.method == "physical"
    assert rep.squared_value == pytest.approx(closed, rel=1e-11)


@pytest.mark.parametrize("fam", FAMILIES)
def test_transported_exact_agrees_with_mc(fam):
    for dim in (1, 3, 16, 128):
        k = TransportedKernel(fam, dim)
        pts = uniform_points(50 + dim, 16, dim)
        exact = physical_error(k, pts, "exact")
        mc = physical_error(k, pts, MonteCarlo(2**14, dim))
        assert abs(mc.squared_value - exact.squared_value) < 5 * mc.metadata["se_squared"], dim


@pytest.mark.parametrize("fam,dim", [("trunc", 200), ("mq", 400)])
def test_transported_integrals_finite_in_high_dimension(fam, dim):
    # the Gamma(a) mixture of tra-trunc (a = D) and tra-mq (a = (D+1)/2)
    # forms no Gamma(a), which overflows past a = 171
    k = TransportedKernel(fam, dim)
    pts = uniform_points(3, 16, dim)
    singles = k.integral_single(pts.coords)
    assert np.all(np.isfinite(singles)) and np.all(singles >= 0)
    assert 0 < k.integral_double() < k.diagonal()
    exact = physical_error(k, pts, "exact")
    mc = physical_error(k, pts, MonteCarlo(2**12, 5))
    # every term of both is far below the Gram diagonal, so the estimator's
    # standard error can be exactly 0; then they agree to rounding
    assert abs(mc.squared_value - exact.squared_value) <= (
        5 * mc.metadata["se_squared"] + 1e-15 * exact.squared_value)


def test_spectral_midpoints_even_coefficients_vanish():
    pts = midpoint_1d(16)
    i = np.arange(2, 100, 2)
    means = np.sin(np.outer(i, math.pi * pts.coords[:, 0])).mean(axis=1)
    integ = (1 - np.cos(i * math.pi)) / (i * math.pi)
    assert np.max(np.abs(integ - means)) < 1e-14


def test_spectral_matches_physical_midpoints():
    for n in (16, 64):
        pts = midpoint_1d(n)
        phys = physical_error(SplineKernel(1), pts, "exact")
        spec = spectral_error(pts, NormParams(1, 2), max_index=10_000,
                              exact_tail_period=4 * n)
        assert spec.value == pytest.approx(phys.value, abs=1e-9)


def test_spectral_truncated_head_close_on_random_points():
    pts = uniform_points(44, 16, 1)
    phys = physical_error(SplineKernel(1), pts, "exact")
    spec = spectral_error(pts, NormParams(1, 2), max_index=1_000_000)
    assert spec.value == pytest.approx(phys.value, abs=1e-6)
    assert spec.metadata["tail_bound"] < 1e-5


def test_spectral_rate_slope_s2():
    values = []
    ns = (16, 32, 64, 128, 256, 512)
    for n in ns:
        spec = spectral_error(midpoint_1d(n), NormParams(2, 2), max_index=20_000)
        values.append(spec.value)
    slope = np.polyfit(np.log(ns), np.log(values), 1)[0]
    assert -2.2 <= slope <= -1.8


def test_spectral_sup_norm_p1():
    pts = midpoint_1d(8)
    spec = spectral_error(pts, NormParams(1, 1), max_index=500)
    # p' = inf: sup over terms of lam^{s/2} |c|
    i = np.arange(1, 501, dtype=float)
    integ = math.sqrt(2) * (1 - np.cos(i * math.pi)) / (i * math.pi)
    means = math.sqrt(2) * np.sin(np.outer(i, math.pi * pts.coords[:, 0])).mean(axis=1)
    ref = np.max((1.0 / (i * math.pi)) * np.abs(integ - means))
    assert spec.value == pytest.approx(ref, rel=1e-12)


def test_spectral_2d_truncation():
    # the head converges like 1/max_index in 2-D as well
    pts = uniform_points(9, 8, 2)
    phys = physical_error(SplineKernel(2), pts, "exact")
    spec = spectral_error(pts, NormParams(1, 2), max_index=800)
    assert spec.value == pytest.approx(phys.value, abs=1.2e-4)
    closer = spectral_error(pts, NormParams(1, 2), max_index=1600)
    assert abs(closer.value - phys.value) < abs(spec.value - phys.value)
    with pytest.raises(ValueError, match="grid too large"):
        spectral_error(pts, NormParams(1, 2), max_index=10_000)


@pytest.mark.parametrize("dim, max_index", ((2, 40), (3, 12)))
def test_spectral_tensor_path_matches_per_point_loop(dim, max_index):
    # the coefficients summed point by point over the index grid, first
    # dimension slowest
    pts = uniform_points(17, 9, dim)
    grid = np.array(list(itertools.product(range(1, max_index + 1), repeat=dim)), dtype=float)
    lam = np.prod(1.0 / (grid * math.pi) ** 2, axis=1)
    integ = np.prod(math.sqrt(2.0) * (1.0 - np.cos(grid * math.pi)) / (grid * math.pi), axis=1)
    acc = np.zeros(len(grid))
    for y in pts.coords:
        acc += np.prod(math.sqrt(2.0) * np.sin(grid * math.pi * y), axis=1)
    c = integ - acc / pts.n
    for params in (NormParams(1, 2), NormParams(2, 3), NormParams(1, 1)):
        spec = spectral_error(pts, params, max_index)
        pconj = params.p_conjugate
        if pconj == math.inf:
            ref = np.max(lam ** (params.s / 2) * np.abs(c))
        else:
            ref = np.sum(lam ** (params.s * pconj / 2) * np.abs(c) ** pconj) ** (1 / pconj)
        assert spec.value == pytest.approx(ref, rel=1e-13)


def test_asymptotic_error_reports():
    rep = asymptotic_error("mq", 16, dim=1)
    assert rep.value == pytest.approx(0.004, abs=0.0015)
    rep = asymptotic_error(PeriodicKernel("gauss", 2), 16)
    assert rep.value == pytest.approx(0.018, abs=0.0015)
    rep = asymptotic_error("exp", 256, dim=8)
    assert rep.value == pytest.approx(0.042, abs=0.0015)
    with pytest.raises(UnsupportedMethodError):
        asymptotic_error(SplineKernel(1), 16)


def test_random_point_law_small():
    # E[E^2] = (K(0,0) - 1)/N for i.i.d. uniform points
    k = PeriodicKernel("exp", 2)
    n = 32
    expected = (k.diagonal() - 1.0) / n
    vals = [periodic_error(k, uniform_points(7000 + s, n, 2)).squared_value
            for s in range(50)]
    mean = np.mean(vals)
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(mean - expected) < 3 * se


def test_monte_carlo_mode_consistent_with_exact():
    # periodic kernels admit both paths; MC must agree within 4 SE
    k = PeriodicKernel("gauss", 2)
    pts = uniform_points(3, 16, 2)
    exact = periodic_error(k, pts)
    mc = physical_error(k, pts, MonteCarlo(samples=2**14, seed=9))
    assert abs(mc.squared_value - exact.squared_value) < 4 * mc.metadata["se_squared"]
    assert mc.metadata["mc_samples"] == 2**14
    assert mc.method == "physical-mc"


def test_monte_carlo_transported_runs():
    k = TransportedKernel("exp", 2)
    pts = uniform_points(21, 24, 2)
    rep = physical_error(k, pts, MonteCarlo(samples=4096, seed=1))
    assert rep.value >= 0
    assert rep.metadata["se_squared"] > 0
    again = physical_error(k, pts, MonteCarlo(samples=4096, seed=1))
    assert again.squared_value == rep.squared_value  # frozen stream


def _replay_seed_formula(k, u, v):
    diff = u - v
    if k.family == "exp":
        return np.exp(-k.record.tau * np.abs(diff).sum(axis=-1)) / k.record.beta
    sq = (diff * diff).sum(axis=-1)
    if k.family == "mq":
        return k.record.beta * (1 + k.record.tau**2 * sq) ** (-(k.dim + 1) / 2.0)
    if k.family == "gauss":
        return k.record.beta * np.exp(-k.record.tau**2 * sq)
    return (1 + k.record.tau * sq) ** (-float(k.dim))


@pytest.mark.parametrize("fam", FAMILIES)
def test_transported_mc_estimator_replay(fam):
    # the shared-sample estimator replayed from its definition: samples a,
    # then b, from RandomState(seed); S(x) = erfinv(2x - 1); the seed
    # formula summed pair by pair
    from scipy.special import erfinv as scipy_erfinv

    m = 4096
    for dim in (1, 4, 16):
        k = TransportedKernel(fam, dim)
        for n in (1, 16, 64):
            seed = 1000 * dim + n
            pts = uniform_points(seed + 1, n, dim)
            draw = np.random.RandomState(seed).random_sample
            a = scipy_erfinv(2 * draw(m * dim).reshape(m, dim) - 1)
            b = scipy_erfinv(2 * draw(m * dim).reshape(m, dim) - 1)
            y = scipy_erfinv(2 * pts.coords - 1)
            single = _replay_seed_formula(k, a[:, None, :], y[None, :, :]).mean(axis=1)
            e2 = (float((_replay_seed_formula(k, a, b) - 2 * single).mean())
                  + float(_replay_seed_formula(k, y[:, None, :], y[None, :, :]).mean()))
            rep = physical_error(k, pts, MonteCarlo(m, seed))
            assert rep.squared_value == pytest.approx(e2, rel=1e-12), (dim, n)


def test_monte_carlo_refuses_oversized_samples():
    # 2^24 samples x 16 dimensions is 2 GiB per sample set; refused before
    # anything is drawn
    k = TransportedKernel("gauss", 16)
    with pytest.raises(ValueError, match="GiB"):
        physical_error(k, uniform_points(0, 4, 16), MonteCarlo(2**24, 0))


def test_periodic_error_sp_refuses_oversized_phases(monkeypatch):
    # N = 4096 takes 10 N terms, so the (N, 10 N) complex phases would be
    # 2.5 GiB; refused before the enumeration runs
    monkeypatch.setattr("kerndisc.lattice.enumerate_decreasing",
                        lambda *args: pytest.fail("enumerated before the size check"))
    k = PeriodicKernel("exp", 1)
    with pytest.raises(ValueError, match="GiB"):
        periodic_error_sp(k, uniform_points(0, 4096, 1), NormParams(1, 2))
    with pytest.raises(ValueError, match="n_terms"):
        periodic_error_sp(k, uniform_points(0, 8, 1), NormParams(1, 2), n_terms=0)


def test_periodic_error_sp_reduces_to_squared_error():
    # s=1, p=2 reproduces the closed form up to the enumerated tail
    k = PeriodicKernel("gauss", 2)
    pts = uniform_points(31, 12, 2)
    sp = periodic_error_sp(k, pts, NormParams(1, 2), n_terms=4000)
    closed = periodic_error(k, pts)
    assert sp.squared_value == pytest.approx(closed.squared_value, rel=1e-6)
    assert sp.metadata["tail_bound"] is not None


def test_periodic_error_sp_cuts_at_a_whole_tie_group():
    # per-mq D = 4: 2000 terms end inside the |alpha|_1 = 7 shell, so the
    # sum stops at the last whole group of equal coefficients and does not
    # depend on the order the enumeration gives tied indices
    k = PeriodicKernel("mq", 4)
    pts = uniform_points(16, 16, 4)
    sp = periodic_error_sp(k, pts, NormParams(1, 2), n_terms=2000)
    # brute force over the box |alpha_d| <= 8, which holds |alpha|_1 <= 7,
    # with the enumeration's float rule (factors multiplied in ascending order)
    r = {v: k.profile.r(v) for v in range(-8, 9)}
    rows = sorted(((math.prod(sorted(r[v] for v in alpha)), alpha)
                   for alpha in itertools.product(range(-8, 9), repeat=4) if any(alpha)),
                  key=lambda row: -row[0])
    cut = rows[2000][0]  # the coefficient of the first term past 2000
    kept = [(c, alpha) for c, alpha in rows if c > cut]
    assert 1288 <= len(kept) < 2000  # the shells |alpha|_1 <= 6 are whole
    assert sp.metadata["n_terms"] == len(kept)
    rho = np.array([c for c, _ in kept])
    alphas = np.array([alpha for _, alpha in kept], dtype=float)
    mods = np.abs(np.exp(2j * math.pi * pts.coords @ alphas.T).mean(axis=0))
    assert sp.squared_value == pytest.approx(float(np.sum(rho * mods**2)), rel=1e-12)
    assert sp.metadata["tail_bound"] >= tail_mass(k.profile, len(kept) + 1)
    # the first group, +-e_d, holds 8 indices: 8 terms are whole, 5 are not
    assert periodic_error_sp(k, pts, NormParams(1, 2), n_terms=8).metadata["n_terms"] == 8
    with pytest.raises(ValueError, match="first group"):
        periodic_error_sp(k, pts, NormParams(1, 2), n_terms=5)


def test_report_value_clamps_tiny_negative():
    from kerndisc.discrepancy import DiscrepancyReport

    rep = DiscrepancyReport.from_squared(-1e-12, "physical", "spline", 4, 1)
    assert rep.value == 0.0
    assert rep.squared_value == -1e-12


def test_periodic_error_sp_general_p():
    # p=1: the rho^s-weighted sum of first powers of the mean sums
    k = PeriodicKernel("mq", 1)
    pts = uniform_points(8, 6, 1)
    sp = periodic_error_sp(k, pts, NormParams(1, 1), n_terms=200)
    terms = enumerate_decreasing(k.profile, 201)
    alphas = np.array([t.index.dense() for t in terms[1:]], dtype=float)
    rho = np.array([t.coefficient for t in terms[1:]])
    mods = np.abs(np.exp(2j * math.pi * pts.coords @ alphas.T).mean(axis=0))
    assert sp.value == pytest.approx(float(np.sum(rho * mods)), rel=1e-12)


def test_spectral_exact_tail_rejects_bad_modes():
    pts = midpoint_1d(8)
    with pytest.raises(ValueError, match="D=1, p=2"):
        spectral_error(uniform_points(0, 4, 2), NormParams(1, 2), 100, exact_tail_period=32)
    with pytest.raises(ValueError, match="D=1, p=2"):
        spectral_error(pts, NormParams(1, 1), 100, exact_tail_period=32)
    with pytest.raises(ValueError, match="periodic"):
        spectral_error(uniform_points(3, 8, 1), NormParams(1, 2), 100, exact_tail_period=32)


def test_mc_se_value_delta_method():
    k = TransportedKernel("gauss", 2)
    rep = physical_error(k, uniform_points(4, 16, 2), MonteCarlo(4096, 7))
    assert rep.metadata["se_value"] == pytest.approx(
        rep.metadata["se_squared"] / (2 * rep.value), rel=1e-12)


def test_periodic_error_nonnegative_property():
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from hypothesis.extra import numpy as hnp

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(FAMILIES),
           hnp.arrays(float, (6, 2), elements=st.floats(0, 1, exclude_max=False)))
    def run(fam, coords):
        rep = periodic_error(PeriodicKernel(fam, 2), PointSet(coords))
        assert rep.squared_value >= -1e-8

    run()


@pytest.mark.parametrize("fam,n_terms", [("gauss", 160), ("mq", 5000)])
def test_periodic_error_sp_tail_bound_not_false_zero(fam, n_terms):
    # the tail mass T^D - partial sum cancels to 0 here while terms are
    # still omitted; the bound carries the rounding error of that difference
    k = PeriodicKernel(fam, 2)
    pts = uniform_points(1, 16, 2)
    sp = periodic_error_sp(k, pts, NormParams(1, 2), n_terms=n_terms)
    assert tail_mass(k.profile, n_terms + 1) == 0.0
    bound = sp.metadata["tail_bound"]
    assert bound > 0.0
    assert abs(periodic_error(k, pts).squared_value - sp.squared_value) <= bound
