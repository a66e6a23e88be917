import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from kerndisc import kernels
from kerndisc.kernels import (FAMILIES, PeriodicKernel, SeedKernel, SplineKernel,
                              TransportedKernel, TransportMap, coefficient_profile, erfinv,
                              fourier_coefficient, kernel_from_id, pseudo_distance, theta3)
from kerndisc.lattice import LatticeIndex
from kerndisc.sampling import uniform_points

ALL_IDS = [f"{loc}-{fam}" for loc in ("seed", "per", "tra") for fam in FAMILIES]
CUBE_IDS = [f"{loc}-{fam}" for loc in ("per", "tra") for fam in FAMILIES]


def erf_series(z: float) -> float:
    """Forward erf by its Maclaurin series (|z| <= 3) or continued
    fraction of erfc beyond; the independent oracle for erfinv."""
    if z < 0:
        return -erf_series(-z)
    if z <= 3.0:
        total = 0.0
        term = z
        k = 0
        while abs(term) > 1e-18 * max(1.0, abs(total)):
            total += term / (2 * k + 1)
            k += 1
            term *= -z * z / k
        return 2.0 / math.sqrt(math.pi) * total
    # erfc(z) = exp(-z^2)/sqrt(pi) / (z + 1/(2z + 2/(z + 3/(2z + ...))));
    # bottom-up evaluation, depth ample for z > 3
    val = 0.0
    for n in range(400, 0, -1):
        b = 2.0 * z if n % 2 else z
        val = n / (b + val)
    erfc = math.exp(-z * z) / math.sqrt(math.pi) / (z + val)
    return 1.0 - erfc


def test_erf_oracle_sane():
    assert erf_series(1.0) == pytest.approx(0.8427007929497149, abs=1e-15)
    for z in (0.1, 0.5, 1.5, 2.5, 3.01, 3.5, 4.5, 6.0):
        assert math.erf(z) == pytest.approx(erf_series(z), abs=5e-14)


def test_erfinv_round_trip_against_series():
    us = np.concatenate([np.linspace(-1 + 1e-10, 1 - 1e-10, 201), [0.8427007929497149, -0.5]])
    for u in us:
        z = erfinv(float(u))
        assert erf_series(z) == pytest.approx(float(u), abs=1e-12)
    assert erfinv(0.8427007929497149) == pytest.approx(1.0, abs=1e-12)
    assert erf_series(erfinv(-0.5)) == pytest.approx(-0.5, abs=1e-13)


def test_erfinv_odd_and_monotone():
    u = np.linspace(1e-6, 1 - 1e-6, 10_000)
    pos = erfinv(u)
    neg = erfinv(-u)
    assert np.array_equal(neg, -pos)
    assert erfinv(0.0) == 0.0
    full = erfinv(np.linspace(-1 + 1e-9, 1 - 1e-9, 10_000))
    assert np.all(np.diff(full) > 0)


def test_erfinv_domain_errors():
    for bad in (1.0, -1.0, 1.5, math.nan):
        with pytest.raises(ValueError):
            erfinv(bad)


def test_theta3_against_mpmath():
    import mpmath

    for q in (0.5, 0.25, 1.0 / 64.0):
        for z in (0.0, 0.3, 1.2, math.pi / 2):
            ref = float(mpmath.jtheta(3, z, q))
            assert theta3(z, q) == pytest.approx(ref, rel=1e-14)


def test_transport_map_round_trip():
    tm = TransportMap(3)
    x = np.linspace(1e-6, 1 - 1e-6, 501).reshape(-1, 1).repeat(3, axis=1)
    s = tm.apply(x)
    back = (special.erf(s) + 1.0) / 2.0
    assert np.max(np.abs(back - x)) < 1e-12
    assert np.all(np.diff(s[:, 0]) > 0)
    assert tm.apply(np.full((1, 3), 0.5)) == pytest.approx(np.zeros((1, 3)))


def _mp_transport(x):
    # S(x) = erfinv(2x - 1) at 40 digits; each double x is exact there,
    # so 2x - 1 loses nothing before the inversion
    import mpmath

    with mpmath.workdps(40):
        return np.vectorize(lambda t: float(mpmath.erfinv(2 * mpmath.mpf(float(t)) - 1)))(x)


def test_transport_map_matches_mpmath():
    xs = np.array([1e-12, 1e-9, 1e-6, 1e-3, 0.3, 0.5 - 1e-9, 0.7, 1 - 1e-6, 1 - 1e-12])
    ref = _mp_transport(xs)
    got = TransportMap(1).apply(xs[:, None])[:, 0]
    assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref)), np.abs(got / ref - 1)


def test_transport_map_inverse_round_trip():
    # the descent maps its transported points back to the cube by inverse
    tm = TransportMap(1)
    x = np.array([[1e-12], [1e-7], [1e-3], [0.2], [0.5], [0.9], [1 - 1e-7]])
    assert np.allclose(tm.inverse(tm.apply(x)), x, rtol=1e-13, atol=0.0)
    assert np.array_equal(tm.inverse(np.zeros((1, 1))), [[0.5]])


# --- seed kernels ---------------------------------------------------------

def test_seed_diagonal_is_one():
    for fam in FAMILIES:
        k = SeedKernel(fam, 3)
        x = np.array([0.1, 2.0, -1.4])
        assert k(x, x) == pytest.approx(1.0)


def test_seed_gauss_decay():
    k = SeedKernel("gauss", 1)
    assert k([0.0], [10.0]) == pytest.approx(math.exp(-50.0))
    assert pseudo_distance(k, [0.0], [10.0]) == pytest.approx(2.0, abs=1e-12)


def test_seed_formulas():
    x = np.array([0.3, -0.2])
    y = np.array([1.0, 0.5])
    d1 = abs(x - y).sum()
    sq = ((x - y) ** 2).sum()
    assert SeedKernel("exp", 2)(x, y) == pytest.approx(math.exp(-d1))
    assert SeedKernel("mq", 2)(x, y) == pytest.approx((1 + sq) ** (-1.5))
    assert SeedKernel("gauss", 2)(x, y) == pytest.approx(math.exp(-sq / 2))
    assert SeedKernel("trunc", 2)(x, y) == pytest.approx(max(1 - math.sqrt(sq), 0.0) ** 2)


# --- periodic kernels -----------------------------------------------------

def test_periodic_diagonal_values():
    # closed-form per-dimension totals
    k = PeriodicKernel("exp", 1)
    tau = math.sqrt(12.0)
    assert k([0.3], [0.3]) == pytest.approx((tau / 2) / math.tanh(tau / 2), rel=1e-14)
    for dim in (1, 2, 5, 40):
        # the profile's closed-form total against the factor formula at 0
        for fam in FAMILIES:
            k = PeriodicKernel(fam, dim)
            assert k.factor(0.0) == pytest.approx(k.profile.per_dim_total, rel=1e-14)
        assert PeriodicKernel("trunc", dim).factor(0.0) == pytest.approx(1 + 1 / dim)
        diag = PeriodicKernel("trunc", dim).diagonal()
        assert diag == pytest.approx((1 + 1 / dim) ** dim, rel=1e-12)
        assert diag <= math.e + 1e-9


def test_periodic_diagonal_below_e_all_families():
    rng = np.random.default_rng(0)
    for fam in FAMILIES:
        for dim in (1, 2, 3, 17, 128):
            k = PeriodicKernel(fam, dim)
            x = rng.random((10, dim))
            assert np.max(k.elementwise(x, x)) <= math.e + 1e-9


@pytest.mark.parametrize("fam", FAMILIES)
def test_periodic_translation_invariance(fam):
    k = PeriodicKernel(fam, 2)
    rng = np.random.default_rng(5)
    x = rng.random((6, 2))
    y = rng.random((6, 2))
    base = k.pairwise(x, y)
    shifted = k.pairwise(x + np.array([1.0, 0.0]), y)
    assert np.max(np.abs(base - shifted)) < 1e-12
    shifted2 = k.pairwise(x, y + np.array([2.0, -3.0]))
    assert np.max(np.abs(base - shifted2)) < 1e-12


@pytest.mark.parametrize("fam", ("mq", "gauss"))
def test_poisson_series_fast_decay(fam):
    # truncated Fourier series at M=64 reproduces the closed form
    for dim in (1, 2):
        k = PeriodicKernel(fam, dim)
        t = np.linspace(-0.7, 1.4, 43)
        series = sum(k.profile.r(m) * np.cos(2 * math.pi * m * t) for m in range(-64, 65))
        assert np.max(np.abs(k.factor(t) - series)) < 1e-8


@pytest.mark.parametrize("fam", ("exp", "trunc"))
def test_poisson_series_slow_decay_within_tail_bound(fam):
    # 1/k^2 coefficients: the series residual at finite M is governed by
    # the tail mass, so check it against the analytic bound
    for dim in (1, 2):
        k = PeriodicKernel(fam, dim)
        prof = k.profile
        m_max = 3000
        t = np.linspace(0.05, 0.95, 19)
        series = sum(prof.r(m) * np.cos(2 * math.pi * m * t) for m in range(-m_max, m_max + 1))
        head = math.fsum(prof.r(m) for m in range(-m_max, m_max + 1))
        tail = prof.per_dim_total - head
        assert tail >= 0
        assert np.max(np.abs(k.factor(t) - series)) <= tail * 1.0001 + 1e-12


@pytest.mark.parametrize("fam", FAMILIES)
def test_fourier_coefficients_match_quadrature(fam):
    # independent check of the normalization: r(k) is the Fourier
    # transform of the closed-form factor over one period
    k = PeriodicKernel(fam, 2)

    def coeff(m: int) -> float:
        re, _ = integrate.quad(lambda t: float(k.factor(t)) * math.cos(2 * math.pi * m * t),
                               0.0, 1.0, limit=400)
        return re

    for m in (0, 1, 2, 5):
        assert coeff(m) == pytest.approx(k.profile.r(m), abs=2e-9)


def test_periodic_truncated_finite_sum():
    # the physical-side sum has support only at alpha in {-1, 0, 1}
    for dim in (1, 3):
        k = PeriodicKernel("trunc", dim)
        tau = 1 + 1 / dim
        t = np.linspace(0, 1, 37)
        direct = tau * sum(np.maximum(1 - tau * np.abs(t + a), 0.0) for a in (-1, 0, 1))
        assert np.max(np.abs(k.factor(t) - direct)) < 1e-15


def rank1_lattice(n: int, dim: int) -> np.ndarray:
    """y_n = frac(n z / N) for a Korobov-type generating vector z."""
    z = [pow(3, d, n) if n > 1 else 0 for d in range(dim)]
    return np.mod(np.outer(np.arange(n), z) / n, 1.0)


@pytest.mark.parametrize("fam", FAMILIES)
@pytest.mark.parametrize("n,dim", [(16, 1), (100, 3), (129, 8), (256, 32), (512, 128)])
def test_pair_mean_rank1_lattice_identity(fam, n, dim):
    # y_n - y_m is again a lattice point, so the Gram mean is the O(N D)
    # sum (1/N) sum_n K(y_n, 0) over the closed-form factor
    k = PeriodicKernel(fam, dim)
    y = rank1_lattice(n, dim)
    ref = float(k.elementwise(y, np.zeros_like(y)).mean())
    assert k.pair_mean(y) == pytest.approx(ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("fam", FAMILIES)
@pytest.mark.parametrize("n,dim", [(1, 2), (16, 1), (130, 3), (300, 16)])
def test_pair_mean_matches_full_matrix(fam, n, dim):
    # tiles of 128 points: a ragged last tile and several off-diagonal tiles
    k = PeriodicKernel(fam, dim)
    y = np.random.default_rng(n + dim).random((n, dim))
    assert k.pair_mean(y) == pytest.approx(k.pairwise(y, y).mean(), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("kid", ["tra-exp", "tra-gauss", "spline", "seed-mq"])
def test_pair_mean_half_sum_other_kernels(kid):
    k = kernel_from_id(kid, 3)
    y = np.random.default_rng(4).random((300, 3))
    assert k.pair_mean(y) == pytest.approx(k.pairwise(y, y).mean(), rel=1e-13, abs=0.0)


def log_series_terms(fam: str, dim: int) -> np.ndarray:
    """a_1 .. a_199 of log chi(t) = a_0 + sum a_k cos 2 pi k t, far past
    any cut: mq from -log(1 - 2q cos + q^2) = 2 sum q^k cos / k, gauss
    from the Jacobi triple product of theta_3."""
    q = PeriodicKernel(fam, dim).record.q
    k = np.arange(1, 200)
    if fam == "mq":
        return 2.0 * q**k / k
    return 2.0 * (-1.0) ** (k + 1) * q**k / (k * (1.0 - q ** (2 * k)))


@pytest.mark.parametrize("fam", ("mq", "gauss"))
@pytest.mark.parametrize("dim", [1, 2, 8, 128])
def test_log_series_matches_log_factor(fam, dim):
    rec = PeriodicKernel(fam, dim).record
    a0, coef = rec.log_series
    t = np.linspace(0.0, 1.0, 513)
    series = a0 + np.cos(2.0 * math.pi * np.outer(t, np.arange(1, len(coef) + 1))) @ coef
    # relative above 1: the D = 1 gauss log-factor reaches -2.1, where
    # np.log of the factor is itself 1.05e-15 off a 40-digit value
    ref = np.log(rec.factor(t))
    assert np.all(np.abs(series - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("fam", ("mq", "gauss"))
@pytest.mark.parametrize("dim", [1, 2, 8, 128])
def test_log_series_cut_where_dim_times_tail_drops_below_1e17(fam, dim):
    _, coef = PeriodicKernel(fam, dim).record.log_series
    ref = log_series_terms(fam, dim)
    kept = len(coef)
    assert np.allclose(coef, ref[:kept], rtol=1e-14, atol=0.0)
    # the first cut that works: one term fewer would not
    assert dim * np.abs(ref[kept:]).sum() < 1e-17 <= dim * np.abs(ref[kept - 1:]).sum()


def feature_edge(fam: str, dim: int) -> int:
    """The largest N whose log-series features of all dim dimensions fit
    one chunk of ``_FEATURE_DOUBLES``."""
    n_k = len(PeriodicKernel(fam, dim).record.log_series[1])
    return kernels._FEATURE_DOUBLES // (2 * n_k * dim)


# N on both sides of the 128-point band edge, a ragged last band, and on
# both sides of the one-chunk edge of the feature chunks (at D = 1 a
# chunk is never split, so there is no such edge)
LOG_SERIES_CASES = (
    [(fam, n, dim) for fam in ("mq", "gauss")
     for n, dim in [(2, 1), (1100, 1), (127, 3), (128, 3), (129, 3), (256, 2), (257, 2),
                    (512, 128)]]
    + [(fam, feature_edge(fam, dim) + side, dim) for fam in ("mq", "gauss")
       for dim in (2, 16, 128) for side in (0, 1)])


@pytest.mark.parametrize("fam,n,dim", LOG_SERIES_CASES)
def test_log_series_pair_mean_matches_dense_closed_forms(fam, n, dim, monkeypatch):
    k = PeriodicKernel(fam, dim)
    y = np.random.default_rng(7 * n + dim).random((n, dim))
    sizes = []
    build = kernels._cos_sin_multiples

    def recorded(cos, sin, n_k):
        out = build(cos, sin, n_k)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(kernels, "_cos_sin_multiples", recorded)
    value = k.pair_mean(y)
    assert value == pytest.approx(k.pairwise(y, y).mean(), rel=1e-13, abs=0.0)
    # one feature chunk per band up to the edge, more past it; a chunk
    # holds at most _FEATURE_DOUBLES doubles, or one dimension's features
    n_k = len(k.record.log_series[1])
    bands = -(-n // 128)
    assert max(sizes) <= max(kernels._FEATURE_DOUBLES, 2 * n_k * n)
    assert (len(sizes) > bands) == (dim > 1 and n > feature_edge(fam, dim))


@pytest.mark.parametrize("fam", ("mq", "gauss"))
def test_log_series_pair_mean_bit_reproducible(fam):
    k = PeriodicKernel(fam, 128)
    y = np.random.default_rng(3).random((512, 128))
    first = k.pair_mean(y)
    assert k.pair_mean(y) == first
    assert k.pair_mean(y.copy()) == first


@pytest.mark.parametrize("fam", ("exp", "trunc"))
def test_factor_blocks_match_closed_forms(fam):
    k = PeriodicKernel(fam, 3)
    y = np.random.default_rng(9).random((40, 3))
    setup = k.gram_setup(y)
    rows, cols = slice(0, 40), slice(10, 33)
    for d in range(3):
        t = y[rows, d, None] - y[None, cols, d]
        assert np.allclose(k.factor_block(setup, d, rows, cols), k.factor(t),
                           rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("fam", ("exp", "trunc"))
@pytest.mark.parametrize("dim", [1, 3])
def test_factor_logderiv_block_matches_closed_forms(fam, dim):
    # rows and cols overlap, so the block holds coincident coordinates
    # (t = 0), where the log-derivative is the symmetric subgradient 0
    k = PeriodicKernel(fam, dim)
    y = np.random.default_rng(9).random((40, dim))
    setup = k.gram_setup(y)
    rows, cols = slice(0, 40), slice(10, 33)
    for d in range(dim):
        t = y[rows, d, None] - y[None, cols, d]
        chi, ratio = k.factor_logderiv_block(setup, d, rows, cols)
        assert np.allclose(chi, k.factor(t), rtol=1e-14, atol=0.0)
        apart = t != 0.0
        # the truncated derivative jumps at its kinks; none are hit here
        assert np.allclose(ratio[apart], (k.factor_prime(t) / k.factor(t))[apart],
                           rtol=1e-12, atol=1e-12)
        assert np.all(ratio[~apart] == 0.0)


def test_trunc_logderiv_block_at_vanishing_factor():
    # the D = 1 truncated factor is 0 at |t| = 1/2, where chi' = 0 too
    k = PeriodicKernel("trunc", 1)
    setup = k.gram_setup(np.array([[0.25], [0.75]]))
    with np.errstate(all="raise"):
        chi, ratio = k.factor_logderiv_block(setup, 0, slice(None), slice(None))
    assert np.array_equal(chi, [[2.0, 0.0], [0.0, 2.0]])
    assert np.array_equal(ratio, np.zeros((2, 2)))


def test_fourier_coefficient_op():
    k = PeriodicKernel("gauss", 2)
    assert fourier_coefficient(k, LatticeIndex.make(2, {})) == 1.0
    assert fourier_coefficient(k, LatticeIndex.make(2, {0: 1})) == 0.25
    mq = PeriodicKernel("mq", 1)
    assert fourier_coefficient(mq, LatticeIndex.make(1, {0: 1})) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        fourier_coefficient(SeedKernel("exp", 2), LatticeIndex.make(2, {0: 1}))
    with pytest.raises(ValueError):
        fourier_coefficient(k, LatticeIndex.make(3, {0: 1}))


# --- transported kernels ---------------------------------------------------

def test_transported_diagonal_below_e():
    for fam in FAMILIES:
        for dim in (1, 2, 3, 16, 128):
            k = TransportedKernel(fam, dim)
            assert k.diagonal() <= math.e + 1e-9
            x = np.full((1, dim), 0.37)
            assert k.pairwise(x, x)[0, 0] == pytest.approx(k.diagonal(), rel=1e-12)


def _seed_formula(k, u, v):
    # the seed formula on transported coordinates, pair by pair
    diff = u - v
    if k.family == "exp":
        return np.exp(-k.record.tau * np.abs(diff).sum(axis=-1)) / k.record.beta
    sq = (diff * diff).sum(axis=-1)
    if k.family == "mq":
        return k.record.beta * (1 + k.record.tau**2 * sq) ** (-(k.dim + 1) / 2.0)
    if k.family == "gauss":
        return k.record.beta * np.exp(-k.record.tau**2 * sq)
    return (1 + k.record.tau * sq) ** (-float(k.dim))


def test_transported_matches_mapped_formula():
    # eval factorizes through S: independent inline formulas on an
    # mpmath transport, with rows at the clamp edge and rows coinciding
    # across and within the two sets
    rng = np.random.default_rng(2)
    for dim in (2, 16, 128):
        x = rng.random((8, dim))
        y = rng.random((8, dim))
        x[0] = 1e-13
        y[1] = 1.0 - 1e-13
        y[2] = x[3]
        x[5] = x[4]
        sx = _mp_transport(np.clip(x, 1e-12, 1 - 1e-12))
        sy = _mp_transport(np.clip(y, 1e-12, 1 - 1e-12))
        for fam in FAMILIES:
            k = TransportedKernel(fam, dim)
            ref = _seed_formula(k, sx[:, None, :], sy[None, :, :])
            assert np.max(np.abs(k.pairwise(x, y) - ref)) < 1e-10
            assert np.max(np.abs(k.elementwise(x, y) - _seed_formula(k, sx, sy))) < 1e-10
            # coincident rows: no squared distance below 0, so no value
            # above the diagonal, and the diagonal of K(x, x) is K(0)
            for kmat in (k.pairwise(x, y), k.pairwise(x, x), k.pairwise(x, x.copy())):
                assert np.all(kmat <= k.diagonal())
            kxx = k.pairwise(x, x)
            assert np.max(np.abs(np.diagonal(kxx) - k.diagonal())) <= 1e-12 * k.diagonal()
            ref = _seed_formula(k, sx[:, None, :], sx[None, :, :])
            assert np.max(np.abs(kxx - ref)) < 1e-10


@pytest.mark.parametrize("dim", [1, 2, 16, 128])
def test_transported_is_scaled_seed_kernel(dim):
    # tra-exp, tra-mq and tra-gauss are value_scale * seed kernel on
    # coord_scale * S(x), both scales from (tau, beta) alone; tra-trunc is
    # (1 + tau r)^(-D), not a seed kernel.  The references sum exact
    # per-dimension differences, a route independent of the matrix-product
    # distances of the transported kernels
    rng = np.random.default_rng(11)
    x = rng.random((9, dim))
    y = rng.random((7, dim))
    y[2] = x[3]
    scales = {"exp": lambda tau, beta: (tau, 1.0 / beta),
              "mq": lambda tau, beta: (tau, beta),
              "gauss": lambda tau, beta: (math.sqrt(2.0) * tau, beta)}
    for fam, scale in scales.items():
        k = TransportedKernel(fam, dim)
        coord_scale, value_scale = scale(k.record.tau, k.record.beta)
        u, v = coord_scale * k.map_points(x), coord_scale * k.map_points(y)
        seed = SeedKernel(fam, dim)
        np.testing.assert_allclose(k.pairwise(x, y), value_scale * seed.pairwise(u, v),
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(k.elementwise(x[:7], y),
                                   value_scale * seed.elementwise(u[:7], v), rtol=1e-12, atol=0)
    k = TransportedKernel("trunc", dim)
    u, v = k.map_points(x), k.map_points(y)
    sq = sum((u[:, None, d] - v[None, :, d]) ** 2 for d in range(dim))
    np.testing.assert_allclose(k.pairwise(x, y), (1.0 + k.record.tau * sq) ** (-float(dim)),
                               rtol=1e-12, atol=0)


def test_transported_boundary_clamp():
    k = TransportedKernel("gauss", 1)
    edge = k.pairwise(np.array([[0.0]]), np.array([[0.5]]))[0, 0]
    near = k.pairwise(np.array([[1e-13]]), np.array([[0.5]]))[0, 0]
    assert math.isfinite(edge) and edge >= 0
    assert abs(edge - near) < 1e-10


@pytest.mark.parametrize("fam", FAMILIES)
def test_transported_integrals_match_quad_at_d1(fam):
    # at D = 1 the single integral is a plain quadrature over y in (0, 1),
    # which shares nothing with the closed forms but the kernel's values;
    # the double integral is one over w = S(x) - S(y) ~ N(0, 1)
    from scipy import stats

    k = TransportedKernel(fam, 1)
    xs = [1e-6, 0.02, 0.3, 0.5, 0.85, 0.999]
    ref = [integrate.quad(lambda y: k(x, y), 0.0, 1.0, points=[x], limit=500,
                          epsabs=0.0, epsrel=1e-13)[0] for x in xs]
    assert k.integral_single(np.array(xs)[:, None]) == pytest.approx(ref, rel=1e-10)
    dist = abs if k.record.formula.l1 else np.square
    ref = integrate.quad(lambda w: k.record.phi(np.array([dist(w)]))[0] * stats.norm.pdf(w),
                         -np.inf, np.inf, limit=500, epsabs=0.0, epsrel=1e-13)[0]
    assert k.integral_double() == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("fam", ("mq", "gauss", "trunc"))
@pytest.mark.parametrize("dim", [3, 8])
def test_transported_integrals_match_chi_square_quadrature(fam, dim):
    # with v = S(y) ~ N(0, I/2), 2|u - v|^2 is noncentral chi-square with
    # noncentrality 2|u|^2, and |S(x) - S(y)|^2 is chi-square: one 1-D
    # quadrature of the radial formula each, free of the Gamma mixture
    from scipy import stats

    k = TransportedKernel(fam, dim)
    u = k.map_points(uniform_points(dim, 5, dim).coords)
    u[0] *= 0.0
    u[1, 0] = -3.6  # S(1e-7), where the descent's box ends

    def phi(r):
        return k.record.phi(np.array([r]))[0]

    for row, value in zip(u, k.integral_single_mapped(u)[0]):
        nc = 2.0 * float(row @ row)
        ref = integrate.quad(lambda rho: phi(rho / 2.0) * stats.ncx2.pdf(rho, dim, nc),
                             0.0, np.inf, limit=500, epsabs=0.0, epsrel=1e-12)[0]
        assert value == pytest.approx(ref, rel=1e-9, abs=1e-15 * k.diagonal())
    ref = integrate.quad(lambda rho: phi(rho) * stats.chi2.pdf(rho, dim),
                         0.0, np.inf, limit=500, epsabs=0.0, epsrel=1e-12)[0]
    assert k.integral_double() == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("fam", FAMILIES)
@pytest.mark.parametrize("dim", [1, 3])
def test_transported_integral_gradient_matches_fd(fam, dim):
    k = TransportedKernel(fam, dim)
    u = k.map_points(uniform_points(11, 6, dim).coords)
    _, grad = k.integral_single_mapped(u)
    h = 1e-6
    for d in range(dim):
        step = np.zeros_like(u)
        step[:, d] = h
        fd = (k.integral_single_mapped(u + step)[0] - k.integral_single_mapped(u - step)[0]) / (2 * h)
        assert grad[:, d] == pytest.approx(fd, rel=1e-6, abs=1e-10)


@pytest.mark.parametrize("a", [1.0, 1.5, 64.0, 200.0, 500.0])
def test_gamma_rule_is_normalized_with_gamma_moments(a):
    # s ~ Gamma(a, 1) has mean a and variance a; Gamma(a) itself is
    # infinite in double precision from a = 172 on
    s, w = kernels._gamma_rule(a)
    assert np.all(np.isfinite(w)) and np.all(w > 0)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    mean = float(w @ s)
    assert mean == pytest.approx(a, rel=1e-13)
    assert float(w @ (s - mean) ** 2) == pytest.approx(a, rel=1e-12)


# --- spline kernel ----------------------------------------------------------

def test_spline_values():
    k = SplineKernel(1)
    assert k([0.25], [0.75]) == pytest.approx(0.0625)
    assert k([0.25], [0.25]) == pytest.approx(0.1875)
    assert pseudo_distance(k, [0.25], [0.75]) == pytest.approx(0.25)
    assert k([0.0], [0.6]) == 0.0 and k([1.0], [0.6]) == 0.0
    k2 = SplineKernel(2)
    assert k2([0.25, 0.5], [0.75, 0.5]) == pytest.approx(0.0625 * 0.25)


def test_spline_integrals_by_quadrature():
    k = SplineKernel(1)
    for x in (0.2, 0.5, 0.9):
        val, _ = integrate.quad(lambda y: k([x], [y]), 0, 1)
        assert val == pytest.approx(x * (1 - x) / 2, abs=1e-12)
        assert k.integral_single(np.array([[x]]))[0] == pytest.approx(x * (1 - x) / 2)
    # dblquad only resolves the diagonal kink to ~1e-8
    dbl, _ = integrate.dblquad(lambda y, x: k([x], [y]), 0, 1, 0, 1)
    assert dbl == pytest.approx(1.0 / 12.0, abs=1e-7)
    assert k.integral_double() == pytest.approx(1.0 / 12.0)


# --- pseudo-distance and kernel ids ---------------------------------------

@pytest.mark.parametrize("kid", ALL_IDS + ["spline"])
def test_pseudo_distance_properties(kid):
    k = kernel_from_id(kid, 2)
    rng = np.random.default_rng(4)
    for _ in range(5):
        x, y = rng.random(2), rng.random(2)
        assert pseudo_distance(k, x, x) == 0.0
        d = pseudo_distance(k, x, y)
        assert d >= 0.0
        assert d == pytest.approx(pseudo_distance(k, y, x), rel=1e-12, abs=1e-15)


def test_kernel_from_id_grammar():
    assert kernel_from_id("per-gauss", 3).kernel_id == "per-gauss"
    assert kernel_from_id("spline", 2).dim == 2
    for bad in ("per-cubic", "loc-exp", "per", "perexp", "per-exp-extra"):
        with pytest.raises(ValueError):
            kernel_from_id(bad, 2)


def test_eval_validation():
    k = PeriodicKernel("exp", 2)
    with pytest.raises(ValueError):
        k([0.1], [0.2, 0.3])
    with pytest.raises(ValueError):
        k([0.1, math.nan], [0.2, 0.3])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CUBE_IDS), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
       st.floats(0, 1))
def test_property_symmetry_on_cube(kid, x0, x1, y0, y1):
    k = kernel_from_id(kid, 2)
    a = np.array([x0, x1])
    b = np.array([y0, y1])
    assert k(a, b) == pytest.approx(k(b, a), rel=1e-12, abs=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(FAMILIES), st.floats(-3, 3), st.integers(-2, 2))
def test_property_periodicity(fam, t, shift):
    k = PeriodicKernel(fam, 1)
    assert k.factor(t + shift) == pytest.approx(float(k.factor(t)), rel=1e-12, abs=1e-12)
