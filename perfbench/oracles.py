"""Correctness oracles for the benchmark, computed apart from kerndisc.

Nothing here imports kerndisc.  Points are regenerated with NumPy's
``RandomState``, whose ``random_sample`` stream is bit-identical to the
package's MT19937 (53-bit doubles, ``init_genrand`` seeding).  Each
periodic 1-D factor is evaluated from a different closed form than the
package uses where one exists (cosh form for exp, Gaussian image sum
for gauss), and the Fourier coefficients r(k) are restated from the
kernels' definitions.

Every check returns a list of problem strings; an empty list passes.
Value comparisons are made on E^2 with an absolute floor of 1e-12 plus
a relative 1e-9, so a 1% change of a nonzero E (2% of E^2) is caught.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

N_GRID = (16, 32, 64, 128, 256, 512)
D_GRID = (1, 2, 4, 8, 16, 32, 64, 128)
PER_FAMILIES = ("exp", "mq", "gauss", "trunc")

# The paper's asymptotic tables (3 decimals); rows N in N_GRID, columns
# D in D_GRID.  The truncated kernel has no reference table.
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
TABLE_TOL = 0.0015
# statistical checks pass within this many standard errors; with about
# a hundred such tests per set of runs, 5 keeps false alarms below 1e-4
Z_LIMIT = 5.0


def cell_seed(base: int, n: int, d: int) -> int:
    """The documented per-cell seed base + 1000003 D + N mod 2^32."""
    return (int(base) + 1000003 * int(d) + int(n)) % 2**32


def regenerate_points(seed: int, n: int, d: int) -> np.ndarray:
    return np.random.RandomState(seed).random_sample(n * d).reshape(n, d)


def e2_close(reported: float, reference: float) -> bool:
    """Reported E against a reference E^2 (the reported E is clamped at 0)."""
    ref = max(reference, 0.0)
    return abs(reported * reported - ref) <= 1e-12 + 1e-9 * ref


# periodic kernels ----------------------------------------------------------

def per_factor(family: str, dim: int, t: np.ndarray) -> np.ndarray:
    """The 1-D periodic factor at fractional offsets t in [0, 1)."""
    f = np.mod(t, 1.0)
    if family == "exp":
        tau = math.sqrt(12.0 / dim)
        return (tau / 2.0) * np.cosh(tau * (f - 0.5)) / math.sinh(tau / 2.0)
    if family == "mq":
        q = 1.0 / (2.0 * dim + 1.0)
        return (1.0 - q * q) / (1.0 - 2.0 * q * np.cos(2.0 * math.pi * f) + q * q)
    if family == "gauss":
        # theta_3(pi f, q) by Poisson summation: sqrt(pi/a) sum_m exp(-pi^2 (f-m)^2 / a)
        a = math.log(2.0 * dim)
        reach = int(math.ceil(math.sqrt(45.0 * a) / math.pi)) + 1
        out = np.zeros_like(f)
        for m in range(-reach, reach + 2):
            out += np.exp(-math.pi**2 * (f - m) ** 2 / a)
        return math.sqrt(math.pi / a) * out
    if family == "trunc":
        tau = 1.0 + 1.0 / dim
        # periodized hat tau (1 - tau|t|)_+ ; support 1/tau < 1 needs two images
        return tau * (np.maximum(1.0 - tau * f, 0.0) + np.maximum(1.0 - tau * (1.0 - f), 0.0))
    raise ValueError(f"unknown family {family!r}")


def per_r(family: str, dim: int, k: np.ndarray) -> np.ndarray:
    """Closed-form Fourier coefficient r(k) of the 1-D factor."""
    k = np.abs(np.asarray(k, dtype=float))
    if family == "exp":
        return 1.0 / (1.0 + math.pi**2 * k * k * dim / 3.0)
    if family == "mq":
        return (1.0 / (2.0 * dim + 1.0)) ** k
    if family == "gauss":
        return (1.0 / (2.0 * dim)) ** (k * k)
    if family == "trunc":
        return np.sinc(k * dim / (dim + 1.0)) ** 2
    raise ValueError(f"unknown family {family!r}")


def per_r_outside_max(family: str, dim: int, k: int) -> float:
    """An upper bound on r(j) for every |j| >= k."""
    if family == "trunc":
        return ((1.0 + 1.0 / dim) / (math.pi * k)) ** 2
    return float(per_r(family, dim, k))


def per_total(family: str, dim: int) -> float:
    """T^D = K(x, x), the diagonal of the D-dimensional kernel."""
    return float(per_factor(family, dim, np.zeros(1))[0]) ** dim


def periodic_e2(family: str, y: np.ndarray) -> float:
    """E^2 = mean of the Gram matrix minus 1."""
    n, dim = y.shape
    gram = np.ones((n, n))
    for d in range(dim):
        gram *= per_factor(family, dim, y[:, d, None] - y[None, :, d])
    return float(gram.mean()) - 1.0


def fourier_bracket(family: str, y: np.ndarray, box: int) -> tuple[float, float]:
    """(head, head + mass outside the box) around E^2, for D <= 2.

    E^2 = sum_{alpha != 0} rho(alpha) |S_alpha|^2 with |S_alpha| <= 1, so
    the head over |alpha_d| <= box is a lower bound and adding the
    coefficient mass outside the box gives an upper bound.
    """
    n, dim = y.shape
    k = np.arange(-box, box + 1)
    waves = [np.exp(2j * math.pi * np.outer(y[:, d], k)) for d in range(dim)]
    r = per_r(family, dim, k)
    if dim == 1:
        s2 = np.abs(waves[0].mean(axis=0)) ** 2
        rho = r
    elif dim == 2:
        s2 = np.abs(waves[0].T @ waves[1] / n) ** 2
        rho = np.outer(r, r)
    else:
        raise ValueError("the Fourier bracket is computed for D <= 2 only")
    s2 = s2.ravel().copy()
    rho = rho.ravel()
    s2[rho.size // 2] = 0.0  # alpha = 0
    head = math.fsum(rho * s2)
    outside = per_total(family, dim) - math.fsum(r) ** dim
    return head, head + max(outside, 0.0)


def brute_force_asymptotic(family: str, dim: int, n: int) -> float:
    """sqrt((T^D - sum of the N largest rho) / N) by sorting a box, D <= 2."""
    box = 64
    while True:
        r = per_r(family, dim, np.arange(-box, box + 1))
        rho = r if dim == 1 else np.outer(r, r).ravel()
        top = np.sort(rho)[::-1][:n]
        if top.size == n and top[-1] >= per_r_outside_max(family, dim, box + 1):
            break
        box *= 2
    tail = per_total(family, dim) - math.fsum(top)
    return math.sqrt(max(tail, 0.0) / n)


def equispaced_exp_1d(n: int) -> float:
    """E of N equispaced points for per-exp in D = 1: sqrt(a coth a - 1), a = sqrt(3)/N."""
    a = math.sqrt(3.0) / n
    return math.sqrt(a / math.tanh(a) - 1.0)


# transported Gaussian --------------------------------------------------------

def _transport(x: np.ndarray) -> np.ndarray:
    """S(x) = erfinv(2x - 1), with the kernel's clamp to [1e-12, 1 - 1e-12]."""
    return special.erfinv(2.0 * np.clip(x, 1e-12, 1.0 - 1e-12) - 1.0)


def _tra_gauss_scale(dim: int) -> tuple[float, float]:
    """(tau^2, beta) of K = beta exp(-tau^2 |S(x) - S(y)|^2)."""
    tau2 = 2.0 / dim
    return tau2, (1.0 + tau2) ** (dim / 2.0)


def _tra_gauss_pair_mean(u: np.ndarray) -> float:
    tau2, beta = _tra_gauss_scale(u.shape[1])
    sq = ((u[:, None, :] - u[None, :, :]) ** 2).sum(axis=2)
    return float((beta * np.exp(-tau2 * sq)).mean())


def tra_gauss_e2(y: np.ndarray) -> float:
    """Closed form of E^2 for tra-gauss.

    With S(x) = erfinv(2x - 1) a uniform x maps to N(0, 1/2) per
    coordinate, so both integrals are Gaussian.
    """
    dim = y.shape[1]
    tau2, beta = _tra_gauss_scale(dim)
    u = _transport(y)
    double = beta * (1.0 + 2.0 * tau2) ** (-dim / 2.0)
    single = beta * np.prod((1.0 + tau2) ** -0.5 * np.exp(-tau2 * u * u / (1.0 + tau2)), axis=1)
    return double + _tra_gauss_pair_mean(u) - 2.0 * float(single.mean())


def tra_gauss_mc_stat(y: np.ndarray, samples: int, seed: int) -> np.ndarray:
    """The statistic K(a_j, b_j) - (2/N) sum_n K(a_j, y_n) that the
    shared-sample MC estimator averages, for ``samples`` pairs (a_j, b_j):
    the next ``samples`` D-vectors twice from RandomState(seed)."""
    n, dim = y.shape
    tau2, beta = _tra_gauss_scale(dim)
    rng = np.random.RandomState(seed)
    a = _transport(rng.random_sample((samples, dim)))
    b = _transport(rng.random_sample((samples, dim)))
    u = _transport(y)
    cross = np.zeros((samples, n))
    for k in range(dim):
        cross += (a[:, k, None] - u[None, :, k]) ** 2
    kab = beta * np.exp(-tau2 * ((a - b) ** 2).sum(axis=1))
    return kab - (2.0 / n) * (beta * np.exp(-tau2 * cross)).sum(axis=1)


# checks over workload outputs -------------------------------------------------

def check_random_cell(family: str, base_seed: int, n: int, d: int, e: float,
                      own_limit: int, bracket_box: dict) -> list[str]:
    """One random-table cell of a per-* family.

    Regenerates the cell's points, recomputes E^2 when N^2 D <=
    ``own_limit`` and brackets E^2 by Fourier sums when D <= 2.
    """
    where = f"per-{family} random N={n} D={d}"
    if not (math.isfinite(e) and e >= 0.0):
        return [f"{where}: E = {e!r}"]
    if n * n * d > own_limit and d > 2:
        return []
    problems = []
    y = regenerate_points(cell_seed(base_seed, n, d), n, d)
    if n * n * d <= own_limit:
        ref = periodic_e2(family, y)
        if not e2_close(e, ref):
            problems.append(f"{where}: E = {e!r}, own evaluation {math.sqrt(max(ref, 0.0))!r}")
    if d <= 2:
        lo, hi = fourier_bracket(family, y, bracket_box[d])
        e2 = e * e
        slack = 1e-12 + 1e-9 * e2
        if not lo - slack <= e2 <= hi + slack:
            problems.append(f"{where}: E^2 = {e2!r} outside Fourier bracket [{lo!r}, {hi!r}]")
    return problems


def check_random_law(family: str, values: dict) -> tuple[list[str], float, float]:
    """E[N E^2 / (T^D - 1)] = 1 for i.i.d. uniform points, over the cells
    of ``values`` ((N, D) -> E); returns (problems, mean, standard error)."""
    ratios = np.array([n * e * e / (per_total(family, d) - 1.0)
                       for (n, d), e in values.items() if math.isfinite(e)])
    if ratios.size < 2:
        return [f"per-{family} random law: fewer than two cells"], math.nan, math.nan
    mean = float(ratios.mean())
    se = float(ratios.std(ddof=1) / math.sqrt(ratios.size))
    if abs(mean - 1.0) > Z_LIMIT * se:
        return [f"per-{family} random law: mean N E^2/(T^D-1) = {mean:.4f} "
                f"+- {se:.4f}, not within {Z_LIMIT} SE of 1"], mean, se
    return [], mean, se


def check_asymptotic(family: str, values: dict) -> list[str]:
    """Asymptotic cells against the paper tables and, for D <= 2, a brute-force sort."""
    problems = []
    table = ASYMPTOTIC_TABLES.get(family)
    for (n, d), e in sorted(values.items()):
        if table is not None and n in N_GRID and d in D_GRID:
            ref = table[N_GRID.index(n)][D_GRID.index(d)]
            if not abs(e - ref) <= TABLE_TOL:
                problems.append(f"per-{family} asymptotic N={n} D={d}: E = {e!r}, "
                                f"paper table {ref}")
        if d <= 2:
            ref = brute_force_asymptotic(family, d, n)
            if not e2_close(e, ref * ref):
                problems.append(f"per-{family} asymptotic N={n} D={d}: E = {e!r}, "
                                f"brute-force sort {ref!r}")
    return problems


def check_optimized(family: str, n: int, d: int, seed: int, e: float,
                    points: np.ndarray) -> list[str]:
    """One optimized cell: the returned points score E, better than the start."""
    where = f"per-{family} optimized N={n} D={d}"
    if points.shape != (n, d) or not np.all(np.isfinite(points)):
        return [f"{where}: returned points of shape {points.shape}"]
    problems = []
    own = periodic_e2(family, points)
    if not e2_close(e, own):
        problems.append(f"{where}: E = {e!r}, own evaluation of the returned points "
                        f"{math.sqrt(max(own, 0.0))!r}")
    start = math.sqrt(max(periodic_e2(family, regenerate_points(seed, n, d)), 0.0))
    if not e < start:
        problems.append(f"{where}: E = {e!r} is not below its random start {start!r}")
    if family == "exp" and d == 1:
        target = equispaced_exp_1d(n)
        if not abs(e - target) <= 0.02 * target:
            problems.append(f"{where}: E = {e!r}, equispaced value {target!r} (2%)")
    return problems


def check_tra_gauss(n: int, d: int, seed: int, e: float, samples: int,
                    mc_seed: int) -> tuple[list[str], float]:
    """A tra-gauss MC cell; returns (problems, z against the closed form).

    The closed form bounds the estimator's bias to a few standard
    errors; replaying the estimator on the regenerated MC sample
    (seed ``mc_seed``) pins the reported value itself.
    """
    where = f"tra-gauss random N={n} D={d}"
    y = regenerate_points(seed, n, d)
    ref = tra_gauss_e2(y)
    # the standard error from 8192 fresh pairs, scaled to ``samples``
    se = tra_gauss_mc_stat(y, 8192, seed ^ 0x5A5A5A5A).std(ddof=1) / math.sqrt(samples)
    z = (e * e - ref) / se
    problems = []
    if not abs(z) <= Z_LIMIT:
        problems.append(f"{where}: E^2 = {e * e!r}, closed form {ref!r}, z = {z:.2f}")
    replay = (float(tra_gauss_mc_stat(y, samples, mc_seed).mean())
              + _tra_gauss_pair_mean(_transport(y)))
    if not e2_close(e, replay):
        problems.append(f"{where}: E = {e!r}, replayed MC estimate "
                        f"{math.sqrt(max(replay, 0.0))!r}")
    return problems, z
