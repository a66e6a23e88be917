"""The integration-discrepancy function E_K in its three formulations.

For a kernel K on the unit cube and points Y = (y^1..y^N),

    E^2 = iint K  +  (1/N^2) sum_{n,m} K(y^n, y^m)  -  (2/N) sum_n int K(., y^n)

(physical form).  For periodic kernels with rho(0) = 1 both integrals
equal 1, so E^2 = mean of the Gram entries minus 1 (closed form).  For
the spline and the transported kernels the integrals are explicit; the
spline error can also be evaluated in spectral variables from the
eigenbasis.  The asymptotic estimate sqrt(tail_mass(N)/N) comes from the
coefficient profile alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import lattice
from .kernels import Kernel, PeriodicKernel, SplineKernel, TransportedKernel, coefficient_profile
from .rkhs import NormParams, PointSet
from .sampling import MT19937

__all__ = [
    "DiscrepancyReport",
    "MAX_ARRAY_BYTES",
    "MonteCarlo",
    "UnsupportedMethodError",
    "check_array_bytes",
    "physical_error",
    "periodic_error",
    "periodic_error_sp",
    "spectral_error",
    "asymptotic_error",
]

# every pass over MC samples against a point set runs in blocks of about
# _SAMPLE_BLOCK_PAIRS sample-point pairs, so a block's (rows, N) and
# (rows, D) temporaries stay in a core's L2 cache
_SAMPLE_BLOCK_PAIRS = 512 * 64
# the largest array a size-checked allocation may make
MAX_ARRAY_BYTES = 2**30


def check_array_bytes(count: int, itemsize: int, what: str) -> None:
    """Refuse, before allocating, ``count`` items above MAX_ARRAY_BYTES, named by ``what``."""
    if count * itemsize > MAX_ARRAY_BYTES:
        raise ValueError(f"{what} would need {count * itemsize / 2**30:.1f} GiB "
                         f"(limit {MAX_ARRAY_BYTES / 2**30:.0f} GiB)")


class UnsupportedMethodError(ValueError):
    """Exact integrals requested for a kernel without closed forms."""


@dataclass(frozen=True)
class MonteCarlo:
    """Monte-Carlo integral settings: shared-sample estimator with a seed.

    The random tables of the transported kernels use it: it is the
    paper's random strategy, an estimate with a standard error.  Their
    exact integrals are ``physical_error(..., "exact")``.
    """

    samples: int = 2**16
    seed: int = 0

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("samples must be >= 2")


@dataclass(frozen=True)
class DiscrepancyReport:
    """A discrepancy value with its provenance.

    ``value`` is sqrt(max(squared_value, 0)); ``squared_value`` keeps the
    raw (possibly slightly negative) square.  ``metadata`` carries
    estimator details: MC sample count/seed and standard errors, or the
    spectral truncation bound.
    """

    value: float
    squared_value: float
    method: str
    kernel_id: str
    n: int
    dim: int
    norm_params: NormParams | None = None
    metadata: dict = field(default_factory=dict)

    @staticmethod
    def from_squared(squared: float, method: str, kernel_id: str, n: int, dim: int,
                     norm_params: NormParams | None = None, **metadata) -> "DiscrepancyReport":
        return DiscrepancyReport(
            value=math.sqrt(max(squared, 0.0)),
            squared_value=squared,
            method=method,
            kernel_id=kernel_id,
            n=n,
            dim=dim,
            norm_params=norm_params,
            metadata=metadata,
        )


def periodic_error(kernel: Kernel, points: PointSet) -> DiscrepancyReport:
    """Closed form for periodic kernels: E^2 = mean of K(Y,Y) - 1."""
    if not isinstance(kernel, PeriodicKernel):
        raise UnsupportedMethodError("periodic_error requires a periodic kernel")
    if kernel.dim != points.dim:
        raise ValueError("kernel/point dimension mismatch")
    squared = kernel.pair_mean(points.coords) - 1.0
    return DiscrepancyReport.from_squared(
        squared, "periodic-closed-form", kernel.kernel_id, points.n, points.dim)


def physical_error(kernel: Kernel, points: PointSet,
                   integrals: str | MonteCarlo = "exact") -> DiscrepancyReport:
    """E_K from the physical-variable expansion.

    ``integrals="exact"`` takes the kernel's ``integral_single`` and
    ``integral_double``, which the spline and the transported kernels
    have; a periodic kernel's integrals are both 1, and ``periodic_error``
    evaluates it.  A MonteCarlo spec estimates both integrals for any
    kernel on the cube: the double integral is averaged over sample pairs
    and the single integrals share one sample set across all points.
    """
    if kernel.dim != points.dim:
        raise ValueError("kernel/point dimension mismatch")
    if isinstance(integrals, MonteCarlo):
        return _physical_error_mc(kernel, points, integrals)
    if integrals != "exact":
        raise ValueError(f"unknown integral mode {integrals!r}")
    if isinstance(kernel, (SplineKernel, TransportedKernel)):
        singles = kernel.integral_single(points.coords)
        squared = (kernel.integral_double() + kernel.pair_mean(points.coords)
                   - 2.0 * float(singles.mean()))
        return DiscrepancyReport.from_squared(
            squared, "physical", kernel.kernel_id, points.n, points.dim)
    raise UnsupportedMethodError(
        f"no closed-form integrals for kernel {kernel.kernel_id!r}; use periodic_error "
        "for a periodic kernel, or a MonteCarlo spec")


def _physical_error_mc(kernel: Kernel, points: PointSet, mc: MonteCarlo) -> DiscrepancyReport:
    """The shared-sample estimator: the mean over j of K(a_j, b_j) -
    (2/N) sum_n K(a_j, y^n), plus the Gram mean; a, then b, each (m, D),
    from MT19937(seed).  Each block of _SAMPLE_BLOCK_PAIRS // N samples
    (at least one) is mapped, paired and summed against the point set
    while it is in cache.  Every sample's term is formed within its own
    row, so the block size does not change a digit of the result.
    """
    m, n, dim = mc.samples, points.n, points.dim
    check_array_bytes(m * dim, 8, f"the array of {m} MC samples at D={dim}")
    gen = MT19937(mc.seed)
    a, b = (gen.random(m * dim).reshape(m, dim) for _ in range(2))
    y = kernel.map_points(points.coords)
    stat = np.empty(m)
    rows = max(1, _SAMPLE_BLOCK_PAIRS // n)
    for blk in (slice(lo, lo + rows) for lo in range(0, m, rows)):
        ua = kernel.map_points(a[blk])
        pair_vals = kernel.elementwise_mapped(ua, kernel.map_points(b[blk]))
        row_sums = kernel.kernel_mapped(ua, y).sum(axis=1)
        stat[blk] = pair_vals - (2.0 / n) * row_sums
    gram_mean = kernel.pair_mean(points.coords)
    squared = float(stat.mean()) + gram_mean
    se_sq = float(stat.std(ddof=1) / math.sqrt(m))
    value = math.sqrt(max(squared, 0.0))
    se_val = se_sq / (2.0 * value) if value > 0 else math.inf
    return DiscrepancyReport.from_squared(
        squared, "physical-mc", kernel.kernel_id, points.n, points.dim,
        mc_samples=m, mc_seed=mc.seed, se_squared=se_sq, se_value=se_val)


def asymptotic_error(kernel: Kernel | str, n_points: int,
                     dim: int | None = None) -> DiscrepancyReport:
    """sqrt(tail_mass(N)/N) for a periodic kernel (or family name + dim)."""
    if isinstance(kernel, str):
        if dim is None:
            raise ValueError("dim required when passing a family name")
        profile = coefficient_profile(kernel, dim)
        kid = f"per-{kernel}"
    elif isinstance(kernel, PeriodicKernel):
        profile = kernel.profile
        dim = kernel.dim
        kid = kernel.kernel_id
    else:
        raise UnsupportedMethodError("asymptotic_error requires a periodic kernel")
    value = lattice.asymptotic_discrepancy(profile, n_points)
    return DiscrepancyReport.from_squared(
        value * value, "asymptotic", kid, n_points, dim)


def periodic_error_sp(kernel: PeriodicKernel, points: PointSet, params: NormParams,
                      n_terms: int | None = None) -> DiscrepancyReport:
    """General-(s, p) lattice error over enumerated indices.

    Sums rho(alpha)^s |(1/N) sum_n exp(2 i pi <y^n, alpha>)|^p over the
    first ``n_terms`` nonzero indices (default 10 N), cut back to the last
    whole group of equal coefficients (ValueError if none fits), so no
    tie order matters; ``metadata["n_terms"]`` is the count kept.  For
    s >= 1 the analytic bound on the omitted tail, including the rounding
    error of the tail mass, is reported as metadata.  Phase arrays above
    MAX_ARRAY_BYTES are refused before the enumeration.

    The exponent is ``params.p`` itself, while ``spectral_error`` uses
    the conjugate p' = p/(p-1); the two conventions agree only at p = 2.
    """
    if not isinstance(kernel, PeriodicKernel):
        raise UnsupportedMethodError("periodic_error_sp requires a periodic kernel")
    if kernel.dim != points.dim:
        raise ValueError("kernel/point dimension mismatch")
    count = n_terms if n_terms is not None else 10 * points.n
    if count < 1:
        raise ValueError("n_terms must be >= 1")
    check_array_bytes(points.n * count, 16, f"the phase array of {count} terms at N={points.n}")
    # one term past the cut: the terms tied with it are dropped
    terms = lattice.enumerate_decreasing(kernel.profile, count + 2)
    while count and terms[count].coefficient == terms[-1].coefficient:
        count -= 1
    if count == 0:
        raise ValueError(f"n_terms={len(terms) - 2} ends inside the first group of equal "
                         "coefficients; pass more terms")
    alphas = np.array([t.index.dense() for t in terms[1:count + 1]], dtype=float)
    rho = np.array([t.coefficient for t in terms[1:count + 1]])
    phases = 2.0 * math.pi * (points.coords @ alphas.T)
    mods = np.abs(np.exp(1j * phases).mean(axis=0))
    s, p = params.s, params.p
    total = float(np.sum(rho**s * mods**p))
    tail_bound = None
    if s >= 1.0:
        # the omitted terms are at most rho_min^(s-1) times their tail
        # mass; T^D - partial sum cancels to rounding once the tail is
        # tiny, so its rounding error is added and the bound never reads
        # a false zero
        tail = lattice.tail_mass(kernel.profile, count + 1)
        rounding = (kernel.dim + 2) * 2.0**-52 * kernel.profile.total()
        tail_bound = float(rho[-1] ** (s - 1.0) * (tail + rounding))
    value = total ** (1.0 / p)
    return DiscrepancyReport(
        value=value, squared_value=total if p == 2.0 else value * value,
        method=f"lattice-sp(s={s},p={p})", kernel_id=kernel.kernel_id,
        n=points.n, dim=points.dim, norm_params=params,
        metadata={"n_terms": count, "tail_bound": tail_bound},
    )


def spectral_error(points: PointSet, params: NormParams | None = None,
                   max_index: int = 10_000,
                   exact_tail_period: int | None = None) -> DiscrepancyReport:
    """Spline-kernel error in spectral variables.

    Computes c_alpha = int zeta_alpha - (1/N) sum_n zeta_alpha(y^n) for
    all alpha with max component <= ``max_index`` and returns the
    weighted sum (sum lambda^{s p'/2} |c|^{p'})^{1/p'}; p = 1 uses the
    sup over computed terms.  The geometric tail bound from the
    eigenvalue decay is reported as metadata.

    The exponent is the conjugate p' = p/(p-1) of ``params.p``, while
    ``periodic_error_sp`` uses p itself; the two conventions agree only
    at p = 2.

    The truncated head converges only like 1/max_index.  When every
    coordinate lies on a rational grid the coefficient sequence is
    exactly periodic in the frequency index, and passing the period as
    ``exact_tail_period`` (4N for the midpoint grid; 1-D, p = 2,
    s > 1/2 only) adds the omitted remainder in closed form via Hurwitz
    zeta sums over residue classes.
    """
    params = params or NormParams(1.0, 2.0)
    if max_index < 1:
        raise ValueError("max_index must be >= 1")
    n, dim, m = points.n, points.dim, max_index
    pconj = params.p_conjugate
    # lambda, the integrals and the point means are tensor products of 1-D
    # arrays in i = 1 .. max_index, the first dimension slowest; lambda, c
    # and two temporaries of the weighted sum are held at once
    check_array_bytes(4 * m**dim, 8, f"spectral grid too large: 4 arrays of {m}^{dim}")
    check_array_bytes(n * m ** (dim - 1), 8, f"the prefix products, {n} x {m}^{dim - 1}")
    i = np.arange(1, m + 1, dtype=float)
    lam = functools.reduce(np.multiply.outer, [1.0 / (i * math.pi) ** 2] * dim).ravel()
    integ = math.sqrt(2.0) * (1.0 - np.cos(i * math.pi)) / (i * math.pi)
    waves = math.sqrt(2.0) * np.sin(np.multiply.outer(math.pi * points.coords, i))  # (N, D, M)
    prefix = np.ones((n, 1))
    for d in range(dim - 1):
        prefix = (prefix[:, :, None] * waves[:, d, None, :]).reshape(n, -1)
    means = (prefix.T @ waves[:, -1]).ravel() / n
    c = functools.reduce(np.multiply.outer, [integ] * dim).ravel() - means
    if pconj == math.inf:
        value = float(np.max(lam ** (params.s / 2.0) * np.abs(c)))
        head = value
    else:
        head = float(np.sum(lam ** (params.s * pconj / 2.0) * np.abs(c) ** pconj))
    tail_exact = 0.0
    if exact_tail_period is not None:
        if dim != 1 or pconj != 2.0 or params.s <= 0.5:
            raise ValueError("exact tail summation needs D=1, p=2, s > 1/2")
        tail_exact = _exact_tail_1d(points, params.s, max_index, int(exact_tail_period))
        head += tail_exact
    # bound the omitted tail by |c| <= sqrt(2) (1 + 2/pi) and the
    # eigenvalue decay (integral comparison on sum i^{-s p'})
    cbound = math.sqrt(2.0) * (1.0 + 2.0 / math.pi)
    expo = params.s * (1.0 if pconj == math.inf else pconj)
    if expo > 1.0:
        tail_bound = (cbound ** (1.0 if pconj == math.inf else pconj)
                      * math.pi ** (-expo) * max_index ** (1.0 - expo) / (expo - 1.0))
    else:
        tail_bound = math.inf
    if pconj == math.inf:
        return DiscrepancyReport(
            value=value, squared_value=value * value, method="spectral",
            kernel_id="spline", n=points.n, dim=dim, norm_params=params,
            metadata={"max_index": max_index, "tail_bound": tail_bound})
    value = head ** (1.0 / pconj)
    return DiscrepancyReport(
        value=value, squared_value=head if pconj == 2.0 else value**2,
        method="spectral", kernel_id="spline", n=points.n, dim=dim,
        norm_params=params,
        metadata={"max_index": max_index, "tail_bound": tail_bound,
                  "exact_tail": tail_exact if exact_tail_period is not None else None})


def _exact_tail_1d(points: PointSet, s: float, max_index: int, period: int) -> float:
    """Remainder sum_{i > M} lambda_i^s c_i^2 for index-periodic coefficients.

    Valid when sin(i pi y_n) is exactly periodic in i with the given
    period for every point (rational grids).  Splits the remainder by
    residue class r = i mod period:

        c_i = u_r / i - g_r,   u_r = sqrt(2) (1 - cos(pi r)) / pi,

    and sums each power of 1/i with Hurwitz zeta values.
    """
    y = points.coords[:, 0]
    # verify periodicity at a few indices; rational grids satisfy it exactly
    for probe in (1, 2, 3):
        a = np.sin(probe * math.pi * y)
        b = np.sin((probe + period) * math.pi * y)
        if not np.allclose(a, b, atol=1e-9):
            raise ValueError("coefficients are not periodic with the given period")
    total = 0.0
    sqrt2 = math.sqrt(2.0)
    for r in range(1, period + 1):
        g = sqrt2 * float(np.sin(r * math.pi * y).mean())
        u = sqrt2 * (1.0 - math.cos(math.pi * r)) / math.pi
        # first index of class r strictly beyond max_index
        j0 = (max_index - r) // period + 1
        q = j0 + r / period
        h = [float(special.zeta(2.0 * s + k, q)) / period ** (2.0 * s + k) for k in (2, 1, 0)]
        total += math.pi ** (-2.0 * s) * (u * u * h[0] - 2.0 * u * g * h[1] + g * g * h[2])
    return total
