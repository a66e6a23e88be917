"""The kernel zoo: seed, periodic, transported and spline kernels.

Four translation-invariant seed families on R^D (exponential,
multiquadric, Gaussian, truncated) are localized to the unit cube two
ways:

* ``per-*``  periodic versions, tensor products of a 1-D closed form
  whose Fourier coefficients are exactly a normalized profile with
  rho(0) = 1 and per-dimension total T ~ 1 + 1/D, so the diagonal
  K(x,x) = T^D stays below e in every dimension;
* ``tra-*``  transported versions, scale * phi(c r) of a seed formula phi
  at the distance r between S(x) and S(y), S(x) = erfinv(2x - 1) =
  ndtri(x)/sqrt(2) componentwise (table below).

Per-dimension conventions (q is the Fourier ratio, tau the rate):

    family   periodic factor                      coefficients r(k)
    ------   ---------------------------------    --------------------
    exp      (tau/2)(e^{tau f}+e^{tau(1-f)})      1 / (1 + 4 pi^2 k^2 / tau^2),
                 / (e^tau - 1),  tau = sqrt(12/D)
    gauss    theta_3(pi f, q),  q = 1/(2D)        q^{k^2}
    mq       (1-q^2)/(1-2q cos 2pi f + q^2),      q^{|k|}
                 q = 1/(2D+1)
    trunc    tau[(1-tau f)_+ + (1-tau(1-f))_+],   sinc^2(pi k / tau)
                 tau = 1 + 1/D

with f the fractional part of x_d - y_d.  Transported records: r is the
squared distance (L1 for exp), tau = sqrt(2/D) (sqrt(pi)/D for exp), and
beta keeps the diagonal, scale, below e.  tra-trunc is Cauchy-type, not
the truncated seed (1 - sqrt(r))_+^D: a convention that mirrors mq.

    tra-*    phi(c r)                  c          scale
    exp      e^{-c r}                  tau        1/beta
    mq       (1 + c r)^{-(D+1)/2}      tau^2      beta
    gauss    e^{-c r/2}                2 tau^2    beta
    trunc    (1 + c r)^{-D}            tau        1

The seed formulas are written once, in ``_seed``; ``_transported``
composes them with S, and ``_PERIODIC`` holds the periodic families.
S maps a uniform x to N(0, 1/2) per coordinate, which gives the tra-*
kernels exact integrals over the cube (``TransportedKernel``).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special
from scipy.linalg import blas

from .lattice import CoefficientProfile, LatticeIndex

__all__ = [
    "FAMILIES",
    "Kernel",
    "SeedKernel",
    "PeriodicKernel",
    "TransportedKernel",
    "SplineKernel",
    "TransportMap",
    "erfinv",
    "theta3",
    "coefficient_profile",
    "kernel_from_id",
    "fourier_coefficient",
    "pseudo_distance",
]

FAMILIES = ("exp", "mq", "gauss", "trunc")

# edge of the square Gram tiles in Kernel.pair_mean; 128 x 128 doubles
# keep a tile's temporaries in cache.  The log-series route sums bands of
# this many rows.
_GRAM_TILE = 128

# a log-series is cut where dim times the sum of the dropped |a_k| falls
# below this
_LOG_SERIES_TAIL = 1e-17

# the log-series features of one chunk of dimensions hold at most this
# many doubles
_FEATURE_DOUBLES = 2**16

# kernel entries per row band of the log-series value-and-gradient pass
_SERIES_BAND_DOUBLES = 2**20

# _gamma_rule's largest step in log s, and its relative weight floor
_GAMMA_STEP, _GAMMA_FLOOR = 0.17, 1e-20


def erfinv(u):
    """Inverse error function on (-1, 1), odd by construction."""
    arr = np.asarray(u, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(np.abs(arr) >= 1.0):
        raise ValueError("erfinv argument must satisfy |u| < 1")
    out = np.sign(arr) * special.erfinv(np.abs(arr))
    return float(out) if np.isscalar(u) or arr.ndim == 0 else out


def _theta3_terms(q: float) -> list[float]:
    """q^{k^2} for k = 1, 2, ... while the term is at least 1e-17."""
    terms = []
    k = 1
    while q ** (k * k) >= 1e-17:
        terms.append(q ** (k * k))
        k += 1
    return terms


def theta3(z, q: float):
    """Third Jacobi theta function 1 + 2 sum q^{k^2} cos(2kz), 0 <= q < 1.

    Direct summation, truncated when the next term falls below 1e-17
    relative to the leading 1.
    """
    if not 0.0 <= q < 1.0:
        raise ValueError("nome q must lie in [0, 1)")
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    for k, w in enumerate(_theta3_terms(q), start=1):
        out = out + 2.0 * w * np.cos(2.0 * k * z)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class TransportMap:
    """Componentwise map S(x) = erfinv(2x - 1) from (0,1)^D onto R^D,
    computed as ndtri(x) / sqrt(2), the same function.

    ndtri reads x itself, so it keeps full relative precision near 0,
    where forming 2x - 1 rounds away the small x: against 40-digit
    mpmath, ndtri is within 1.6e-16 relative on [1e-12, 1 - 1e-12],
    while erfinv(2x - 1) is 4.4e-7 off at x = 1e-12 and 1.1e-12 at 1e-6.
    Coordinates are clamped to [eps, 1-eps] first; S diverges at the
    endpoints while the transported kernels decay there, so the clamp
    perturbs kernel values below 1e-10.
    """

    dim: int
    eps: float = 1e-12

    def apply(self, x: np.ndarray) -> np.ndarray:
        # clip makes the one new array; the rest works in it
        s = np.clip(np.asarray(x, dtype=float), self.eps, 1.0 - self.eps)
        special.ndtri(s, out=s)
        s *= math.sqrt(0.5)
        return s

    @staticmethod
    def inverse(u: np.ndarray) -> np.ndarray:
        """x = ndtr(sqrt(2) u), the inverse of ``apply`` on [eps, 1 - eps]."""
        return special.ndtr(math.sqrt(2.0) * np.asarray(u, dtype=float))


def _check(family: str, dim: int) -> None:
    """Refuse a family outside ``FAMILIES`` and a dim below 1."""
    if family not in FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}; choose from {FAMILIES}")
    if dim < 1:
        raise ValueError("dim must be >= 1")


# periodic records -----------------------------------------------------------

def _cos_sin_multiples(cos: np.ndarray, sin: np.ndarray, n_k: int) -> np.ndarray:
    """(cos k theta, sin k theta) for k = 1 .. n_k, shape (n_k, 2) +
    cos.shape, from cos theta and sin theta by the Chebyshev recurrence
    X_{k+1} = 2 cos(theta) X_k - X_{k-1}, X_0 = (1, 0)."""
    out = np.empty((n_k, 2) + cos.shape)
    out[0, 0] = cos
    out[0, 1] = sin
    two_c = 2.0 * cos
    if n_k > 1:
        np.multiply(out[0], two_c, out=out[1])
        out[1, 0] -= 1.0
    for k in range(2, n_k):
        np.multiply(out[k - 1], two_c, out=out[k])
        out[k] -= out[k - 2]
    return out


def _log_series(a0: float, term, dim: int) -> tuple[float, np.ndarray]:
    """(a_0, [a_1, ..., a_K]) with log chi(t) = a_0 + sum_k a_k cos 2 pi k t.

    ``term(k)`` gives a_k, whose magnitude decays geometrically; the
    series is cut at the first K with dim * sum_{k > K} |a_k| below
    1e-17, so the D-dimensional log-kernel loses less than that.
    """
    coef = [term(1)]
    while dim * abs(coef[-1]) >= 1e-3 * _LOG_SERIES_TAIL:
        coef.append(term(len(coef) + 1))
    # tails[K] = sum_{k > K} |a_k|
    tails = np.cumsum(np.abs(coef)[::-1])[::-1]
    n_kept = int(np.argmax(dim * tails < _LOG_SERIES_TAIL))
    return a0, np.array(coef[:n_kept])


class _PeriodicFamily:
    """One periodic family at one dimension: the scale (tau or q), the
    profile r(k) with its total (and an envelope where r is not
    monotone), and the scalar ``factor``/``factor_prime`` of f = t mod 1.

    The Gram sum and the descent's value and gradient take one route per
    family: a family whose log-factor is analytic carries its truncated
    cosine series ``log_series`` (mq and gauss), and the others
    ``block`` and ``logderiv_block`` formulas for tiles of factor
    products (exp and trunc, whose log-factors have a kink at t = 0, so
    their coefficients decay like 1/k^2 and admit no short cut).
    """

    envelope = None
    log_series = None


class _PerExp(_PeriodicFamily):
    def __init__(self, dim: int):
        self.tau = tau = math.sqrt(12.0 / dim)
        self.total = (tau / 2.0) / math.tanh(tau / 2.0)
        self._c = 4.0 * math.pi**2 / tau**2
        self._peak = (tau / 2.0) / math.sinh(tau / 2.0)

    def r(self, k: int) -> float:
        return 1.0 / (1.0 + self._c * k * k)

    def factor(self, f):
        tau = self.tau
        a = np.exp(tau * f)
        return (tau / 2.0) * (a + math.exp(tau) / a) / math.expm1(tau)

    def factor_prime(self, f):
        tau = self.tau
        return (tau * tau / 2.0) * (np.exp(tau * f) - np.exp(tau * (1.0 - f))) / math.expm1(tau)

    def block(self, h):
        # (tau/2) cosh(tau (|t| - 1/2)) / sinh(tau/2)
        h -= self.tau / 2.0
        np.cosh(h, out=h)
        h *= self._peak
        return h

    def logderiv_block(self, h, sign):
        # chi'/chi = tau sign(t) tanh(tau (|t| - 1/2))
        h -= self.tau / 2.0
        ratio = np.tanh(h)
        ratio *= sign
        ratio *= self.tau
        np.cosh(h, out=h)
        h *= self._peak
        return h, ratio


class _PerMq(_PeriodicFamily):
    def __init__(self, dim: int):
        self.q = q = 1.0 / (2.0 * dim + 1.0)
        self.total = (1.0 + q) / (1.0 - q)
        # -log(1 - 2q cos 2 pi t + q^2) = 2 sum_k q^k cos(2 pi k t) / k
        self.log_series = _log_series(math.log1p(-q * q), lambda k: 2.0 * q**k / k, dim)

    def r(self, k: int) -> float:
        return self.q ** abs(k)

    def factor(self, f):
        q = self.q
        return (1.0 - q * q) / (1.0 - 2.0 * q * np.cos(2.0 * math.pi * f) + q * q)

    def factor_prime(self, f):
        q = self.q
        denom = 1.0 - 2.0 * q * np.cos(2.0 * math.pi * f) + q * q
        return -(1.0 - q * q) * 4.0 * math.pi * q * np.sin(2.0 * math.pi * f) / (denom * denom)


class _PerGauss(_PeriodicFamily):
    def __init__(self, dim: int):
        self.q = q = 1.0 / (2.0 * dim)
        self.total = float(theta3(0.0, q))
        self._weights = _theta3_terms(q)
        # Jacobi triple product: theta_3(z) = prod_m (1 - q^{2m})
        # (1 + 2 q^{2m-1} cos 2z + q^{4m-2}), so log theta_3(pi t) =
        # sum_m log(1 - q^{2m}) + sum_k 2 (-1)^{k+1} q^k cos(2 pi k t)
        # / (k (1 - q^{2k}))
        a0, m = [], 1
        while q ** (2 * m) >= 1e-3 * _LOG_SERIES_TAIL:
            a0.append(math.log1p(-q ** (2 * m)))
            m += 1
        self.log_series = _log_series(
            math.fsum(a0), lambda k: 2.0 * (-1.0) ** (k + 1) * q**k / (k * (1.0 - q ** (2 * k))),
            dim)

    def r(self, k: int) -> float:
        return self.q ** (k * k)

    def factor(self, f):
        return theta3(math.pi * f, self.q)

    def factor_prime(self, f):
        # pi theta_3'(pi f), theta_3'(z) = -2 sum 2k q^{k^2} sin(2kz)
        z = np.asarray(math.pi * f, dtype=float)
        out = np.zeros_like(z)
        for k, w in enumerate(self._weights, start=1):
            out = out - 4.0 * k * w * np.sin(2.0 * k * z)
        return math.pi * out


class _PerTrunc(_PeriodicFamily):
    def __init__(self, dim: int):
        self.dim = dim
        self.tau = self.total = 1.0 + 1.0 / dim

    def r(self, k: int) -> float:
        # sinc^2 profile, exact zeros at k = 0 mod (D+1), and an
        # oscillating value under the (tau/pi k)^2 envelope
        k = abs(k)
        if k == 0:
            return 1.0
        if k % (self.dim + 1) == 0:
            return 0.0
        x = math.pi * k / self.tau
        return (math.sin(x) / x) ** 2

    def envelope(self, k: int) -> float:
        return (self.tau / (math.pi * k)) ** 2 if k else 1.0

    def factor(self, f):
        tau = self.tau
        return tau * (np.maximum(1.0 - tau * f, 0.0) + np.maximum(1.0 - tau * (1.0 - f), 0.0))

    def factor_prime(self, f):
        tau = self.tau
        return tau * tau * ((f > 1.0 - 1.0 / tau).astype(float) - (f < 1.0 / tau).astype(float))

    def block(self, h):
        # tau [(1 - h)_+ + (h - (tau - 1))_+]
        hat = 1.0 - h
        np.maximum(hat, 0.0, out=hat)
        h -= self.tau - 1.0
        np.maximum(h, 0.0, out=h)
        h += hat
        h *= self.tau
        return h

    def logderiv_block(self, h, sign):
        # chi' = -tau^2 sign(t) (1{h < 1} - 1{h > tau - 1}), in place of
        # sign and before block overwrites h (byte-sized temporaries only)
        prime = sign
        prime *= (h > self.tau - 1.0).view(np.int8) - (h < 1.0).view(np.int8)
        prime *= self.tau * self.tau
        chi = self.block(h)
        return chi, np.divide(prime, chi, out=prime, where=chi > 0.0)


_PERIODIC = {"exp": _PerExp, "mq": _PerMq, "gauss": _PerGauss, "trunc": _PerTrunc}


@lru_cache(maxsize=None)
def coefficient_profile(family: str, dim: int) -> CoefficientProfile:
    """The exact Fourier-coefficient profile of a periodic kernel."""
    _check(family, dim)
    rec = _PERIODIC[family](dim)
    return CoefficientProfile(dim, rec.r, rec.total, name=f"per-{family}[D={dim}]",
                              envelope=rec.envelope)


# radial formulas -------------------------------------------------------------

class _Radial:
    """K = phi(c r) of the distance r, L1 if ``l1``, else squared:
    ``phi(dist, c)`` overwrites the distances, c folded into its first op.
    Where the descent needs it, d/du K is slope * c * grad_base(K, dist, c)
    times sign(u - v) or u - v; grad_base may overwrite both arrays."""

    l1 = False

    def grad_base(self, kmat: np.ndarray, dist: np.ndarray, c: float) -> np.ndarray:
        return kmat


class _Exponential(_Radial):
    """e^{-rate c r}: exp is rate 1 on the L1 distance, gauss 1/2 on the squared one."""

    def __init__(self, l1: bool, rate: float):
        self.l1, self.rate = l1, rate
        self.slope = -rate if l1 else -2.0 * rate

    def phi(self, dist, c):
        dist *= -self.rate * c
        return np.exp(dist, out=dist)

    def mixture(self, c):
        """(t, w) with phi(c r) = sum_j w_j e^{-t_j r}, one term."""
        return np.array([self.rate * c]), np.ones(1)


class _Rational(_Radial):
    """(1 + c r)^(-a)."""

    def __init__(self, a: float):
        self.a, self.slope = a, -2.0 * a

    def phi(self, dist, c):
        dist *= c
        dist += 1.0
        return np.power(dist, -self.a, out=dist)

    def grad_base(self, kmat, dist, c):
        # K / (1 + c r)
        dist *= c
        dist += 1.0
        return np.divide(kmat, dist, out=kmat)

    def mixture(self, c):
        """(t, w) with phi(c r) = sum_j w_j e^{-t_j r}: (1 + x)^{-a} is
        E e^{-s x} over s ~ Gamma(a, 1)."""
        s, w = _gamma_rule(self.a)
        return c * s, w.copy()  # the cached rule stays unchanged


@lru_cache(maxsize=None)
def _gamma_rule(a: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s_j and weights w_j, summing to 1, with sum_j w_j f(s_j) = E f(s)
    over s ~ Gamma(a, 1): the trapezoid rule in y = log(s / a), density
    ~ exp(a (y - expm1(y))), step h = min(0.17, 0.7 / sqrt(a)).  For f
    bounded by 1 in |Im y| < 1, as every f of ``TransportedKernel`` is, the
    error is about exp(-2 pi / h) + exp(-2 pi^2 / (a h^2)) < 1e-16.  Nodes
    below 1e-20 of the largest weight are dropped and the rest normalized
    by their sum, so no Gamma(a), infinite from a = 172 on, is formed."""
    h = min(_GAMMA_STEP, 0.7 / math.sqrt(a))
    # the left tail e^{a y} and the bulk, of width 1/sqrt(a)
    reach = math.ceil((50.0 / a + 10.0 / math.sqrt(a) + 5.0) / h)
    y = h * np.arange(-reach, reach + 1)
    y = y[a * (y - np.expm1(y)) > math.log(_GAMMA_FLOOR)]
    w = np.exp(a * (y - np.expm1(y)))
    return a * np.exp(y), w / w.sum()


class _Truncated(_Radial):
    """(1 - sqrt(c r))_+^D, a seed formula only."""

    def __init__(self, dim: int):
        self.dim = dim

    def phi(self, dist, c):
        dist *= c
        np.subtract(1.0, np.sqrt(dist, out=dist), out=dist)
        return np.power(np.maximum(dist, 0.0, out=dist), self.dim, out=dist)


def _seed(dim: int) -> dict:
    """The seed formula of each family at dim; c = 1 gives the seed kernel."""
    return {"exp": _Exponential(l1=True, rate=1.0), "mq": _Rational((dim + 1) / 2.0),
            "gauss": _Exponential(l1=False, rate=0.5), "trunc": _Truncated(dim)}


class _TraRecord(namedtuple("_TraRecord", "formula c scale tau beta")):
    def phi(self, dist: np.ndarray) -> np.ndarray:
        """K = scale * formula.phi(c r), in place of the distances r."""
        kmat = self.formula.phi(dist, self.c)
        kmat *= self.scale
        return kmat


def _transported(dim: int) -> dict:
    """The tra-* records at dim, as tabled in the module docstring."""
    seed = _seed(dim)
    tau_exp = math.sqrt(math.pi) / dim
    # erfcx(z) = exp(z^2) erfc(z), overflow-free
    beta_exp = float(special.erfcx(tau_exp / 2.0)) ** dim
    tau = math.sqrt(2.0 / dim)
    beta_mq = (math.sqrt(math.pi) * float(special.erfcx(1.0 / tau)) * (1.0 / tau)) ** (-dim)
    beta_gauss = (1.0 + tau**2) ** (dim / 2.0)
    return {"exp": _TraRecord(seed["exp"], tau_exp, 1.0 / beta_exp, tau_exp, beta_exp),
            "mq": _TraRecord(seed["mq"], tau**2, beta_mq, tau, beta_mq),
            "gauss": _TraRecord(seed["gauss"], 2.0 * tau**2, beta_gauss, tau, beta_gauss),
            "trunc": _TraRecord(_Rational(float(dim)), tau, 1.0, tau, 1.0)}


# kernel classes -------------------------------------------------------------

def _upper_tiles(n: int):
    """(rows, cols) of the ``_GRAM_TILE`` tiles on or above the diagonal."""
    tiles = [slice(lo, min(lo + _GRAM_TILE, n)) for lo in range(0, n, _GRAM_TILE)]
    for i, rows in enumerate(tiles):
        for cols in tiles[i:]:
            yield rows, cols


class Kernel:
    """Symmetric positive(-semi)definite kernel on its domain."""

    dim: int
    kernel_id: str = "kernel"

    def pairwise(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Kernel matrix between rows of x (n, dim) and y (m, dim)."""
        raise NotImplementedError

    def map_points(self, x: np.ndarray) -> np.ndarray:
        """The per-point coordinates that ``kernel_mapped`` and
        ``elementwise_mapped`` read: the identity, unless the kernel is
        composed with a map of the cube."""
        return np.asarray(x, dtype=float)

    def kernel_mapped(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Kernel matrix between rows of ``map_points`` output."""
        return self.pairwise(u, v)

    def elementwise_mapped(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """K for paired rows of ``map_points`` output."""
        return self.elementwise(u, v)

    def pair_mean(self, coords: np.ndarray) -> float:
        """Mean of the full kernel matrix on one point set: ``_gram_sum``
        over N^2."""
        coords = np.asarray(coords, dtype=float)
        n = coords.shape[0]
        return self._gram_sum(coords) / (n * n)

    def _gram_sum(self, coords: np.ndarray) -> float:
        """Sum of the full kernel matrix.

        The kernel is symmetric, so only the square tiles on or above the
        diagonal are evaluated and each off-diagonal tile counts twice.
        Tiles come from ``gram_block`` over the per-point data of
        ``gram_setup``; the tile size is fixed, so the summation order,
        and with it every digit of the result, depends on N alone.
        Temporaries stay O(tile^2 + N D).
        """
        setup = self.gram_setup(coords)
        total = 0.0
        for rows, cols in _upper_tiles(coords.shape[0]):
            tile_sum = float(self.gram_block(setup, rows, cols).sum())
            total += tile_sum if rows == cols else 2.0 * tile_sum
        return total

    def gram_setup(self, coords: np.ndarray):
        """Per-point data that every Gram tile of one point set reads."""
        return self.map_points(coords)

    def gram_block(self, setup, rows: slice, cols: slice) -> np.ndarray:
        """Kernel matrix between the points in ``rows`` and in ``cols``."""
        u = setup[rows]
        return self.kernel_mapped(u, u if cols == rows else setup[cols])

    def _validate_point(self, p) -> np.ndarray:
        p = np.atleast_1d(np.asarray(p, dtype=float))
        if p.shape != (self.dim,):
            raise ValueError(f"point of shape {p.shape} does not match kernel dim {self.dim}")
        if not np.all(np.isfinite(p)):
            raise ValueError("point has non-finite coordinates")
        return p

    def __call__(self, x, y) -> float:
        x = self._validate_point(x)
        y = self._validate_point(y)
        return float(self.pairwise(x[None, :], y[None, :])[0, 0])

    def __repr__(self):
        return f"<{type(self).__name__} {self.kernel_id} D={self.dim}>"


class SeedKernel(Kernel):
    """The seed formula ``record`` on R^D, phi(r) with phi(0) = 1.  Distances
    come from exact differences: seed-trunc's sqrt would turn 1e-16
    rounding into 1e-8."""

    def __init__(self, family: str, dim: int):
        _check(family, dim)
        self.record = _seed(dim)[family]
        self.family = family
        self.dim = dim
        self.kernel_id = f"seed-{family}"

    def pairwise(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        acc = np.zeros((x.shape[0], y.shape[0]))
        for d in range(self.dim):
            diff = x[:, d, None] - y[None, :, d]
            acc += np.abs(diff) if self.record.l1 else diff * diff
        return self.record.phi(acc, 1.0)

    def elementwise(self, x, y):
        diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        dist = np.abs(diff).sum(axis=1) if self.record.l1 else (diff * diff).sum(axis=1)
        return self.record.phi(dist, 1.0)


class PeriodicKernel(Kernel):
    """Tensor-product periodic kernel on [0,1]^D, normalized to rho(0)=1.

    The closed-form factors and their exact Fourier profiles are listed
    in the module docstring; ``record`` holds the family's formulas and
    its route for ``_gram_sum`` and ``gram_sum_grad``: log-series
    features (mq, gauss) or factor tiles (exp, trunc).  The diagonal
    equals T^D <= e.
    """

    def __init__(self, family: str, dim: int):
        self.profile = coefficient_profile(family, dim)  # checks family and dim
        self.record = _PERIODIC[family](dim)
        self.family = family
        self.dim = dim
        self.kernel_id = f"per-{family}"

    def factor(self, t):
        """The 1-D periodic factor chi(t); chi(0) = T."""
        return self.record.factor(np.mod(np.asarray(t, dtype=float), 1.0))

    def factor_prime(self, t):
        """d/dt of the 1-D factor (one-sided at the truncated kinks)."""
        return self.record.factor_prime(np.mod(np.asarray(t, dtype=float), 1.0))

    # factor blocks ---------------------------------------------------------

    def gram_setup(self, coords: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per-point data of the factor blocks, as (D, N) arrays.

        mq and gauss: (cos 2 pi y, sin 2 pi y); their factors are
        functions of cos 2 pi (x - y), and their log-series features
        are the multiples cos/sin 2 pi k y of these.  exp and trunc:
        (y mod 1,); their factors are even about f = 1/2, so functions of
        |x - y| on reduced coordinates.
        """
        t = np.mod(np.asarray(coords, dtype=float).T, 1.0)
        if self.record.log_series is not None:
            angle = 2.0 * math.pi * t
            return np.cos(angle), np.sin(angle)
        return (t,)

    def _block_args(self, setup, d: int, rows: slice, cols: slice, aux: bool) -> tuple:
        """(h = tau |t|, [sign(t)]) at t = x_d - y_d, from reduced
        coordinates."""
        (t,) = setup
        h = np.subtract.outer(t[d, rows], t[d, cols])
        sign = np.sign(h) if aux else None
        np.abs(h, out=h)
        h *= self.record.tau
        return (h, sign) if aux else (h,)

    def factor_block(self, setup, d: int, rows: slice, cols: slice) -> np.ndarray:
        """chi(x_d - y_d) for x in ``rows`` and y in ``cols`` of a set-up
        point set, for the records with a ``block`` formula (exp, trunc)."""
        return self.record.block(*self._block_args(setup, d, rows, cols, False))

    def factor_logderiv_block(self, setup, d: int, rows: slice,
                              cols: slice) -> tuple[np.ndarray, np.ndarray]:
        """(chi, chi'/chi) at t = x_d - y_d, for the block of ``factor_block``.

        chi is bit-identical to ``factor_block``; the log-derivative
        reuses its intermediates.  Every factor is strictly positive except the
        truncated one at D = 1, which vanishes at |t| = 1/2 exactly; there
        chi' = 0 (the symmetric subgradient) is returned in place of
        0/0.  At t = 0 the log-derivative is 0 for every family.
        """
        return self.record.logderiv_block(*self._block_args(setup, d, rows, cols, True))

    def gram_block(self, setup, rows: slice, cols: slice) -> np.ndarray:
        out = self.factor_block(setup, 0, rows, cols)
        for d in range(1, self.dim):
            out *= self.factor_block(setup, d, rows, cols)
        return out

    def _gram_sum(self, coords: np.ndarray) -> float:
        """The log-series sum for mq and gauss, the tile sum for exp and trunc."""
        if self.record.log_series is not None:
            return self._log_series_sum(coords)
        return super()._gram_sum(coords)

    def gram_sum_grad(self, coords: np.ndarray) -> tuple[float, np.ndarray]:
        """The Gram sum and its (N, D) gradient in the points, by the route
        of ``_gram_sum``: ``log_series_value_grad`` for mq and gauss.

        exp and trunc: the tiles of ``Kernel._gram_sum``, each the product
        of the ``factor_logderiv_block`` factors in ascending d as in
        ``gram_block`` (so the sum is bit-equal), and dK/dx_d = K chi'_d /
        chi_d.  Rows get 2 sum_cols K chi'/chi; chi'/chi is odd, so the
        columns of an off-diagonal tile get -2 sum_rows, and it is exactly
        0 at t = 0.  Memory: D chi'/chi tiles, D min(N, 128)^2 doubles.
        """
        if self.record.log_series is not None:
            return self.log_series_value_grad(coords)
        setup = self.gram_setup(coords)
        grad = np.zeros(coords.shape)
        total = 0.0
        for rows, cols in _upper_tiles(coords.shape[0]):
            ratios = [None] * self.dim
            gram, ratios[0] = self.factor_logderiv_block(setup, 0, rows, cols)
            for d in range(1, self.dim):
                chi, ratios[d] = self.factor_logderiv_block(setup, d, rows, cols)
                gram *= chi
                del chi  # not held through the next block
            if rows == cols:
                total += float(gram.sum())
                for d, ratio in enumerate(ratios):
                    grad[rows, d] += 2.0 * np.einsum("ij,ij->i", gram, ratio)
            else:
                total += 2.0 * float(gram.sum())
                for d, ratio in enumerate(ratios):
                    ratio *= gram
                    grad[rows, d] += 2.0 * ratio.sum(axis=1)
                    grad[cols, d] -= 2.0 * ratio.sum(axis=0)
            del gram, ratios, ratio  # the next tile's blocks start from nothing
        return total, grad

    def _log_series_sum(self, coords: np.ndarray) -> float:
        """Sum of K(x, y) = exp(c_0 + L(x) . R(y)) over the Gram matrix.

        With log chi(t) = a_0 + sum_k a_k cos 2 pi k t and angle addition,
        log K(x, y) = D a_0 + sum_{d,k} a_k [cos 2 pi k x_d cos 2 pi k y_d
        + sin 2 pi k x_d sin 2 pi k y_d]: the features are cos/sin(2 pi k
        y_d) sqrt|a_k|, with the sign of a_k on the left side.  Row bands
        of ``_GRAM_TILE`` points against the columns on or after the
        band's diagonal tile accumulate c_0 plus one ``dgemm`` (beta = 1)
        per chunk of dimensions, whose features are rebuilt per band;
        then one exp per pair.  Temporaries stay O(tile N) for the band,
        and a chunk's features hold ``_FEATURE_DOUBLES`` doubles, or one
        dimension's 2 K N when that is more.  Band and chunk edges depend
        on N and D alone, so the digits do too.
        """
        a0, coef = self.record.log_series
        n = coords.shape[0]
        n_k = len(coef)
        scale = np.sqrt(np.abs(coef))[:, None, None, None]
        sign = np.sign(coef)[:, None, None, None]
        cos, sin = self.gram_setup(coords)
        chunk = max(1, min(self.dim, _FEATURE_DOUBLES // (2 * n_k * n)))
        total = 0.0
        for lo in range(0, n, _GRAM_TILE):
            m = min(_GRAM_TILE, n - lo)
            acc = np.full((m, n - lo), self.dim * a0, order="F")
            for d in range(0, self.dim, chunk):
                dims = slice(d, d + chunk)
                feats = _cos_sin_multiples(cos[dims, lo:], sin[dims, lo:], n_k)
                feats *= scale
                left = (feats[..., :m] * sign).reshape(-1, m)
                acc = blas.dgemm(1.0, left.T, feats.reshape(-1, n - lo).T, beta=1.0, c=acc,
                                 trans_b=True, overwrite_c=True)
            np.exp(acc, out=acc)
            total += float(acc[:, :m].sum()) + 2.0 * float(acc[:, m:].sum())
        return total

    def log_series_value_grad(self, coords: np.ndarray) -> tuple[float, np.ndarray]:
        """The Gram sum of ``_log_series_sum`` and its (N, D) gradient in
        the points, from one set of log-series features.

        With z = e^{2 pi i k y_d}, k = 1 .. K (one running product over k),
        and F its real and imaginary parts, log K = D a_0 + (F a) F^T and
        the gradient is -4 pi sum_k k a_k Im(conj((K z)_idk) z_idk).  Row
        bands of at most ``_SERIES_BAND_DOUBLES`` kernel entries take two
        matrix products, (F a) F^T and then K F; the sum is the fsum of
        the row sums.  Memory: the N x 2DK features, one band of kernel
        entries, and (rows, 2DK) temporaries.
        """
        a0, coef = self.record.log_series
        n, dim = coords.shape
        n_k = len(coef)
        cos, sin = self.gram_setup(coords)
        z = np.cumprod(np.broadcast_to((cos + 1j * sin).T[:, :, None], (n, dim, n_k)), axis=2)
        feats = z.view(float).reshape(n, -1)
        row_sums = np.empty(n)
        grad = np.empty((n, dim))
        rows = min(n, max(1, _SERIES_BAND_DOUBLES // n))
        band_buf = np.empty((rows, n))
        for lo in range(0, n, rows):
            band = slice(lo, min(lo + rows, n))
            kmat = np.matmul((z[band] * coef).reshape(-1, dim * n_k).view(float), feats.T,
                             out=band_buf[:band.stop - lo])
            kmat += dim * a0
            np.exp(kmat, out=kmat)
            row_sums[band] = kmat.sum(axis=1)
            kz = (kmat @ feats).view(complex).reshape(-1, dim, n_k)
            grad[band] = (kz.conj() * z[band]).imag @ (np.arange(1, n_k + 1) * coef)
        grad *= -4.0 * math.pi
        return math.fsum(row_sums.tolist()), grad

    def pairwise(self, x, y):
        return self.elementwise(np.asarray(x, dtype=float)[:, None, :],
                                np.asarray(y, dtype=float)[None, :, :])

    def elementwise(self, x, y):
        """K(x_j, y_j) over the broadcast rows of x and y."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.ones(np.broadcast_shapes(x.shape, y.shape)[:-1])
        for d in range(self.dim):
            out *= self.factor(x[..., d] - y[..., d])
        return out

    def diagonal(self) -> float:
        """K(x, x) = T^D, from the closed-form per-dimension total."""
        return self.profile.total()

    def fourier_coefficient(self, index: LatticeIndex) -> float:
        if index.dim != self.dim:
            raise ValueError(f"index dim {index.dim} does not match kernel dim {self.dim}")
        return self.profile.coefficient(index)


class TransportedKernel(Kernel):
    """scale * phi(c r), r the distance between S(x) and S(y), on [0,1]^D;
    ``record`` holds (formula, c, scale, tau, beta), and K(x, x) = scale.
    Its integrals are Gaussian means (Briol et al., "Probabilistic
    integration", Stat. Sci. 2019): erfcx forms for exp, one Gaussian per
    term of ``formula.mixture`` for the others."""

    def __init__(self, family: str, dim: int):
        _check(family, dim)
        self.record = _transported(dim)[family]
        self.family = family
        self.dim = dim
        self.kernel_id = f"tra-{family}"
        self.transport = TransportMap(dim)

    def map_points(self, x: np.ndarray) -> np.ndarray:
        return self.transport.apply(x)

    def _distances(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Distances between rows of transported coordinates, of the
        record's kind: L1 for exp, squared Euclidean for the others.

        The squared distance is |u|^2 + |v|^2 - 2 u.v, one matrix product,
        clamped at 0 against rounding; when ``u is v`` the diagonal is set
        to exactly 0.  The L1 distance is summed per dimension.
        """
        if self.record.formula.l1:
            dist = np.zeros((u.shape[0], v.shape[0]))
            buf = np.empty_like(dist)
            for d in range(self.dim):
                np.subtract.outer(u[:, d], v[:, d], out=buf)
                np.abs(buf, out=buf)
                dist += buf
            return dist
        dist = u @ v.T
        dist *= -2.0
        dist += np.einsum("ij,ij->i", u, u)[:, None]
        dist += np.einsum("ij,ij->i", v, v)[None, :]
        np.maximum(dist, 0.0, out=dist)
        if u is v:
            np.fill_diagonal(dist, 0.0)
        return dist

    def kernel_mapped(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Kernel matrix from already-transported coordinates."""
        u = np.asarray(u, dtype=float)
        v = u if v is u else np.asarray(v, dtype=float)
        return self.record.phi(self._distances(u, v))

    def grad_sum_mapped(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The row sums sum_j K(u_i, u_j), shape (n,), and
        sum_j d/du_i K(u_i, u_j), shape (n, dim), from one kernel matrix;
        the gradient is in the transported coordinate u."""
        rec, formula = self.record, self.record.formula
        u = np.asarray(u, dtype=float)
        dist = self._distances(u, u)
        kmat = rec.phi(dist.copy())
        rows = kmat.sum(axis=1)  # before grad_base may overwrite kmat
        base = formula.grad_base(kmat, dist, rec.c)
        if formula.l1:
            out = np.empty((u.shape[0], self.dim))
            sgn = dist  # reused as the sign buffer
            for d in range(self.dim):
                np.subtract.outer(u[:, d], u[:, d], out=sgn)
                np.sign(sgn, out=sgn)
                sgn *= base
                out[:, d] = sgn.sum(axis=1)
        else:
            # sum_j base_ij (u_i - u_j) = u_i (base 1)_i - (base u)_i
            out = u * base.sum(axis=1)[:, None]
            out -= base @ u
        out *= formula.slope * rec.c
        return rows, out

    def pairwise(self, x, y):
        u = self.map_points(x)
        return self.kernel_mapped(u, u if y is x else self.map_points(y))

    def elementwise(self, x, y):
        return self.elementwise_mapped(self.map_points(x), self.map_points(y))

    def elementwise_mapped(self, u, v):
        diff = np.subtract(u, v, dtype=float)
        if self.record.formula.l1:
            np.abs(diff, out=diff)
        else:
            diff *= diff
        return self.record.phi(diff.sum(axis=1))

    def diagonal(self) -> float:
        return self.record.scale

    def integral_single(self, x: np.ndarray) -> np.ndarray:
        """int_cube K(x, y) dy for each row x."""
        return self.integral_single_mapped(self.map_points(x))[0]

    def integral_single_mapped(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """int_cube K(., y) dy at transported rows u, (n,), and its gradient
        in u, (n, dim); v = S(y) is N(0, 1/2) per coordinate.  exp, per
        dimension: E e^{-c|u - v|} = p + q, p = e^{-u^2} erfcx(c/2 + |u|)/2,
        q = e^{c^2/4 - c|u|} erfc(c/2 - |u|)/2, derivative c sign(u) (p - q).
        The others: E e^{-t|u - v|^2} = (1 + t)^{-D/2} e^{-t|u|^2/(1 + t)}."""
        rec, formula = self.record, self.record.formula
        if formula.l1:
            c = formula.rate * rec.c
            mag = np.abs(u)
            p = np.exp(-mag * mag) * special.erfcx(c / 2.0 + mag) / 2.0
            q = np.exp(c * c / 4.0 - c * mag) * special.erfc(c / 2.0 - mag) / 2.0
            vals = rec.scale * np.prod(p + q, axis=1)
            return vals, vals[:, None] * (c * np.sign(u) * (p - q) / (p + q))
        t, w = formula.mixture(rec.c)
        b = t / (1.0 + t)
        terms = w * np.exp(-np.multiply.outer(np.einsum("ij,ij->i", u, u), b)
                           - self.dim / 2.0 * np.log1p(t))
        return rec.scale * terms.sum(axis=1), (-2.0 * rec.scale) * u * (terms @ b)[:, None]

    def integral_double(self) -> float:
        """iint_cube K, S(x) - S(y) being N(0, 1) per coordinate: erfcx(c /
        sqrt 2)^D for exp, sum_j w_j (1 + 2 t_j)^{-D/2} for the others."""
        rec, formula = self.record, self.record.formula
        if formula.l1:
            return rec.scale * float(special.erfcx(formula.rate * rec.c / math.sqrt(2.0))) ** self.dim
        t, w = formula.mixture(rec.c)
        return rec.scale * float(np.sum(w * np.exp(-self.dim / 2.0 * np.log1p(2.0 * t))))


class SplineKernel(Kernel):
    """Tensor product of min(x,y) - xy on [0,1]^D (vanishes on the boundary).

    Closed forms: int K(x, .) = prod_d x_d (1 - x_d) / 2 and
    iint K = 12^-D.  Eigenpairs: lambda_a = prod (a_d pi)^-2 with
    eigenfunctions prod sqrt(2) sin(a_d pi x_d).
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.kernel_id = "spline"

    def pairwise(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.ones((x.shape[0], y.shape[0]))
        for d in range(self.dim):
            xd = x[:, d, None]
            yd = y[None, :, d]
            out *= np.minimum(xd, yd) - xd * yd
        return out

    def elementwise(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.prod(np.minimum(x, y) - x * y, axis=1)

    def integral_single(self, x: np.ndarray) -> np.ndarray:
        """int_cube K(x, y) dy for each row x."""
        x = np.asarray(x, dtype=float)
        return np.prod(x * (1.0 - x) / 2.0, axis=-1)

    def integral_double(self) -> float:
        return 12.0 ** (-self.dim)


# free-function entry points -------------------------------------------------

def kernel_from_id(kernel_id: str, dim: int) -> Kernel:
    """Parse '<loc>-<family>' (loc in seed/per/tra) or 'spline'."""
    if kernel_id == "spline":
        return SplineKernel(dim)
    parts = kernel_id.split("-")
    if len(parts) != 2:
        raise ValueError(f"bad kernel id {kernel_id!r}; expected '<loc>-<family>' or 'spline'")
    loc, family = parts
    if loc == "seed":
        return SeedKernel(family, dim)
    if loc == "per":
        return PeriodicKernel(family, dim)
    if loc == "tra":
        return TransportedKernel(family, dim)
    raise ValueError(f"unknown localization {loc!r}; choose from ('seed', 'per', 'tra')")


def fourier_coefficient(kernel: Kernel, index: LatticeIndex) -> float:
    """rho(alpha) of a periodic kernel; rejects every other kind."""
    if not isinstance(kernel, PeriodicKernel):
        raise ValueError("fourier_coefficient is defined for periodic kernels only")
    return kernel.fourier_coefficient(index)


def pseudo_distance(kernel: Kernel, x, y) -> float:
    """K(x,x) + K(y,y) - 2 K(x,y), clamped at zero against roundoff."""
    return max(kernel(x, x) + kernel(y, y) - 2.0 * kernel(x, y), 0.0)
