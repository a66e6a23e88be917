"""Canonical integer lattice: coefficient profiles, enumeration, tail masses.

Periodic kernels on the unit cube are tensor products, so their Fourier
coefficient at a lattice index ``alpha`` factorizes as
``rho(alpha) = prod_d r(alpha_d)`` with a single per-dimension
coefficient function ``r`` (``r(0) = 1``, even, nonincreasing in |k| on
its nonzero support).  rho is unchanged by permuting or sign-flipping the
entries of alpha, so one best-first search over these orbits visits the
lattice in nonincreasing coefficient order.  It has two consumers:
``enumerate_decreasing`` expands the orbits into signed indices, for
the callers that need the indices themselves, and ``partial_sum`` counts
them, for the tail mass

    tail(N) = T^D - sum of the N largest coefficients,   T = sum_k r(k),

which drives the asymptotic discrepancy estimate sqrt(tail(N) / N).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

__all__ = [
    "LatticeIndex",
    "LatticeTerm",
    "CoefficientProfile",
    "enumerate_decreasing",
    "partial_sum",
    "tail_mass",
    "asymptotic_discrepancy",
]


@dataclass(frozen=True)
class LatticeIndex:
    """Sparse lattice index in Z^D: only nonzero entries are stored."""

    dim: int
    entries: tuple[tuple[int, int], ...]  # sorted (dimension, value), value != 0

    @staticmethod
    def make(dim: int, entries: dict[int, int] | None = None) -> "LatticeIndex":
        entries = entries or {}
        items = []
        for d, v in sorted(entries.items()):
            if not 0 <= d < dim:
                raise ValueError(f"dimension index {d} out of range for dim={dim}")
            v = int(v)
            if v == 0:
                continue
            items.append((int(d), v))
        return LatticeIndex(dim, tuple(items))

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def value(self, d: int) -> int:
        for dd, v in self.entries:
            if dd == d:
                return v
        return 0

    def dense(self) -> tuple[int, ...]:
        out = [0] * self.dim
        for d, v in self.entries:
            out[d] = v
        return tuple(out)

    def negated(self) -> "LatticeIndex":
        return LatticeIndex(self.dim, tuple((d, -v) for d, v in self.entries))


@dataclass(frozen=True)
class LatticeTerm:
    """A lattice index together with its Fourier coefficient rho(alpha)."""

    index: LatticeIndex
    coefficient: float

    def __post_init__(self):
        if self.coefficient < 0:
            raise ValueError("coefficient must be nonnegative")


@dataclass(frozen=True)
class CoefficientProfile:
    """Per-dimension coefficient function r with its closed-form total T.

    ``r(k)`` must satisfy r(0)=1, r(-k)=r(k), 0 <= r <= 1, and be
    nonincreasing in |k| on its nonzero support (zeros are allowed and
    are skipped by the enumeration).  A profile whose nonzero values are
    *not* monotone (the truncated kernel's sinc^2 profile oscillates
    under its decaying envelope once D >= 3) must supply ``envelope``, a
    nonincreasing upper bound for r, so the enumeration can still rank
    magnitudes by value.  ``per_dim_total`` is T = sum_{k in Z} r(k),
    supplied in closed form per kernel so tail masses carry no
    truncation error.
    """

    dim: int
    r: Callable[[int], float]
    per_dim_total: float
    name: str = "profile"
    envelope: Callable[[int], float] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not (self.per_dim_total >= 1.0 and math.isfinite(self.per_dim_total)):
            raise ValueError("per-dimension total must be finite and >= 1")

    def validate(self, probe: int = 32) -> None:
        """Check r(0)=1, symmetry, range, and monotonicity on a probe range."""
        if self.r(0) != 1.0:
            raise ValueError(f"r(0) = {self.r(0)!r}, expected exactly 1")
        vals = [self.r(k) for k in range(probe + 1)]
        for k in range(1, probe + 1):
            if self.r(-k) != vals[k]:
                raise ValueError(f"r is not symmetric at k={k}")
            if not 0.0 <= vals[k] <= 1.0:
                raise ValueError(f"r({k}) = {vals[k]!r} outside [0, 1]")
        if self.envelope is None:
            nonzero = [v for v in vals if v > 0.0]
            if any(a < b for a, b in zip(nonzero, nonzero[1:])):
                raise ValueError("r is increasing somewhere on its nonzero support; "
                                 "supply a monotone envelope to enumerate it")
        else:
            env = [self.envelope(k) for k in range(1, probe + 1)]
            if any(e + 1e-15 < v for e, v in zip(env, vals[1:])):
                raise ValueError("envelope does not dominate r")
            if any(a < b for a, b in zip(env, env[1:])):
                raise ValueError("envelope is not nonincreasing")

    def total(self) -> float:
        """T^D, the sum of rho over the whole lattice."""
        return self.per_dim_total ** self.dim

    def coefficient(self, index: LatticeIndex) -> float:
        """prod_d r(alpha_d), multiplied in ascending order so that every
        permutation and sign flip of ``alpha`` gets the same float."""
        return math.prod(sorted(self.r(v) for _, v in index.entries), start=1.0)


class _RankedMagnitudes:
    """Per-dimension magnitudes ranked by decreasing r, extended on demand.

    ``mags[j]`` and ``weights[j]`` are the magnitude and r-value of rank j
    (rank 0 is the zero entry).  Zero coefficients are skipped.  With a
    non-monotone r the next-largest magnitude is found by scanning until
    the monotone envelope drops below the best pending candidate.  Once
    the nonzero support is exhausted (possibly by underflow) the ranks
    continue deterministically with zero-coefficient magnitudes.
    """

    def __init__(self, profile: CoefficientProfile):
        self._profile = profile
        self._env = profile.envelope or profile.r
        self.mags = [0]
        self.weights = [1.0]
        self._pending: list[tuple[float, int]] = []  # (-r(k), k) heap of scanned, unranked k
        self._scan = 1

    def ensure(self, j: int) -> None:
        """Rank magnitudes until rank ``j`` exists."""
        r, env, pending = self._profile.r, self._env, self._pending
        while len(self.mags) <= j:
            if self.weights[-1] == 0.0:
                self.mags.append(self.mags[-1] + 1)
                self.weights.append(0.0)
                continue
            exhausted = False
            while not pending or env(self._scan) > -pending[0][0]:
                k = self._scan
                if k > 10**7:
                    raise ValueError("profile envelope does not decay; cannot rank magnitudes")
                w = r(k)
                if w > 0.0:
                    heapq.heappush(pending, (-w, k))
                elif not pending and k > 64 * (self.mags[-1] + 64):
                    exhausted = True
                    break
                self._scan += 1
            if exhausted:
                self.mags.append(self.mags[-1] + 1)
                self.weights.append(0.0)
            else:
                negw, k = heapq.heappop(pending)
                self.mags.append(k)
                self.weights.append(-negw)


def _orbit_size(dim: int, shape: tuple[int, ...]) -> int:
    """C(D, s) s! / prod m_j! 2^s: the signed indices in the orbit of ``shape``."""
    size = math.perm(dim, len(shape)) << len(shape)
    for m in Counter(shape).values():
        size //= math.factorial(m)
    return size


def _orbits(profile: CoefficientProfile):
    """Yield (coefficient, magnitudes) per orbit, in nonincreasing coefficient order.

    An orbit is fixed by its shape, the nonincreasing tuple of its
    nonzero per-dimension ranks; its coefficient multiplies their weights
    in shape order, which is ascending as in ``CoefficientProfile.coefficient``.
    Best-first search over shapes (raise the first part of a run of equal
    parts by one rank, or append a rank-1 part) breaks ties by (length,
    shape) and runs on through the zero-coefficient tail without end.
    """
    dim = profile.dim
    ranked = _RankedMagnitudes(profile)
    mags, weights = ranked.mags, ranked.weights
    heap: list[tuple[float, int, tuple[int, ...]]] = [(-1.0, 0, ())]
    seen = {()}
    while True:
        negc, _, shape = heapq.heappop(heap)
        yield -negc, tuple(mags[j] for j in shape)
        ranked.ensure((shape[0] if shape else 0) + 1)
        succ = [shape[:i] + (j + 1,) + shape[i + 1:]
                for i, j in enumerate(shape) if i == 0 or shape[i - 1] != j]
        if len(shape) < dim:
            succ.append(shape + (1,))
        for nxt in succ:
            if nxt not in seen:
                seen.add(nxt)
                heapq.heappush(heap, (-math.prod(weights[j] for j in nxt), len(nxt), nxt))


def enumerate_decreasing(profile: CoefficientProfile, count: int) -> list[LatticeTerm]:
    """The ``count`` largest-coefficient lattice indices, nonincreasing.

    Each orbit expands into its signed indices (dimension combinations x
    distinct magnitude permutations x signs), all with the orbit's one
    coefficient.  Ties are emitted by (number of nonzero entries,
    lexicographic (dimension, value) pairs): each group of orbits sharing
    one coefficient and one length is expanded, sorted and sliced.  Sums
    over the largest coefficients need no index list: see ``partial_sum``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    profile.validate()
    dim = profile.dim
    orbits = _orbits(profile)
    out: list[LatticeTerm] = []
    coeff, mags = next(orbits)
    while len(out) < count:
        group = [mags]
        expansions = _orbit_size(dim, mags)
        # the zero-coefficient tail can tie without bound, so it is drained
        # only as far as the remaining output requires
        for nxt_coeff, nxt in orbits:
            if (nxt_coeff != coeff or len(nxt) != len(mags)
                    or (coeff == 0.0 and expansions >= count - len(out))):
                break
            group.append(nxt)
            expansions += _orbit_size(dim, nxt)
        signed = []
        for member in group:
            values = [v for perm in set(itertools.permutations(member))
                      for v in itertools.product(*[(-m, m) for m in perm])]
            signed.extend(tuple(zip(dims, v))
                          for dims in itertools.combinations(range(dim), len(member))
                          for v in values)
        signed.sort()
        out.extend(LatticeTerm(LatticeIndex(dim, entries), coeff)
                   for entries in signed[:count - len(out)])
        coeff, mags = nxt_coeff, nxt
    return out


def partial_sum(profile: CoefficientProfile, count: int) -> float:
    """Sum of the ``count`` largest coefficients, counted by orbits.

    The top set is a union of whole orbits and at most one part of an
    orbit, so each orbit adds min(orbit size, remaining) copies of its
    coefficient.  No index is listed, so the cost depends on the number
    of shapes, not on ``count``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    profile.validate()
    terms = []
    remaining = count
    for coeff, mags in _orbits(profile):
        if coeff == 0.0:
            break  # every orbit left has a zero coefficient
        take = min(_orbit_size(profile.dim, mags), remaining)
        # exact products, rounded once at the end: the correctly rounded
        # sum of the listed coefficients, as math.fsum over them would give
        terms.append(Fraction(coeff) * take)
        remaining -= take
        if not remaining:
            break
    return float(sum(terms))


def tail_mass(profile: CoefficientProfile, n_points: int) -> float:
    """T^D minus the top ``n_points`` coefficients (clamped at 0)."""
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    return max(profile.total() - partial_sum(profile, n_points), 0.0)


def asymptotic_discrepancy(profile: CoefficientProfile, n_points: int) -> float:
    """sqrt(tail_mass(N) / N): the tabulated asymptotic error estimate."""
    return math.sqrt(tail_mass(profile, n_points) / n_points)
