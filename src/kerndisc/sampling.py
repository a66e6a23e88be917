"""Reproducible random sampling.

All randomness in the package flows through one MT19937 stream (32-bit
Mersenne Twister, standard parameterization, ``init_genrand`` seeding),
taken from NumPy's ``RandomState``.  NEP 19 freezes that stream, so
point sets are bit-identical across platforms and NumPy versions.
Doubles use the canonical 53-bit recipe ``((a >> 5) * 2^26 + (b >> 6))
/ 2^53`` from two consecutive 32-bit draws.
"""

from __future__ import annotations

import numpy as np


class MT19937:
    """The Mersenne Twister stream of one seed.

    Identical to the classic scalar implementation (and to a
    default-constructed C++ ``std::mt19937`` for the same seed); both
    methods draw from the same stream.
    """

    def __init__(self, seed: int = 5489):
        if not 0 <= int(seed) < 2**32:
            raise ValueError("seed must be a 32-bit unsigned integer")
        self._state = np.random.RandomState(int(seed))

    def uint32(self, n: int) -> np.ndarray:
        """Next ``n`` tempered 32-bit words."""
        return self._state.randint(0, 2**32, size=n, dtype=np.uint32)

    def random(self, n: int) -> np.ndarray:
        """Next ``n`` doubles in [0, 1) via the 53-bit (res53) recipe."""
        return self._state.random_sample(n)


def uniform_points(seed: int, n_points: int, dim: int):
    """Draw an ``n_points`` x ``dim`` uniform point set on [0,1)^dim.

    Variates are consumed in row-major order: point index outer,
    dimension inner.
    """
    from .rkhs import PointSet

    if n_points < 1 or dim < 1:
        raise ValueError("n_points and dim must be >= 1")
    gen = MT19937(seed)
    coords = gen.random(n_points * dim).reshape(n_points, dim)
    return PointSet(coords)


def cell_seed(base_seed: int, n_points: int, dim: int) -> int:
    """Per-cell seed for an (N, D) table cell: ``base + 1000003*D + N`` mod 2^32."""
    return (int(base_seed) + 1000003 * int(dim) + int(n_points)) % 2**32
