"""Discrete reproducing-kernel machinery: Gram matrices, projection,
partition of unity, discrete Banach norms, and the spline eigenbasis.

Linear solves go through the symmetric eigendecomposition of the Gram
matrix (eigenpairs are needed for the norms anyway) with a pseudo-inverse
cutoff at 1e-14 times the largest eigenvalue.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .kernels import Kernel

__all__ = [
    "PointSet",
    "GramMatrix",
    "NormParams",
    "SplineEigenBasis",
    "SingularGramError",
    "gram",
    "project",
    "partition_of_unity",
    "discrete_norm",
    "spline_eigen",
]

_PINV_CUTOFF = 1e-14


class SingularGramError(ValueError):
    """Gram matrix is numerically singular; carries the condition estimate."""

    def __init__(self, condition: float):
        super().__init__(f"Gram matrix numerically singular (condition ~ {condition:.3e})")
        self.condition = condition


@dataclass(frozen=True)
class PointSet:
    """N points in [0,1]^D, the optimization variable."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 2 or coords.shape[0] < 1 or coords.shape[1] < 1:
            raise ValueError("coords must be a nonempty (N, D) array")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coords must be finite")
        if coords.min() < 0.0 or coords.max() > 1.0:
            raise ValueError("coords must lie in [0, 1]")
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]


@dataclass
class NormParams:
    """Exponents (s, p) of the discrete Banach norm; p' = p/(p-1)."""

    s: float = 1.0
    p: float = 2.0

    def __post_init__(self):
        if self.s < 0:
            raise ValueError("s must be >= 0")
        if self.p < 1:
            raise ValueError("p must be >= 1")

    @property
    def p_conjugate(self) -> float:
        return math.inf if self.p == 1.0 else self.p / (self.p - 1.0)


class GramMatrix:
    """Symmetric kernel matrix K(Y, Y) with a cached eigendecomposition.

    Eigenvalues are stored in descending order with orthonormal
    eigenvectors as columns.  A matrix whose smallest eigenvalue falls
    below 1e-14 of the largest is flagged near-singular (a warning, not
    an error: optimizers may transiently collide points).
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("Gram matrix must be square")
        asym = float(np.max(np.abs(matrix - matrix.T))) if matrix.size else 0.0
        if asym > 1e-12 * max(1.0, float(np.max(np.abs(matrix)))):
            raise ValueError(f"Gram matrix asymmetric beyond tolerance ({asym:.3e})")
        self.matrix = (matrix + matrix.T) / 2.0
        self._eig: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def eigendecomposition(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eig is None:
            vals, vecs = np.linalg.eigh(self.matrix)
            self._eig = (vals[::-1].copy(), vecs[:, ::-1].copy())
        return self._eig

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eigendecomposition()[0]

    def is_near_singular(self) -> bool:
        vals = self.eigenvalues
        return bool(vals[0] <= 0.0 or vals[-1] < _PINV_CUTOFF * vals[0])

    def condition(self) -> float:
        vals = self.eigenvalues
        if vals[-1] <= 0.0:
            return math.inf
        return float(vals[0] / vals[-1])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Pseudo-inverse solve; raises SingularGramError when degenerate."""
        vals, vecs = self.eigendecomposition()
        if self.is_near_singular():
            raise SingularGramError(self.condition())
        proj = vecs.T @ rhs
        return vecs @ (proj / vals[:, None] if proj.ndim == 2 else proj / vals)


def gram(kernel: Kernel, points: PointSet) -> GramMatrix:
    """Gram matrix of the kernel on the point set; warns on near-duplicates."""
    if kernel.dim != points.dim:
        raise ValueError(f"kernel dim {kernel.dim} does not match points dim {points.dim}")
    g = GramMatrix(kernel.pairwise(points.coords, points.coords))
    if g.is_near_singular():
        warnings.warn(
            f"Gram matrix is numerically singular (condition ~ {g.condition():.2e}); "
            "points may be (near-)duplicated",
            RuntimeWarning,
            stacklevel=2,
        )
    return g


def project(kernel: Kernel, points: PointSet, f_values: np.ndarray,
            gram_matrix: GramMatrix | None = None) -> np.ndarray:
    """Coefficients a = K(Y,Y)^{-1} f(Y) of the kernel interpolant."""
    f_values = np.asarray(f_values, dtype=float)
    if f_values.shape != (points.n,):
        raise ValueError(f"expected {points.n} function values, got shape {f_values.shape}")
    g = gram_matrix if gram_matrix is not None else gram(kernel, points)
    return g.solve(f_values)


def partition_of_unity(kernel: Kernel, points: PointSet, x,
                       gram_matrix: GramMatrix | None = None) -> np.ndarray:
    """Cardinal basis theta_Y(x) = K(Y,Y)^{-1} K(Y, x); delta at the nodes."""
    g = gram_matrix if gram_matrix is not None else gram(kernel, points)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    kvec = kernel.pairwise(points.coords, x[None, :])[:, 0]
    return g.solve(kvec)


def discrete_norm(kernel: Kernel, points: PointSet, coefficients: np.ndarray,
                  params: NormParams, gram_matrix: GramMatrix | None = None) -> float:
    """Weighted eigenvalue norm of a discrete expansion sum a_m K(., y^m).

    With Gram eigenpairs (lam_n, zeta_n) and inner products
    <phi, zeta_n> = a^T K zeta_n = lam_n (a^T zeta_n), returns

        ( sum_n lam_n^{-s p} |<phi, zeta_n>|^p )^{1/p}.

    At (s=1/2, p=2) this is the native norm sqrt(a^T K a).
    """
    a = np.asarray(coefficients, dtype=float)
    if a.shape != (points.n,):
        raise ValueError(f"expected {points.n} coefficients, got shape {a.shape}")
    g = gram_matrix if gram_matrix is not None else gram(kernel, points)
    vals, vecs = g.eigendecomposition()
    if params.s > 0 and vals[-1] <= 0.0:
        raise ValueError("nonpositive Gram eigenvalue with s > 0")
    inner = vals * (vecs.T @ a)
    weights = vals ** (-params.s * params.p)
    return float(np.sum(weights * np.abs(inner) ** params.p) ** (1.0 / params.p))


@dataclass(frozen=True)
class SplineEigenBasis:
    """One eigenpair of the spline kernel's integral operator.

    lambda_alpha = prod_d (alpha_d pi)^-2 and the L2-orthonormal
    eigenfunction zeta_alpha(x) = prod_d sqrt(2) sin(alpha_d pi x_d).
    (The sqrt(2) makes orthonormality literal; the eigenvalues are
    unchanged, and spectral and physical discrepancies then agree.)
    """

    dim: int
    index: tuple[int, ...]
    eigenvalue: float = field(init=False)

    def __post_init__(self):
        if len(self.index) != self.dim:
            raise ValueError("index length must equal dim")
        if any(a < 1 for a in self.index):
            raise ValueError("spline eigenindices must have all components >= 1")
        lam = 1.0
        for a in self.index:
            lam /= (a * math.pi) ** 2
        object.__setattr__(self, "eigenvalue", lam)

    def __call__(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        out = np.ones(pts.shape[0])
        for d, a in enumerate(self.index):
            out *= math.sqrt(2.0) * np.sin(a * math.pi * pts[:, d])
        return float(out[0]) if single else out

    def integral(self) -> float:
        """int over the cube: prod_d sqrt(2) (1 - cos(alpha_d pi)) / (alpha_d pi)."""
        out = 1.0
        for a in self.index:
            out *= math.sqrt(2.0) * (1.0 - math.cos(a * math.pi)) / (a * math.pi)
        return out


def spline_eigen(dim: int, index) -> SplineEigenBasis:
    """Eigenpair of the spline kernel for a multi-index with entries >= 1."""
    return SplineEigenBasis(dim, tuple(int(a) for a in np.atleast_1d(index)))
