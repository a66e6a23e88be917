"""Reproducing-kernel quadrature discrepancy toolkit.

Builds the seed / periodic / transported / spline kernel families on the
unit cube, evaluates the integration-discrepancy function in physical,
spectral, and lattice-Fourier form, optimizes point sets against it, and
regenerates the reference error tables.
"""

from .discrepancy import (DiscrepancyReport, MonteCarlo, asymptotic_error, periodic_error,
                          periodic_error_sp, physical_error, spectral_error)
from .kernels import (FAMILIES, Kernel, PeriodicKernel, SeedKernel, SplineKernel,
                      TransportedKernel, TransportMap, coefficient_profile, erfinv,
                      fourier_coefficient, kernel_from_id, pseudo_distance, theta3)
from .lattice import (CoefficientProfile, LatticeIndex, LatticeTerm, asymptotic_discrepancy,
                      enumerate_decreasing, partial_sum, tail_mass)
from .optimize import (Cond1Problem, Cond1Result, OptimizerConfig, box_targets, canonical_grid,
                       cond1_functional, cond1_gradient, descend_physical, midpoint_1d,
                       optimize_points, solve_cond1)
from .rkhs import (GramMatrix, NormParams, PointSet, SingularGramError, SplineEigenBasis,
                   discrete_norm, gram, partition_of_unity, project, spline_eigen)
from .sampling import MT19937, cell_seed, uniform_points

__version__ = "0.1.0"
