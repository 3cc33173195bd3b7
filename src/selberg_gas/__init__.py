"""Jacobi-ensemble averages, duality formulas, and the impenetrable Bose
gas density matrix: exact closed forms, one Hankel-determinant engine for
exact averages built from three-term recurrences, an exact sampler and
Monte Carlo, orbital spectra, and singular-symbol determinant
asymptotics."""

__version__ = "0.1.0"

from .exact import (
    BOUNDARY_DIRICHLET,
    BOUNDARY_NEUMANN,
    DensityMatrixQuery,
    EnsembleParams,
    LogMagnitude,
    MorrisParams,
    density_matrix_asymptote,
    duality_constant_A,
    morris_closed,
    occupation_number,
    selberg_closed,
)
from .averages import (
    MCEstimate,
    average_even_power_heine,
    density_matrix_exact,
    duality_lhs,
    duality_rhs,
)
from .ensembles import rng_stream, sample_bidiagonal, sample_jue_halfhalf, spectra, tridiagonal
from .orbitals import apply_kernel, orbital, orbital_normalization, scaled_occupation
from .fisherhartwig import SymbolSpec, toeplitz_determinant
