"""Jacobi-ensemble averages, duality formulas, and the impenetrable Bose
gas density matrix: exact closed forms, quadrature oracles, exact and
Monte Carlo sampling, orbital spectra, and singular-symbol determinant
asymptotics."""

__version__ = "0.1.0"

from .exact import (
    BOUNDARY_DIRICHLET,
    BOUNDARY_NEUMANN,
    DensityMatrixQuery,
    EnsembleParams,
    LogMagnitude,
    MorrisParams,
    asymptotic_partition_ratio,
    barnes_ratio_asymptote,
    density_matrix_asymptote,
    duality_constant_A,
    mehta_volume,
    morris_closed,
    occupation_number,
    selberg_closed,
)
from .averages import (
    ChargeConfig,
    DualityCase,
    MCEstimate,
    average_even_power_heine,
    average_product_bruteforce,
    duality_lhs,
    duality_rhs,
    mc_density_matrix,
    partition_ratio_bruteforce,
)
from .ensembles import (
    EigenvalueSample,
    RngStream,
    sample_jue,
    sample_jue_halfhalf,
)
from .orbitals import KernelSpec, Orbital, apply_kernel, orbital, scaled_occupation
from .fisherhartwig import (
    DeterminantValue,
    SymbolSpec,
    fh_drift_report,
    hankel_determinant,
    jacobi_fh_asymptote,
    toeplitz_determinant,
    toeplitz_fh_asymptote,
)
