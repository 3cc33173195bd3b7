"""Jacobi-ensemble averages, duality formulas, and the impenetrable Bose
gas density matrix: exact closed forms, one Hankel-determinant engine for
exact averages built from three-term recurrences, an exact sampler and
Monte Carlo, orbital spectra, and singular-symbol determinant
asymptotics."""

__version__ = "0.1.0"
