"""Exception types, numeric tolerances and input checks shared across the package."""

from __future__ import annotations

import math

import numpy as np

# Every tolerance of the package, defined only here; all absolute.
HERM_TOL = 1e-10  # largest |rho - rho^H| entry of an accepted density matrix
TRACE_TOL = 1e-10  # largest |Tr rho - 1| of an accepted density matrix
PSD_TOL = 1e-10  # eigenvalue floor -PSD_TOL of density matrices and partial transposes
WEIGHT_SUM_TOL = 1e-12  # largest |sum - 1| of the weights of a state mixture
PURITY_MATCH_TOL = 1e-12  # largest |a_p - a_q| of two sets paired in one test
RANGE_SLACK = 1e-12  # rounding allowed outside the purity range [1/d**3, 1/d**2]
CAP_EIG_SLACK = 1e-13  # eigensolver noise ignored when choosing which cap on t binds
# default largest deviation of a basis or measurement check; a measurement's
# psd deviation is d**2 * max(0, -lambda_min), on its eigenvalues' 1/d**2 scale
VALIDATION_TOL = 1e-10
IMAG_TOL = 1e-8  # largest imaginary residue of a correlation sum
CORR_IMAG_TOL = 1e-10  # largest imaginary residue of a correlation-matrix entry
DECISION_MARGIN = 1e-9  # J must exceed the separable bound by more than this


class NumericIntegrityError(ArithmeticError):
    """A computed quantity violates a numeric sanity bound.

    Raised when a value that must be real up to floating-point noise
    comes back with a non-negligible imaginary part, which points at a
    corrupted input rather than at an unlucky rounding.
    """


class InfeasibleParameterError(ValueError):
    """A mixing parameter pushes some operator out of the PSD cone."""

    def __init__(self, message: str, index: int | None = None,
                 eigenvalue: float | None = None):
        super().__init__(message)
        self.index = index
        self.eigenvalue = eigenvalue


def check_dim(d: int) -> None:
    """Reject a local dimension below 2."""
    if d < 2:
        raise ValueError(f"need dimension >= 2, got {d}")


def check_measurements(rho, sets) -> None:
    """Require one measurement set per party of rho, each of its local dimension."""
    if len(sets) != rho.parties or any(g.dim != rho.local_dim for g in sets):
        raise ValueError(
            f"state has {rho.parties} parties of dimension {rho.local_dim}, "
            f"got measurement sets of dimensions {[g.dim for g in sets]}")


def purity_range_deviation(d: int, a: float) -> float:
    """Distance of a purity from [1/d**3, 1/d**2]; NaN for a NaN purity."""
    if math.isnan(a):
        return math.nan
    return max(0.0, 1.0 / d**3 - a, a - 1.0 / d**2)


def hermiticity_deviation(m: np.ndarray) -> float:
    """Largest entry of |M - M^H|, for one matrix or a stack of matrices."""
    return float(np.abs(m - np.swapaxes(m, -1, -2).conj()).max())


def require_real(value, tol: float, what: str) -> np.ndarray:
    """Real part of a scalar or array whose imaginary parts all lie within tol.

    Raises NumericIntegrityError otherwise, a NaN residue included.
    """
    value = np.asarray(value)
    residue = float(np.abs(value.imag).max())
    if not residue <= tol:
        raise NumericIntegrityError(
            f"{what} has imaginary residue {residue:.3e}")
    return value.real
