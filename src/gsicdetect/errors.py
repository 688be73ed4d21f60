"""Shared exception types, tolerances, input checks and J's error bound."""

from __future__ import annotations

import math

import numpy as np

# Every tolerance of the package, defined only here; all absolute.  The
# decision margin of a test is no constant: margin_error_bound derives it
# from the two measurement sets, and a verdict adds the state's deviation,
# so what these tolerances admit never turns into a flag.
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


def margin_error_bound(p, q) -> float:
    """Worst-case error E of j_bipartite(rho, p, q) - bipartite_bound.

    E = 2 (m**2 + 2m) eps S + ((d + 2)**2 (dp + dq) + d |ap - aq|/(d + 1))/2

    with m = d**2 outcomes, eps the machine epsilon, S = sum_j ||P_j||_1
    ||Q_j||_1 over entrywise 1-norms, dp, dq the sets' deviation fields
    and ap, aq their purities.
    The first term bounds the rounding of the difference for every
    density matrix rho, the second how far the sets' separable ceiling
    can sit above the bound.  A state admitted at trace-norm distance
    delta from a density matrix moves J by at most ||W||_op delta <=
    delta more, W = sum_j P_j (x) Q_j, since ||W||_op <= max_j ||Q_j||_op
    ||sum_j P_j||_op <= 1/d; a verdict adds rho's deviation to E.

    Rounding, with u = eps/2 and gamma_n = n u / (1 - n u) (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., sections 3.1
    and 3.6): the kernel reads rho as X = pair_axes(rho), whose entries
    obey |X_ab| <= 1.

    1. x_jb = sum_a P_ja X_ab is a complex inner product of length m.  Its
       real and imaginary parts are real inner products of length 2m in
       some order, so each is off by at most gamma_2m sum_a |P_ja||X_ab|,
       and |dx_jb| <= sqrt(2) gamma_2m ||P_j||_1 while |x_jb| <= ||P_j||_1.
    2. Re J = sum_jb Re(Q_jb x_jb) is one real inner product of length
       2m**2, whatever order the batched product and the final sum take:
       off by at most gamma_{2m**2} (1 + sqrt(2) gamma_2m) S, plus the
       carried stage-1 error sum_jb |Q_jb||dx_jb| <= sqrt(2) gamma_2m S.

    To first order that is (m**2 + sqrt(2) m) eps S.  The first term of E
    is more than twice that, which also covers the gamma denominators
    (n u <= 0.01 up to d = 2000), the relative 4u of bipartite_bound (at
    most 1/3) and the rounding of the subtraction, since S >= 1: each
    ||P_j||_1 >= |Tr P_j| = 1/d.

    Sets, to first order in a set's largest validation deviation delta:
    for a pure product state, J <= (IC_P + IC_Q)/2 with IC_P = sum_j
    Tr(P_j rho_A)**2 by Cauchy-Schwarz.  Write rho_A = I/d + r, Tr r = 0,
    ||r||_2**2 = 1 - 1/d.  The operator traces add at most 2 delta/d to
    IC_P, the completeness residual and the traces together 2 delta/d + 2
    delta through the cross term, and the Gram matrix of the traceless
    parts, of top eigenvalue a - c for an exact set (c the pairwise
    trace), at most (d**2 + 2) delta through sum_j Tr(P_j r)**2.  So IC_P
    <= (a_p d**2 + 1)/(d (d + 1)) + (d + 2)**2 delta, and the ceiling of
    Q, at purity a_q, sits d (a_q - a_p)/(d + 1) above that of P.
    Separable states are mixtures of pure product states, and J is linear.

    p and q are duck-typed: anything with dim, a, deviation and a (d**2,
    d, d) operators array.
    """
    d = p.dim
    m = d * d
    s = (np.abs(p.operators).sum(axis=(1, 2))
         @ np.abs(q.operators).sum(axis=(1, 2)))
    rounding = 2.0 * (m * m + 2.0 * m) * np.finfo(float).eps * s
    sets = ((d + 2.0) ** 2 * (p.deviation + q.deviation)
            + d * abs(p.a - q.a) / (d + 1.0)) / 2.0
    return float(rounding + sets)


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
