"""Orthonormal traceless Hermitian operator bases for qudits.

The generalized Gell-Mann construction spans the traceless Hermitian
operators on a d-dimensional Hilbert space with d**2 - 1 generators that
are orthonormal under the Hilbert-Schmidt inner product, Tr(F_a F_b) =
delta_ab.  For d = 2 the generators are the Pauli matrices divided by
sqrt(2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import VALIDATION_TOL, check_dim, hermiticity_deviation


@dataclass(frozen=True)
class OperatorBasis:
    """Orthonormal traceless Hermitian basis of the qudit operator space.

    generators has shape (d**2 - 1, d, d) and is ordered as: symmetric
    off-diagonal pairs in lexicographic (j, k) order, then antisymmetric
    pairs in the same order, then the diagonal generators.
    """

    dim: int
    generators: np.ndarray
    basis_id: str

    @property
    def basis_sum(self) -> np.ndarray:
        """Sum of all generators, a traceless Hermitian matrix."""
        return self.generators.sum(axis=0)


@dataclass(frozen=True)
class ValidationOutcome:
    """Per-check maximum deviations against a common tolerance."""

    deviations: dict[str, float]
    tolerance: float

    @property
    def passed(self) -> bool:
        """Every deviation is within the tolerance; a NaN deviation fails."""
        return all(v <= self.tolerance for v in self.deviations.values())


def gell_mann_basis(d: int) -> OperatorBasis:
    """Build the generalized Gell-Mann basis in dimension d.

    Parameters
    ----------
    d : int
        Local dimension, at least 2.

    Returns
    -------
    OperatorBasis
        The d**2 - 1 orthonormal traceless Hermitian generators.
    """
    check_dim(d)
    # -1j/sqrt(2) keeps a real part of -0.0, and the diagonal rows are divided
    # as complex numbers, which rounds apart from a real division at d >= 4.
    n = d * (d - 1) // 2
    pair = np.arange(n)
    j, k = np.nonzero(np.arange(d)[:, None] < np.arange(d))  # triu_indices(d, 1)
    gens = np.zeros((d * d - 1, d, d), dtype=complex)
    gens[pair, j, k] = gens[pair, k, j] = 1.0 / np.sqrt(2.0)
    gens[n + pair, j, k] = -1j / np.sqrt(2.0)
    gens[n + pair, k, j] = 1j / np.sqrt(2.0)
    l = np.arange(1, d)
    diag = (np.arange(d) < l[:, None]).astype(complex)
    diag[l - 1, l] = -l
    gens[2 * n:, np.arange(d), np.arange(d)] = diag / np.sqrt(l * (l + 1.0))[:, None]
    return OperatorBasis(dim=d, generators=gens, basis_id=f"gellmann-d{d}")


def hilbert_schmidt_gram(mats: np.ndarray) -> np.ndarray:
    """Re Tr(A_a^H A_b) for a stack of m square matrices, as one real SYRK.

    On a Hermitian stack that is Tr(A_a A_b); callers check hermiticity.
    """
    m = len(mats)
    y = np.ascontiguousarray(mats, dtype=complex).reshape(m, -1).view(float)
    return y @ y.T


def verify_basis(basis: OperatorBasis,
                 tol: float = VALIDATION_TOL) -> ValidationOutcome:
    """Check orthonormality, tracelessness and hermiticity of a basis."""
    gens = np.asarray(basis.generators)
    d = basis.dim
    want = (d * d - 1, d, d)
    if gens.shape != want:
        raise ValueError(f"generator array has shape {gens.shape}, expected {want}")
    orth = float(np.abs(hilbert_schmidt_gram(gens) - np.eye(d * d - 1)).max())
    trace = float(np.abs(np.trace(gens, axis1=1, axis2=2)).max())
    herm = hermiticity_deviation(gens)
    deviations = {"orthonormality": orth, "trace": trace, "hermiticity": herm}
    return ValidationOutcome(deviations=deviations, tolerance=tol)
