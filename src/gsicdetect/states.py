"""Density matrices, reference state families and tensor utilities.

All multi-party matrices use the row-major tensor convention: the first
factor is the most significant index, matching numpy.kron.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (HERM_TOL, PSD_TOL, TRACE_TOL, WEIGHT_SUM_TOL, check_dim,
                     hermiticity_deviation)


@dataclass(frozen=True)
class DensityMatrix:
    """A state of `parties` qudits of equal local dimension.

    matrix has shape (local_dim**parties, local_dim**parties).  label is
    free text used in reports.
    """

    local_dim: int
    parties: int
    matrix: np.ndarray
    label: str = ""

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, local_dim: int, parties: int,
                    label: str = "") -> "DensityMatrix":
        """Wrap and validate a raw matrix as a density matrix."""
        mat = np.asarray(matrix, dtype=complex)
        check_dim(local_dim)
        if parties < 1:
            raise ValueError(f"need parties >= 1, got {parties}")
        dim = local_dim ** parties
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix has shape {mat.shape}, expected ({dim}, {dim})")
        if not np.isfinite(mat).all():
            raise ValueError("matrix has non-finite entries")
        herm = hermiticity_deviation(mat)
        if herm > HERM_TOL:
            raise ValueError(f"matrix is not Hermitian, deviation {herm:.3e}")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"matrix has trace {tr}, expected 1")
        min_eig = float(np.linalg.eigvalsh(mat)[0].real)
        if min_eig < -PSD_TOL:
            raise ValueError(f"matrix has negative eigenvalue {min_eig:.3e}")
        return cls(local_dim=local_dim, parties=parties, matrix=mat, label=label)


def pair_axes(rho: DensityMatrix) -> np.ndarray:
    """rho as (d**2, d**(2N - 2)), one (column, row) axis per party.

    Operators reshaped to (m, d**2) times it contract with the first party.
    """
    d, n = rho.local_dim, rho.parties
    order = [axis for k in range(n) for axis in (n + k, k)]
    return rho.matrix.reshape((d,) * (2 * n)).transpose(order).reshape(d * d, -1)


def _bell_mixture(weights: np.ndarray, label: str) -> DensityMatrix:
    """sum over labels of weights[s, t] |Phi_st><Phi_st| for a (d, d) weight table.

    Phi_st = (U_st (x) I)|phi+> with U_st = weyl_operator(d, s, t) lives on
    the kets |j, j+t mod d>, so the only nonzero entries are
    <j, j+t|rho|k, k+t> = (1/d) sum_s weights[s, t] w**(s*(j - k)): one
    inverse DFT over s, scattered into the d**3 slots (j, k, t).
    """
    d = len(weights)
    j = np.arange(d)
    ket = j[:, None] * d + (j[:, None] + j) % d  # ket[j, t] indexes |j, j+t>
    coeff = np.fft.ifft(weights, axis=0)  # coeff[m, t] for j - k = m mod d
    mat = np.zeros((d * d, d * d), dtype=complex)
    mat[ket[:, None], ket[None]] = coeff[(j[:, None] - j) % d]
    return DensityMatrix(local_dim=d, parties=2, matrix=mat, label=label)


def max_entangled(d: int) -> DensityMatrix:
    """Projector onto the canonical maximally entangled two-qudit vector."""
    check_dim(d)
    table = np.zeros((d, d))
    table[0, 0] = 1.0
    return _bell_mixture(table, f"maxent-d{d}")


def isotropic(d: int, alpha: float) -> DensityMatrix:
    """Mixture of the maximally entangled state with white noise.

    rho = alpha * maxent + (1 - alpha) * I / d**2 with alpha in [0, 1].
    Separable exactly up to alpha = 1/(d + 1).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {alpha}")
    check_dim(d)
    table = np.full((d, d), (1.0 - alpha) / (d * d))
    table[0, 0] += alpha
    return _bell_mixture(table, f"isotropic-d{d}-alpha{alpha:g}")


def weyl_operator(d: int, s: int, t: int) -> np.ndarray:
    """Discrete phase-shift unitary sum_j w**(j*s) |j><j + t mod d|."""
    check_dim(d)
    if not (0 <= s < d and 0 <= t < d):
        raise ValueError(f"labels must lie in 0..{d - 1}, got ({s}, {t})")
    u = np.zeros((d, d), dtype=complex)
    phases = np.exp(2j * np.pi * s * np.arange(d) / d)
    for j in range(d):
        u[j, (j + t) % d] = phases[j]
    return u


def bell_diagonal(d: int, weights: Mapping[tuple[int, int], float]) -> DensityMatrix:
    """Mixture of the d**2 generalized Bell projectors.

    weights maps (s, t) labels to probabilities; omitted labels carry
    weight zero.  The weights must be nonnegative and sum to 1 within
    WEIGHT_SUM_TOL.
    """
    check_dim(d)
    table = np.zeros((d, d))
    for (s, t), p in weights.items():
        if not (0 <= s < d and 0 <= t < d):
            raise ValueError(f"label ({s}, {t}) out of range for dimension {d}")
        if not np.isfinite(p):
            raise ValueError(f"non-finite weight {p} for label ({s}, {t})")
        if p < 0:
            raise ValueError(f"negative weight {p} for label ({s}, {t})")
        table[s, t] = p
    total = sum(weights.values())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"weights sum to {total}, expected 1")
    return _bell_mixture(table, f"belldiag-d{d}-c{max(weights.values()):g}")


def diagonal_mixture(d: int, a1: float,
                     tail: Sequence[float] | None = None) -> DensityMatrix:
    """Maximally entangled fraction plus classically correlated diagonal.

    rho = a1 * maxent + sum over offsets delta = 1..d-1 and k = 0..d-1 of
    (w_delta / d) |k><k| (x) |k+delta mod d><k+delta mod d|.  By default
    the tail weights w_delta are all equal to (1 - a1)/(d - 1); a custom
    tail of length d - 1 summing to 1 - a1 may be supplied.  The offset
    delta diagonal is the uniform mixture of the Bell labels (s, delta).
    """
    check_dim(d)
    if not 0.0 <= a1 <= 1.0:
        raise ValueError(f"entangled weight must lie in [0, 1], got {a1}")
    if tail is None:
        tail = np.full(d - 1, (1.0 - a1) / (d - 1))
    else:
        tail = np.asarray(tail, dtype=float)
        if tail.shape != (d - 1,):
            raise ValueError(f"tail needs {d - 1} weights, got shape {tail.shape}")
        if not np.all(tail >= 0):
            raise ValueError("tail weights must be nonnegative")
        if not abs(a1 + tail.sum() - 1.0) <= WEIGHT_SUM_TOL:
            raise ValueError(
                f"weights sum to {a1 + tail.sum()}, expected 1")
    table = np.zeros((d, d))
    table[:, 1:] = tail / d
    table[0, 0] = a1
    return _bell_mixture(table, f"diagmix-d{d}-a1{a1:g}")


def random_separable(d: int, parties: int, terms: int, seed: int) -> DensityMatrix:
    """Seeded random mixture of pure product states.

    Each term is a product of independent Gaussian random unit vectors;
    the mixing weights are uniform draws normalized to 1.  The output is
    fully separable by construction and deterministic per seed.
    """
    check_dim(d)
    if parties < 2 or terms < 1:
        raise ValueError(
            f"need parties >= 2 and terms >= 1, got {parties} and {terms}")
    rng = np.random.default_rng(seed)
    weights = rng.random(terms)
    weights /= weights.sum()
    dim = d ** parties
    mat = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        factors = rng.normal(size=(parties, d)) + 1j * rng.normal(size=(parties, d))
        factors /= np.linalg.norm(factors, axis=1, keepdims=True)
        vec = reduce(np.kron, factors)
        mat += w * np.outer(vec, vec.conj())
    mat = 0.5 * (mat + mat.conj().T)
    return DensityMatrix(local_dim=d, parties=parties, matrix=mat,
                         label=f"randsep-d{d}-n{parties}-seed{seed}")


def tensor(ops: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a sequence of matrices, first factor most significant."""
    mats = [np.asarray(op) for op in ops]
    if not mats:
        raise ValueError("tensor needs at least one factor")
    return reduce(np.kron, mats)


def partial_transpose(rho: DensityMatrix, party: int) -> np.ndarray:
    """Transpose one party of a multi-party density matrix.

    party is a zero-based index.  The result is returned as a plain
    matrix because it is generally not positive semidefinite.
    """
    n = rho.parties
    if not 0 <= party < n:
        raise ValueError(f"party index {party} out of range for {n} parties")
    d = rho.local_dim
    tens = rho.matrix.reshape((d,) * (2 * n))
    swapped = tens.swapaxes(party, n + party)
    return swapped.reshape(d ** n, d ** n)


def encode_complex(z: np.ndarray) -> list:
    """A complex array as nested lists with one [re, im] pair per entry."""
    return np.stack([z.real, z.imag], -1).tolist()


def decode_complex(raw) -> np.ndarray:
    """Inverse of encode_complex; ValueError unless all entries are finite pairs."""
    pairs = np.asarray(raw)
    if pairs.dtype.kind not in "iuf" or pairs.shape[-1:] != (2,):
        raise ValueError("entries must be [re, im] pairs of numbers")
    if not np.isfinite(pairs).all():
        raise ValueError("non-finite entry; entries must be finite numbers")
    return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]


def decode_int(raw) -> int:
    """A JSON integer field; ValueError for a float, a bool or anything else."""
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ValueError(f"expected an integer, got {raw!r}")
    return raw


def write_state(rho: DensityMatrix, path: str | Path) -> None:
    """Serialize a density matrix to JSON."""
    payload = {"local_dim": rho.local_dim, "parties": rho.parties,
               "matrix": encode_complex(np.asarray(rho.matrix).reshape(-1))}
    Path(path).write_text(json.dumps(payload))


def read_state(path: str | Path) -> DensityMatrix:
    """Load a density matrix from JSON and re-validate it."""
    payload = json.loads(Path(path).read_text())
    try:
        local_dim = decode_int(payload["local_dim"])
        parties = decode_int(payload["parties"])
        flat = decode_complex(payload["matrix"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed state file {path}: {exc}") from exc
    dim = math.isqrt(flat.size)
    # local_dim >= 2 gives local_dim**parties >= 2**parties, so a parties
    # beyond dim's bit length cannot match, and the power is never formed
    if not (flat.shape == (dim * dim,) and parties <= dim.bit_length()
            and local_dim ** parties == dim):
        raise ValueError(
            f"state file {path} holds {flat.size} entries, expected "
            f"({local_dim}**{parties})**2")
    return DensityMatrix.from_matrix(flat.reshape(dim, dim), local_dim, parties,
                                     label=f"file:{Path(path).name}")
