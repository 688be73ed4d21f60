"""Shared test helpers."""

import numpy as np
import pytest

from gsicdetect import GsicSet, construct_gsic, feasible_t, purity_from_t
from gsicdetect.states import DensityMatrix


@pytest.fixture
def random_state():
    """Factory for seeded random mixed states on local_dim**parties levels."""

    def make(local_dim: int, parties: int, rng, rank: int | None = None):
        dim = local_dim ** parties
        rank = dim if rank is None else rank
        weights = rng.random(rank)
        weights /= weights.sum()
        mat = np.zeros((dim, dim), dtype=complex)
        for w in weights:
            vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            vec /= np.linalg.norm(vec)
            mat += w * np.outer(vec, vec.conj())
        mat = 0.5 * (mat + mat.conj().T)
        return DensityMatrix.from_matrix(mat, local_dim, parties)

    return make


@pytest.fixture
def above_cap_set():
    """Factory for the set at t = cap*(1 + eps), which construct_gsic refuses.

    P_j = I/d**2 + t*M_j is affine in t, so stretching the set built at the
    cap about I/d**2 by 1 + eps gives the operators at cap*(1 + eps).
    """

    def make(basis, eps: float) -> GsicSet:
        d = basis.dim
        cap = feasible_t(basis).t
        eye = np.eye(d) / d**2
        ops = eye + (1 + eps) * (construct_gsic(basis, cap).operators - eye)
        t = cap * (1 + eps)
        return GsicSet(dim=d, t=t, a=purity_from_t(d, t), operators=ops,
                       basis_id=basis.basis_id)

    return make
