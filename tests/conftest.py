"""Shared test helpers."""

import base64
import json
from pathlib import Path

import numpy as np
import pytest

from gsicdetect import (GsicSet, OperatorBasis, construct_gsic, feasible_t,
                        gell_mann_basis, purity_from_t)
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
def rotated_basis():
    """Factory for a seeded real-orthogonal rotation of the Gell-Mann basis.

    A real-orthogonal mix of orthonormal traceless Hermitian generators is
    again such a basis.
    """

    def make(d: int) -> OperatorBasis:
        gens = gell_mann_basis(d).generators
        rng = np.random.default_rng(70 + d)
        rotation, _ = np.linalg.qr(rng.normal(size=(d * d - 1, d * d - 1)))
        return OperatorBasis(dim=d, generators=np.tensordot(rotation, gens, 1),
                             basis_id=f"rotated-d{d}")

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


def _file_entries(payload: dict) -> tuple[str, np.ndarray]:
    """The complex field of a tagged file payload and its decoded entries."""
    assert payload["encoding"] == "c16le-base64"
    key = "operators" if "operators" in payload else "matrix"
    return key, np.frombuffer(base64.b64decode(payload[key]), "<c16").copy()


@pytest.fixture
def legacy_payload():
    """Factory: the payload of a written file in the untagged [re, im] form.

    The entries are laid out as the writers did before the encoding tag:
    one row of pairs per operator in a measurement file, one flat row of
    pairs in a state file.
    """

    def make(path) -> dict:
        payload = json.loads(Path(path).read_text())
        key, z = _file_entries(payload)
        del payload["encoding"]
        if key == "operators":
            z = z.reshape(payload["d"] ** 2, -1)
        payload[key] = np.stack([z.real, z.imag], -1).tolist()
        return payload

    return make


@pytest.fixture
def edit_entries():
    """Factory: rewrite a written file with edit(entries) as its payload.

    edit receives the decoded complex entries, flat and writable, and
    returns the array to store, base64-encoded as the writers do.
    """

    def make(path, edit) -> None:
        payload = json.loads(Path(path).read_text())
        key, z = _file_entries(payload)
        raw = np.asarray(edit(z), dtype="<c16").tobytes()
        payload[key] = base64.b64encode(raw).decode("ascii")
        Path(path).write_text(json.dumps(payload))

    return make
