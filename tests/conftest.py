"""Shared test helpers."""

import json
from pathlib import Path

import numpy as np
import pytest

from gsicdetect import (GsicSet, OperatorBasis, conjugate_gsic, construct_gsic,
                        criteria, feasible_t, gell_mann_basis, oracle,
                        purity_from_t, states)
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


def _raw_file(path) -> tuple[dict, np.ndarray]:
    """The head and the entries of a written raw file."""
    with open(path, "rb") as f:
        head = json.loads(f.readline())
        z = np.frombuffer(f.read(), "<c16").copy()
    assert head["encoding"] == "c16le-raw"
    return head, z


# session-scoped, as the property tests' files are, since each factory
# holds no state

@pytest.fixture(scope="session")
def edit_head():
    """Factory: rewrite a written raw file with fields replaced in its head.

    The head stays one line of json.dumps, and the entries follow it
    unchanged.
    """

    def make(path, **fields) -> None:
        head, z = _raw_file(path)
        head.update(fields)
        Path(path).write_bytes(json.dumps(head).encode() + b"\n"
                               + z.tobytes())

    return make


@pytest.fixture(scope="session")
def edit_entries():
    """Factory: rewrite a written raw file with edit(entries) as its payload.

    edit receives the decoded complex entries, flat and writable, and
    returns the array to store as raw bytes after the same head.
    """

    def make(path, edit) -> None:
        head, z = _raw_file(path)
        raw = np.asarray(edit(z), dtype="<c16").tobytes()
        Path(path).write_bytes(json.dumps(head).encode() + b"\n" + raw)

    return make


def _reference_weights(family, d, x) -> np.ndarray:
    """One grid point's weight table, written for a float x only."""
    if family == "isotropic":
        table = np.full((d, d), (1.0 - x) / (d * d))
        table[0, 0] += x
        return table
    if family == "belldiag-c":
        table = np.full((d, d), (1.0 - x) / (d * d - 1.0))
        table[0, 0] = x
        return table
    table = np.zeros((d, d))
    table[:, 1:] = np.full(d - 1, (1.0 - x) / (d - 1)) / d
    table[0, 0] = x
    return table


@pytest.fixture(scope="session")
def reference_weights():
    """Factory: (family, d, x) -> the family's weight table at a float x."""
    return _reference_weights


@pytest.fixture(scope="session")
def scan_reference():
    """Factory: what scan_family(family, p, steps) gives, point by point.

    One table, one sum, one dot product and one flag per grid point,
    returned as (grid, j_values, margins, flagged, bound): four lists of
    Python floats and bools and the bound.
    """

    def make(family, p, steps) -> tuple:
        d = p.dim
        start, _ = criteria.SCAN_FAMILIES[family](d)
        w = criteria._Witness(p, conjugate_gsic(p))
        bell = w.bell_table().ravel()
        grid, j_values, margins, flagged = [], [], [], []
        for x in np.linspace(start, 1.0, steps).tolist():
            table = _reference_weights(family, d, x)
            deviation = abs(float(table.sum()) - 1.0)
            trace = float(table.ravel() @ bell)
            margin = trace - w.excess
            grid.append(x)
            j_values.append(1.0 / d ** 2 + trace)
            margins.append(margin)
            flagged.append(margin > w.error_bound + deviation)
        return grid, j_values, margins, flagged, w.bound

    return make


@pytest.fixture
def prover_routes(monkeypatch):
    """The routes of the positivity prover, logged in order as they run.

    Each entry point of states._lowest_eigenvalue's routes is wrapped
    once: "split" when _blocks splits a matrix on its zero pattern and
    "one component" when it finds none to split; "certificate proves" or
    "certificate declines" for the low-rank certificate; "factor k/m"
    when the slab factors prove k of m matrices; "eigvalsh m" for the
    spectra of m matrices, whoever asks for them; "lanczos k" for the
    Lanczos walk of ppt_test's NPT certificate, which took k steps, the
    order of the projected matrix whose eigenvectors it asks for last.
    """
    log = []
    blocks, low_rank_proves = states._blocks, states._low_rank_proves
    unproven, eigvalsh = states._unproven, np.linalg.eigvalsh
    ritz_vector = oracle._ritz_vector

    def logged_blocks(h):
        split = blocks(h)
        log.append("one component" if split is None else "split")
        return split

    def logged_low_rank_proves(a, floor):
        proved = low_rank_proves(a, floor)
        log.append("certificate proves" if proved else "certificate declines")
        return proved

    def logged_unproven(stack, idx, traces, floor):
        rest = unproven(stack, idx, traces, floor)
        log.append(f"factor {len(idx) - len(rest)}/{len(idx)}")
        return rest

    def logged_eigvalsh(a, *args, **kwargs):
        log.append(f"eigvalsh {len(a) if a.ndim == 3 else 1}")
        return eigvalsh(a, *args, **kwargs)

    def logged_ritz_vector(a, below):
        orders = []
        eigh = np.linalg.eigh

        def logged_eigh(m, *args, **kwargs):
            orders.append(len(m))
            return eigh(m, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", logged_eigh)
            y = ritz_vector(a, below)
        log.append(f"lanczos {orders[-1]}")
        return y

    monkeypatch.setattr(states, "_blocks", logged_blocks)
    monkeypatch.setattr(states, "_low_rank_proves", logged_low_rank_proves)
    monkeypatch.setattr(states, "_unproven", logged_unproven)
    monkeypatch.setattr(np.linalg, "eigvalsh", logged_eigvalsh)
    monkeypatch.setattr(oracle, "_ritz_vector", logged_ritz_vector)
    return log
