"""Tests for the generalized Gell-Mann basis."""

import numpy as np
import pytest

from gsicdetect import gell_mann_basis, verify_basis
from gsicdetect.operator_basis import OperatorBasis

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_qubit_basis_is_scaled_paulis():
    basis = gell_mann_basis(2)
    expected = np.stack([SX, SY, SZ]) / np.sqrt(2)
    assert np.abs(basis.generators - expected).max() < 1e-15


def test_generator_count_and_ordering():
    basis = gell_mann_basis(3)
    assert basis.generators.shape == (8, 3, 3)
    # symmetric block first, lexicographic in (j, k)
    sym01 = np.zeros((3, 3), dtype=complex)
    sym01[0, 1] = sym01[1, 0] = 1 / np.sqrt(2)
    assert np.abs(basis.generators[0] - sym01).max() < 1e-15
    # antisymmetric block next
    anti01 = np.zeros((3, 3), dtype=complex)
    anti01[0, 1] = -1j / np.sqrt(2)
    anti01[1, 0] = 1j / np.sqrt(2)
    assert np.abs(basis.generators[3] - anti01).max() < 1e-15
    # diagonal block last
    diag2 = np.diag([1.0, 1.0, -2.0]) / np.sqrt(6)
    assert np.abs(basis.generators[7] - diag2).max() < 1e-15


def test_orthonormality_trace_hermiticity_up_to_dim_eight():
    for d in range(2, 9):
        outcome = verify_basis(gell_mann_basis(d), tol=1e-12)
        assert outcome.passed, (d, outcome.deviations)


def test_qubit_basis_sum_spectrum():
    # eigenvalues of (sx + sy + sz)/sqrt(2) are +-sqrt(3/2)
    eigs = np.linalg.eigvalsh(gell_mann_basis(2).basis_sum)
    assert np.abs(eigs - np.array([-np.sqrt(1.5), np.sqrt(1.5)])).max() < 1e-12


def test_basis_spans_traceless_hermitian_space():
    rng = np.random.default_rng(5)
    for d in (2, 3, 5):
        basis = gell_mann_basis(d)
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = h + h.conj().T
        h -= np.trace(h) * np.eye(d) / d
        coeffs = np.einsum("aij,ji->a", basis.generators, h)
        rebuilt = np.tensordot(coeffs, basis.generators, axes=1)
        assert np.abs(rebuilt - h).max() < 1e-12


def test_verify_basis_flags_scaled_generator():
    basis = gell_mann_basis(3)
    gens = basis.generators.copy()
    gens[0] *= 1 + 1e-6
    outcome = verify_basis(OperatorBasis(dim=3, generators=gens,
                                         basis_id="tampered"))
    assert not outcome.passed
    assert outcome.deviations["orthonormality"] == pytest.approx(2e-6, rel=1e-3)


def test_verify_basis_rejects_wrong_shape():
    basis = gell_mann_basis(3)
    with pytest.raises(ValueError):
        verify_basis(OperatorBasis(dim=3, generators=basis.generators[:5],
                                   basis_id="short"))


def test_too_small_dimension_rejected():
    for d in (-1, 0, 1):
        with pytest.raises(ValueError):
            gell_mann_basis(d)


def _looped_gell_mann(d):
    # the former construction, one generator at a time
    mats = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1.0 / np.sqrt(2.0)
            mats.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j / np.sqrt(2.0)
            m[k, j] = 1j / np.sqrt(2.0)
            mats.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(l), np.arange(l)] = 1.0
        m[l, l] = -float(l)
        mats.append(m / np.sqrt(l * (l + 1.0)))
    return np.stack(mats)


@pytest.mark.parametrize("d", range(2, 17))
def test_generators_are_bit_identical_to_the_loop(d):
    gens = gell_mann_basis(d).generators
    assert gens.dtype == complex and gens.flags.c_contiguous
    assert gens.tobytes() == _looped_gell_mann(d).tobytes()
