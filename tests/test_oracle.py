"""Checks for the independent reference implementations."""

import dataclasses

import numpy as np
import pytest

from gsicdetect import (DensityMatrix, bell_diagonal, brute_force_j,
                        conjugate_gsic, construct_gsic, gell_mann_basis,
                        isotropic, j_bipartite, j_multipartite,
                        max_entangled, max_feasible_t, oracle,
                        partial_transpose, ppt_test, random_separable)
from gsicdetect.errors import PSD_TOL
from gsicdetect.oracle import LANCZOS_STEPS


def test_ppt_flags_max_entangled():
    for d in (2, 3, 4):
        res = ppt_test(max_entangled(d))
        assert res.npt
        assert res.min_eigenvalue == pytest.approx(-1 / d, abs=1e-12)


def test_ppt_on_isotropic_boundary():
    for d in (2, 3):
        onbound = ppt_test(isotropic(d, 1 / (d + 1)))
        assert abs(onbound.min_eigenvalue) < 1e-12
        assert not onbound.npt
        assert ppt_test(isotropic(d, 1 / (d + 1) + 1e-3)).npt
        assert not ppt_test(isotropic(d, 1 / (d + 1) - 1e-3)).npt


def _assert_ppt_pinned(rho, closed):
    # against the closed form and a plain eigvalsh of the partial transpose
    res = ppt_test(rho)
    plain = np.linalg.eigvalsh(partial_transpose(rho, 1))[0]
    assert abs(res.min_eigenvalue - closed) <= 1e-14
    assert abs(res.min_eigenvalue - plain) <= 1e-14
    assert res.npt == (plain < -PSD_TOL)


@pytest.mark.parametrize("d", range(2, 9))
def test_ppt_of_every_bell_label_is_minus_one_over_d(d):
    # each label is a maximally entangled pure state: (1 - (d + 1))/d**2
    for s in range(d):
        for t in range(d):
            _assert_ppt_pinned(bell_diagonal(d, {(s, t): 1.0}), -1.0 / d)


@pytest.mark.parametrize("alpha", [0.0, 1 / 17, 0.3, 0.75, 1.0])
def test_ppt_of_isotropic_d16_matches_its_closed_form(alpha):
    _assert_ppt_pinned(isotropic(16, alpha), (1 - alpha * 17) / 256)


def test_ppt_on_separable_states():
    for seed in range(10):
        d = 2 + seed % 3
        assert not ppt_test(random_separable(d, 2, 1 + seed % 5,
                                             seed=seed)).npt


def _ginibre(d: int, seed: int) -> DensityMatrix:
    """A dense two-qudit Ginibre state G G^H / Tr, exactly Hermitian."""
    rng = np.random.default_rng(seed)
    n = d * d
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    mat = z @ z.conj().T
    mat = 0.5 * (mat + mat.conj().T)
    return DensityMatrix.from_matrix(mat / np.trace(mat).real, d, 2)


@pytest.mark.parametrize("npt", [True, False], ids=["ginibre", "separable"])
def test_a_dense_d16_ppt_test_solves_no_spectrum_until_it_is_read(
        monkeypatch, prover_routes, npt):
    # the low-rank certificate comes first: it proves the separable state
    # with no Lanczos step, and its probe declines the Ginibre state, which
    # the NPT certificate then settles after 3 steps; eigh sees only the
    # Lanczos steps' projected matrix
    rho = _ginibre(16, 3) if npt else random_separable(16, 2, 4, seed=7)
    plain = np.linalg.eigvalsh(partial_transpose(rho, 1))[0]
    eigh = np.linalg.eigh

    def small_eigh(a, *args, **kwargs):
        assert len(a) <= LANCZOS_STEPS, a.shape
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", small_eigh)
    prover_routes.clear()
    res = ppt_test(rho)
    decided = (["certificate declines", "lanczos 3"] if npt
               else ["certificate proves"])
    assert prover_routes == decided
    assert res.npt == (plain < -PSD_TOL) == npt
    assert res.min_eigenvalue.hex() == float(plain).hex()
    assert prover_routes == decided + ["eigvalsh 1"]
    assert res.min_eigenvalue.hex() == float(plain).hex()
    assert prover_routes == decided + ["eigvalsh 1"]  # kept, not solved again


@pytest.mark.parametrize("terms, factored", [
    (4, ["certificate proves"]),
    (20, ["certificate declines", f"lanczos {LANCZOS_STEPS}", "factor 1/1"]),
    (100, ["certificate declines", f"lanczos {LANCZOS_STEPS}", "factor 1/1"])])
def test_a_singular_ppt_partial_transpose_is_factored_whole_at_most_once(
        prover_routes, terms, factored):
    # the partial transpose of a separable d = 16 state of a few terms is
    # singular and PSD: at rank 4 the low-rank certificate proves it after
    # the probe at 0 fails, before any Lanczos step; at rank 20, past the
    # certificate, and at rank 100, which passes the probe, the certificate
    # declines once, the Lanczos walk takes all its steps, the Ritz quotient
    # lies above -PSD_TOL, and one factor shifted just above -PSD_TOL
    # proves it, with no second certificate; none takes a spectrum until
    # min_eigenvalue is read
    rho = random_separable(16, 2, terms, seed=1)
    res = ppt_test(rho)
    assert prover_routes == factored and not res.npt
    plain = np.linalg.eigvalsh(partial_transpose(rho, 1))[0]
    assert res.min_eigenvalue.hex() == float(plain).hex()


@pytest.mark.parametrize("d", [8, 16])
def test_a_separable_dense_partial_transpose_is_proved_before_any_lanczos_step(
        monkeypatch, prover_routes, d):
    # the certificate spares the Lanczos walk of the NPT certificate and
    # the whole spectrum, at d = 8 as at d = 16
    def no_lanczos(a):
        raise AssertionError("a Lanczos step ran")

    monkeypatch.setattr(oracle, "_ritz_vector", no_lanczos)
    rho = random_separable(d, 2, 4, seed=d)
    res = ppt_test(rho)
    assert prover_routes == ["certificate proves"] and not res.npt
    plain = np.linalg.eigvalsh(partial_transpose(rho, 1))[0]
    assert res.min_eigenvalue.hex() == float(plain).hex()


def _weakly_npt_ginibre(d: int) -> DensityMatrix:
    """A Ginibre state mixed with I/n to lambda_min(pt) = -1e-6, which
    neither certificate settles."""
    rho, n = _ginibre(d, 3), d * d
    lowest = np.linalg.eigvalsh(partial_transpose(rho, 1))[0]
    p = (1 / n + 1e-6) / (1 / n - lowest)
    return DensityMatrix(local_dim=d, parties=2,
                         matrix=(1 - p) * np.eye(n) / n + p * rho.matrix)


@pytest.mark.parametrize("kind, routes", [
    ("ginibre-d8", ["certificate declines", "lanczos 2"]),
    ("ginibre-d16", ["certificate declines", "lanczos 3"]),
    ("weak-d16", ["certificate declines", f"lanczos {LANCZOS_STEPS}",
                  "factor 0/1", "eigvalsh 1"]),
    ("weak-d8", ["certificate declines", f"lanczos {LANCZOS_STEPS}",
                 "factor 0/1", "eigvalsh 1"])])
def test_a_full_rank_partial_transpose_declines_the_certificate_once(
        prover_routes, kind, routes):
    # the probe declines it, and nothing gives it the certificate again:
    # the NPT certificate settles a Ginibre state with no spectrum after
    # a few Lanczos steps, at d = 8 as at d = 16, and one weakly NPT,
    # whose Ritz quotient lies above -PSD_TOL after all of them, fails
    # its one factor at -PSD_TOL before its spectrum is taken
    family, d = kind.split("-d")
    rho = (_weakly_npt_ginibre(int(d)) if family == "weak"
           else _ginibre(int(d), 3))
    plain = np.linalg.eigvalsh(partial_transpose(rho, 1))[0]
    prover_routes.clear()
    res = ppt_test(rho)
    assert prover_routes == routes
    assert res.npt == (plain < -PSD_TOL) and res.npt
    assert res.min_eigenvalue.hex() == float(plain).hex()


def test_ppt_result_is_a_frozen_record_not_a_tuple():
    rho = isotropic(3, 0.5)
    res = ppt_test(rho)
    assert dataclasses.is_dataclass(res) and not isinstance(res, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.npt = False
    assert repr(res) == "PptResult(npt=True)"
    assert res.rho is rho
    with pytest.raises(TypeError):
        min_eig, npt = res


@pytest.mark.parametrize("d", [2, 3, 8, 16])
@pytest.mark.parametrize("entry", [(0, 0), (1, 1), (0, 1)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ppt_refuses_a_non_finite_entry(d, entry, bad):
    # each route: one eigvalsh (d = 2, 3), the block labelling (d = 8,
    # and the Bell mixture at 16) and the certificates (the dense d = 16)
    for rho in (isotropic(d, 0.3), random_separable(d, 2, 3, seed=d)):
        mat = rho.matrix.copy()
        mat[entry] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ppt_test(DensityMatrix(local_dim=d, parties=2, matrix=mat))


def test_ppt_requires_two_parties():
    with pytest.raises(ValueError):
        ppt_test(random_separable(2, 3, 2, seed=0))


def test_brute_force_matches_fast_bipartite(random_state):
    rng = np.random.default_rng(7)
    for d in (2, 3):
        basis = gell_mann_basis(d)
        tm = max_feasible_t(basis)
        for t in (tm / 2, tm):
            p = construct_gsic(basis, t)
            for q in (p, conjugate_gsic(p)):
                for _ in range(5):
                    rho = random_state(d, 2, rng)
                    assert abs(brute_force_j(rho, [p, q])
                               - j_bipartite(rho, p, q)) < 1e-12


def test_brute_force_matches_fast_tripartite(random_state):
    rng = np.random.default_rng(8)
    basis = gell_mann_basis(2)
    p = construct_gsic(basis, max_feasible_t(basis))
    q = conjugate_gsic(p)
    for _ in range(5):
        rho = random_state(2, 3, rng)
        for sets in ([p, p, p], [p, q, p]):
            assert abs(brute_force_j(rho, sets)
                       - j_multipartite(rho, sets)) < 1e-12


def test_brute_force_set_count_check():
    basis = gell_mann_basis(2)
    p = construct_gsic(basis, 0.01)
    with pytest.raises(ValueError):
        brute_force_j(max_entangled(2), [p])
