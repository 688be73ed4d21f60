"""Tests for the tunable-purity measurement construction."""

import dataclasses
import json

import numpy as np
import pytest

from gsicdetect import (InfeasibleParameterError, NumericIntegrityError,
                        OperatorBasis, brute_force_j, conjugate_gsic,
                        construct_gsic, feasible_t, gell_mann_basis,
                        index_of_coincidence, j_bipartite, max_feasible_t,
                        read_gsic, validate_gsic, verify_basis, write_gsic)
from gsicdetect.states import DensityMatrix


def test_zero_mixing_gives_flat_measurement():
    g = construct_gsic(gell_mann_basis(2), 0.0)
    assert np.abs(g.operators - np.eye(2) / 4).max() < 1e-15
    assert g.a == pytest.approx(0.125, abs=1e-15)
    # all pairwise traces collapse to 1/8 in the flat limit
    gram = np.einsum("aij,bji->ab", g.operators, g.operators).real
    assert np.abs(gram - 0.125).max() < 1e-15


def test_reported_purity_matches_measured_purity():
    basis = gell_mann_basis(3)
    for t in (0.0, 0.004, 0.009):
        g = construct_gsic(basis, t)
        purities = [np.trace(op @ op).real for op in g.operators]
        assert np.abs(np.array(purities) - g.a).max() < 1e-14


def test_defining_statistics_on_the_t_grid():
    for d in range(2, 7):
        basis = gell_mann_basis(d)
        tm = max_feasible_t(basis)
        for t in (0.0, tm / 2, tm):
            outcome = validate_gsic(construct_gsic(basis, t))
            assert outcome.passed, (d, t, outcome.deviations)


def test_qubit_cap_is_the_purity_ceiling():
    # for d = 2 the positivity and purity caps coincide at (d(d+1))**-1.5
    cap = feasible_t(gell_mann_basis(2))
    assert cap.t == pytest.approx(6 ** -1.5, abs=1e-12)
    assert cap.cap == "a-max"
    assert construct_gsic(gell_mann_basis(2), cap.t).a == pytest.approx(
        0.25, abs=1e-12)


def test_higher_dimensions_are_positivity_capped():
    for d in (3, 4, 5):
        cap = feasible_t(gell_mann_basis(d))
        assert cap.cap == "positivity"
        assert 0 < cap.t < (d * (d + 1.0)) ** -1.5


def test_cap_is_reproducible():
    basis = gell_mann_basis(3)
    values = {max_feasible_t(basis) for _ in range(3)}
    assert len(values) == 1


def test_t_beyond_cap_is_rejected_with_diagnostics():
    for d in (2, 3):
        basis = gell_mann_basis(d)
        with pytest.raises(InfeasibleParameterError) as info:
            construct_gsic(basis, max_feasible_t(basis) + 1e-6)
        assert info.value.index in range(d * d)
        assert info.value.eigenvalue < -1e-10


def test_negative_t_rejected():
    with pytest.raises(ValueError):
        construct_gsic(gell_mann_basis(2), -0.01)


def test_purity_strictly_increases_with_t():
    basis = gell_mann_basis(4)
    grid = np.linspace(0.0, max_feasible_t(basis), 9)
    a_values = [construct_gsic(basis, t).a for t in grid]
    assert np.all(np.diff(a_values) > 0)


def test_conjugate_set_keeps_statistics():
    g = construct_gsic(gell_mann_basis(3), 0.01)
    gc = conjugate_gsic(g)
    assert gc.a == g.a
    assert gc.t == g.t
    assert np.array_equal(gc.operators, g.operators.conj())
    assert validate_gsic(gc).passed
    back = conjugate_gsic(gc)
    assert np.array_equal(back.operators, g.operators)


def test_coincidence_of_the_flat_state():
    for d in (2, 3):
        basis = gell_mann_basis(d)
        g = construct_gsic(basis, max_feasible_t(basis))
        rho = DensityMatrix.from_matrix(np.eye(d) / d, d, 1)
        assert index_of_coincidence(rho, g) == pytest.approx(1 / d**2,
                                                             abs=1e-12)


def test_coincidence_of_pure_states():
    # purity 1 turns the closed form into (a d**2 + 1)/(d (d + 1))
    rng = np.random.default_rng(8)
    for d in (2, 3, 4):
        basis = gell_mann_basis(d)
        g = construct_gsic(basis, max_feasible_t(basis))
        a = g.a
        expected = ((a * d**3 - 1) + d * (1 - a * d)) / (d * (d * d - 1))
        for _ in range(5):
            vec = rng.normal(size=d) + 1j * rng.normal(size=d)
            vec /= np.linalg.norm(vec)
            rho = DensityMatrix.from_matrix(np.outer(vec, vec.conj()), d, 1)
            assert index_of_coincidence(rho, g) == pytest.approx(expected,
                                                                 abs=1e-12)


def test_coincidence_matches_purity_identity(random_state):
    rng = np.random.default_rng(17)
    for d in (2, 3, 4):
        basis = gell_mann_basis(d)
        tm = max_feasible_t(basis)
        for t in (tm / 2, tm):
            g = construct_gsic(basis, t)
            a = g.a
            for _ in range(20):
                rho = random_state(d, 1, rng)
                p2 = float(np.trace(rho.matrix @ rho.matrix).real)
                expected = ((a * d**3 - 1) * p2 + d * (1 - a * d)) \
                    / (d * (d * d - 1))
                got = index_of_coincidence(rho, g)
                assert abs(got - expected) < 1e-12


def test_coincidence_input_checks():
    g = construct_gsic(gell_mann_basis(2), 0.01)
    rho3 = DensityMatrix.from_matrix(np.eye(3) / 3, 3, 1)
    with pytest.raises(ValueError):
        index_of_coincidence(rho3, g)


def test_coincidence_rejects_complex_probabilities():
    # a non-Hermitian matrix bypassing from_matrix gives complex Tr(P_j rho)
    g = construct_gsic(gell_mann_basis(2), 0.01)
    rho = DensityMatrix(local_dim=2, parties=1,
                        matrix=np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
    with pytest.raises(NumericIntegrityError, match="imaginary residue"):
        index_of_coincidence(rho, g)


def test_json_round_trip(tmp_path):
    basis = gell_mann_basis(3)
    g = construct_gsic(basis, max_feasible_t(basis))
    path = tmp_path / "set.json"
    write_gsic(g, path)
    loaded = read_gsic(path)
    assert loaded.dim == g.dim
    assert loaded.t == g.t
    assert loaded.a == g.a
    assert loaded.basis_id == g.basis_id
    assert np.array_equal(loaded.operators, g.operators)


def test_json_reader_rejects_tampering(tmp_path):
    g = construct_gsic(gell_mann_basis(2), 0.05)
    path = tmp_path / "set.json"
    write_gsic(g, path)
    payload = json.loads(path.read_text())
    payload["operators"][0][0][0] += 1e-3
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="fails validation"):
        read_gsic(path)


def test_json_reader_rejects_non_finite_purity(tmp_path):
    g = construct_gsic(gell_mann_basis(2), 0.05)
    path = tmp_path / "set.json"
    write_gsic(g, path)
    payload = json.loads(path.read_text())
    payload["a"] = payload["t"] = float("nan")
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="purity deviates by nan"):
        read_gsic(path)


@pytest.mark.parametrize("value", [2.9, 2.0, True])
def test_json_reader_rejects_a_non_integer_dimension(tmp_path, value):
    path = tmp_path / "set.json"
    write_gsic(construct_gsic(gell_mann_basis(2), 0.05), path)
    payload = json.loads(path.read_text())
    payload["d"] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="malformed"):
        read_gsic(path)


def test_built_sets_reproduce_their_purity_from_t():
    for d in (2, 3, 5):
        basis = gell_mann_basis(d)
        for t in (0.0, 0.5 * max_feasible_t(basis), max_feasible_t(basis)):
            g = construct_gsic(basis, t)
            assert validate_gsic(g).deviations["t_purity"] == 0.0
            assert validate_gsic(conjugate_gsic(g)).deviations["t_purity"] == 0.0


@pytest.mark.parametrize("t", [0.5, -0.05, float("inf"), float("nan")])
def test_json_reader_rejects_a_t_that_misses_a(tmp_path, t):
    # -0.05 gives the same t**2, hence the same purity, as the written 0.05
    path = tmp_path / "set.json"
    write_gsic(construct_gsic(gell_mann_basis(2), 0.05), path)
    payload = json.loads(path.read_text())
    payload["t"] = t
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="t_purity deviates"):
        read_gsic(path)


def test_json_reader_rejects_malformed_payload(tmp_path):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"d": 2, "t": 0.0}))
    with pytest.raises(ValueError, match="malformed"):
        read_gsic(path)


def test_json_reader_rejects_a_string_entry(tmp_path):
    path = tmp_path / "set.json"
    write_gsic(construct_gsic(gell_mann_basis(2), 0.05), path)
    payload = json.loads(path.read_text())
    payload["operators"][0][0][0] = "0.25"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="malformed"):
        read_gsic(path)


def _bisected_cap(basis):
    # the former algorithm: bisect on the smallest operator eigenvalue,
    # with the operators assembled here from the generators
    d = basis.dim
    t_purity = (d * (d + 1.0)) ** -1.5
    m = np.empty((d * d, d, d), dtype=complex)
    m[:-1] = basis.basis_sum - d * (d + 1.0) * basis.generators
    m[-1] = (d + 1.0) * basis.basis_sum

    def min_eig(t):
        return min(np.linalg.eigvalsh(np.eye(d) / d**2 + t * op)[0]
                   for op in m)

    if min_eig(t_purity) >= -1e-13:
        return t_purity
    lo, hi = 0.0, t_purity
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if min_eig(mid) >= -1e-13:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("d", range(3, 9))
def test_closed_form_cap_matches_bisection(d):
    basis = gell_mann_basis(d)
    cap = feasible_t(basis)
    assert cap.cap == "positivity"
    assert abs(cap.t - _bisected_cap(basis)) <= 2e-12


@pytest.mark.parametrize("d", range(2, 9))
def test_cap_is_the_exact_positivity_boundary(d):
    # the smallest eigenvalue is affine in t, so a relative overshoot eps
    # of the cap drives it to exactly -eps/d**2, below the -PSD_TOL/d**2 floor
    basis = gell_mann_basis(d)
    cap = feasible_t(basis).t
    construct_gsic(basis, cap)
    with pytest.raises(InfeasibleParameterError) as err:
        construct_gsic(basis, cap * (1 + 1e-9))
    assert err.value.eigenvalue == pytest.approx(-1e-9 / d**2, abs=1e-14)


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_non_finite_t_rejected(t):
    with pytest.raises(ValueError, match="finite"):
        construct_gsic(gell_mann_basis(2), t)


@pytest.mark.parametrize("scale", [1.5, 3.0])
def test_construct_rejects_a_scaled_basis(scale):
    # scaled generators are not orthonormal: the operators stay PSD at the
    # scaled basis's own cap, but their purity misses purity_from_t
    gens = gell_mann_basis(3).generators * scale
    basis = OperatorBasis(dim=3, generators=gens, basis_id="scaled")
    with pytest.raises(ValueError, match="purity deviates") as err:
        construct_gsic(basis, feasible_t(basis).t)
    assert not isinstance(err.value, InfeasibleParameterError)


@pytest.mark.parametrize("d", range(2, 9))
def test_json_reader_rejects_a_set_above_the_cap(tmp_path, above_cap_set, d):
    g = above_cap_set(gell_mann_basis(d), 1e-9)
    assert validate_gsic(g).deviations["psd"] == pytest.approx(1e-9, rel=1e-4)
    path = tmp_path / "set.json"
    write_gsic(g, path)
    with pytest.raises(InfeasibleParameterError, match="is infeasible") as err:
        read_gsic(path)
    assert err.value.index in range(d * d)
    assert err.value.eigenvalue == pytest.approx(-1e-9 / d**2, abs=1e-14)


def test_validation_fails_a_nan_purity_on_the_range_check():
    g = construct_gsic(gell_mann_basis(2), 0.05)
    deviations = validate_gsic(dataclasses.replace(g, a=float("nan"))).deviations
    assert np.isnan(deviations["a_range"])


def _rotated_basis(d):
    # a real-orthogonal mix of orthonormal traceless Hermitian generators
    # is again such a basis
    gens = gell_mann_basis(d).generators
    rng = np.random.default_rng(70 + d)
    rotation, _ = np.linalg.qr(rng.normal(size=(d * d - 1, d * d - 1)))
    return OperatorBasis(dim=d, generators=np.tensordot(rotation, gens, 1),
                         basis_id=f"rotated-d{d}")


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_rotated_bases_pass_every_gate(tmp_path, above_cap_set, random_state,
                                        d):
    basis = _rotated_basis(d)
    assert verify_basis(basis).passed
    cap = feasible_t(basis).t
    p = construct_gsic(basis, cap)
    assert validate_gsic(p).passed
    with pytest.raises(InfeasibleParameterError) as err:
        construct_gsic(basis, cap * (1 + 1e-9))
    assert err.value.eigenvalue == pytest.approx(-1e-9 / d**2, abs=1e-14)
    path = tmp_path / "set.json"
    write_gsic(above_cap_set(basis, 1e-9), path)
    with pytest.raises(InfeasibleParameterError):
        read_gsic(path)
    rng = np.random.default_rng(80 + d)
    for q in (conjugate_gsic(p), p):
        rho = random_state(d, 2, rng)
        want = brute_force_j(rho, [p, q])
        assert abs(j_bipartite(rho, p, q) - want) <= 1e-12 * abs(want)
