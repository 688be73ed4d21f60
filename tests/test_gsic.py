"""Tests for the tunable-purity measurement construction."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from gsicdetect import (InfeasibleParameterError, NumericIntegrityError,
                        OperatorBasis, brute_force_j, conjugate_gsic,
                        construct_gsic, feasible_t, gell_mann_basis,
                        index_of_coincidence, isotropic, j_bipartite,
                        max_feasible_t, read_gsic, read_state, validate_gsic,
                        verify_basis, write_gsic, write_state)
from gsicdetect.errors import (_centred_rows, hermiticity_deviation,
                               margin_error_bound)
from gsicdetect.gsic import _require_valid
from gsicdetect.operator_basis import hilbert_schmidt_gram
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


def test_a_returned_set_carries_its_largest_deviation(tmp_path):
    basis = gell_mann_basis(3)
    g = construct_gsic(basis, max_feasible_t(basis))
    assert g.deviation == max(validate_gsic(g).deviations.values())
    assert conjugate_gsic(g).deviation == g.deviation
    path = tmp_path / "set.json"
    write_gsic(g, path)
    assert read_gsic(path).deviation == g.deviation


def test_json_reader_rejects_non_finite_purity(tmp_path, edit_head):
    g = construct_gsic(gell_mann_basis(2), 0.05)
    path = tmp_path / "set.json"
    write_gsic(g, path)
    edit_head(path, a=float("nan"), t=float("nan"))
    with pytest.raises(ValueError, match="purity deviates by nan"):
        read_gsic(path)


@pytest.mark.parametrize("value", [2.9, 2.0, True])
def test_json_reader_rejects_a_non_integer_dimension(tmp_path, edit_head,
                                                     value):
    path = tmp_path / "set.json"
    write_gsic(construct_gsic(gell_mann_basis(2), 0.05), path)
    edit_head(path, d=value)
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
def test_json_reader_rejects_a_t_that_misses_a(tmp_path, edit_head, t):
    # -0.05 gives the same t**2, hence the same purity, as the written 0.05
    path = tmp_path / "set.json"
    write_gsic(construct_gsic(gell_mann_basis(2), 0.05), path)
    edit_head(path, t=t)
    with pytest.raises(ValueError, match="t_purity deviates"):
        read_gsic(path)


def test_json_reader_rejects_malformed_payload(tmp_path):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"d": 2, "t": 0.0}))
    with pytest.raises(ValueError, match="malformed"):
        read_gsic(path)


def test_json_reader_rejects_tampered_bytes(tmp_path, edit_entries):
    def bump(z):
        z[0] += 1e-3
        return z

    path = tmp_path / "set.json"
    write_gsic(construct_gsic(gell_mann_basis(2), 0.05), path)
    edit_entries(path, bump)
    with pytest.raises(ValueError, match="fails validation"):
        read_gsic(path)


def test_json_reader_rejects_a_wrong_entry_count(tmp_path, edit_entries):
    # a raw file is sized against its head before it is read
    path = tmp_path / "set.json"
    write_gsic(construct_gsic(gell_mann_basis(2), 0.05), path)
    edit_entries(path, lambda z: z[:-1])
    with pytest.raises(ValueError,
                       match="malformed.*payload holds 240 bytes, expected 256"):
        read_gsic(path)


@pytest.mark.parametrize("value", [-2, 0, 1])
def test_json_reader_rejects_a_dimension_below_two(tmp_path, edit_head, value):
    path = tmp_path / "set.json"
    write_gsic(construct_gsic(gell_mann_basis(2), 0.05), path)
    edit_head(path, d=value)
    with pytest.raises(ValueError, match="malformed.*>= 2"):
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


@pytest.mark.parametrize("ops", [slice(1, None), (slice(None), slice(1, None))],
                         ids=["count", "rows"])
def test_validation_refuses_an_operator_array_of_the_wrong_shape(ops):
    g = construct_gsic(gell_mann_basis(3), 0.01)
    bad = dataclasses.replace(g, operators=g.operators[ops])
    with pytest.raises(ValueError, match=r"operator array has shape .*"
                                         r"expected \(9, 3, 3\)"):
        validate_gsic(bad)


@pytest.mark.parametrize("d", [3, 8])
@pytest.mark.parametrize("where", [(0, 0), (1, 0)], ids=["diagonal", "lower"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_validation_reports_a_non_finite_entry(d, where, value):
    # no spectrum and no factor: the psd deviation is NaN, the outcome
    # fails, and the gate names a deviation in a ValueError, all without
    # a warning; d = 3 takes eigvalsh whole, d = 8 the Cholesky proofs
    basis = gell_mann_basis(d)
    g = construct_gsic(basis, feasible_t(basis).t)
    ops = g.operators.copy()
    ops[d][where] = value
    bad = dataclasses.replace(g, operators=ops)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcome = validate_gsic(bad)
        assert not outcome.passed
        assert np.isnan(outcome.deviations["psd"])
        with pytest.raises(ValueError, match="fails validation") as err:
            _require_valid(bad, "the set")
    assert not isinstance(err.value, InfeasibleParameterError)


@pytest.mark.parametrize("d", [3, 8, 16])
@pytest.mark.parametrize("mirrored", [False, True], ids=["upper", "mirrored"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_a_non_finite_basis_entry_is_refused(d, mirrored, value):
    # one entry above the diagonal of a generator, and its mirror below:
    # the cap was the clean basis's, bit for bit, or a LinAlgError, and
    # now the cap and the set alike refuse the basis, with no warning
    gens = gell_mann_basis(d).generators.copy()
    gens[1][0, 1] = value
    if mirrored:
        gens[1][1, 0] = value
    bad = OperatorBasis(dim=d, generators=gens, basis_id="bad")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (feasible_t, lambda basis: construct_gsic(basis, 0.01)):
            with pytest.raises(ValueError, match="basis has non-finite"):
                build(bad)


def test_a_d16_build_solves_one_chunk_for_the_cap_and_one_operator_per_gate(
        prover_routes, tmp_path):
    # against the 256 operators of a set: the cap solves the chunk of
    # lowest Gershgorin bound and what the factors cannot prove above it;
    # each gate only the operator the factors cannot prove positive
    # definite, the one singular at the cap
    basis = gell_mann_basis(16)
    cap = feasible_t(basis).t
    assert prover_routes in (["eigvalsh 16", "factor 240/240"],
                             ["eigvalsh 16", "factor 239/240", "eigvalsh 1"])
    prover_routes.clear()
    g = construct_gsic(basis, cap)
    assert prover_routes == ["factor 255/256", "eigvalsh 1"]
    path = tmp_path / "set.json"
    write_gsic(g, path)
    prover_routes.clear()
    read_gsic(path)
    assert prover_routes == ["factor 255/256", "eigvalsh 1"]


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_rotated_bases_pass_every_gate(tmp_path, above_cap_set, random_state,
                                        rotated_basis, d):
    basis = rotated_basis(d)
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


def test_centred_operators_are_computed_per_set():
    # the rows X_j = P_j - I/d**2 that K and E read, formed afresh from a
    # set's own operators on each call; the set keeps nothing beside its
    # fields, even once a test has built the pair's witness
    d = 3
    eye = np.eye(d) / d**2
    g = construct_gsic(gell_mann_basis(d), 0.01)
    want = (g.operators - eye).reshape(d * d, d * d)
    assert np.array_equal(_centred_rows(g), want)
    assert not np.shares_memory(_centred_rows(g), g.operators)
    # with exact sets of one purity, E is its rounding term alone, the
    # scale S of the rows' entrywise 1-norms
    m, exact = d * d, dataclasses.replace(g, deviation=0.0)
    s = float(np.abs(want).sum(axis=1) @ np.abs(want.conj()).sum(axis=1))
    assert margin_error_bound(exact, conjugate_gsic(exact)) == (
        2.0 * (m * m + 2.0 * m) * np.finfo(float).eps * s)
    assert np.array_equal(_centred_rows(conjugate_gsic(g)), want.conj())
    doubled = dataclasses.replace(g, operators=2 * g.operators)
    assert np.array_equal(_centred_rows(doubled),
                          (2 * g.operators - eye).reshape(d * d, d * d))
    j_bipartite(isotropic(d, 0.3), g, conjugate_gsic(g))
    assert vars(g).keys() == {f.name for f in dataclasses.fields(g)}
    assert np.array_equal(_centred_rows(g), want)


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
def test_written_files_are_json_dumps_of_their_payload(tmp_path, d):
    # one line of json.dumps of the payload's small fields, then its
    # entries as little-endian complex128 bytes, with nothing after them
    basis = gell_mann_basis(d)
    g = construct_gsic(basis, max_feasible_t(basis))
    write_gsic(g, tmp_path / "g.json")
    head = json.dumps({"encoding": "c16le-raw", "d": d, "t": g.t, "a": g.a,
                       "basis_id": g.basis_id}).encode() + b"\n"
    want = head + g.operators.astype("<c16").tobytes()
    assert (tmp_path / "g.json").read_bytes() == want
    assert len(want) == len(head) + 16 * d**4
    mat = isotropic(d, 0.3).matrix.copy()
    # -0.0 and subnormal parts, off the diagonal so the state stays valid
    mat[0, 1], mat[1, 0] = complex(-0.0, 5e-324), complex(-0.0, -5e-324)
    mat[1, 2], mat[2, 1] = complex(2.2e-310, -0.0), complex(2.2e-310, 0.0)
    rho = DensityMatrix(local_dim=d, parties=2, matrix=mat)
    write_state(rho, tmp_path / "rho.json")
    want = (b'{"encoding": "c16le-raw", "local_dim": %d, "parties": 2}\n' % d
            + mat.astype("<c16").tobytes())
    assert (tmp_path / "rho.json").read_bytes() == want
    assert read_state(tmp_path / "rho.json").matrix.tobytes() == mat.tobytes()


def _gram_bound(mats: np.ndarray) -> np.ndarray:
    """Rounding bound of two real inner products of length 2d**2, entrywise."""
    y = np.abs(mats.reshape(len(mats), -1).view(float))
    return 2 * y.shape[1] * np.finfo(float).eps * (y @ y.T)


def _measurement_sets(rotated_basis):
    for d in (2, 3, 5, 8, 16):
        for basis in (gell_mann_basis(d), rotated_basis(d)):
            yield basis, construct_gsic(basis, max_feasible_t(basis))


def test_the_real_gram_matches_the_trace_of_products(rotated_basis):
    for basis, g in _measurement_sets(rotated_basis):
        for mats in (basis.generators, g.operators):
            ref = np.einsum("aij,bji->ab", mats, mats)
            got = hilbert_schmidt_gram(mats)
            assert got.dtype == float and (got == got.T).all()
            assert (np.abs(got - ref.real) <= _gram_bound(mats)).all()
            assert np.abs(ref.imag).max() <= _gram_bound(mats).max()


def test_validate_gsic_deviations_match_the_complex_gram(rotated_basis):
    # the Gram deviations as computed before the real Gram: the real part
    # of the complex Tr(P_a P_b), everything else as validate_gsic has it
    for _, g in _measurement_sets(rotated_basis):
        ops, d = g.operators, g.dim
        gram = np.einsum("aij,bji->ab", ops, ops).real
        off = gram - (1.0 - d * g.a) / (d * (d * d - 1.0))
        np.fill_diagonal(off, 0.0)
        dev = validate_gsic(g).deviations
        slack = _gram_bound(ops).max()
        assert abs(dev["purity"] - np.abs(np.diag(gram) - g.a).max()) <= slack
        assert abs(dev["cross_trace"] - np.abs(off).max()) <= slack
        assert dev["hermiticity"] == hermiticity_deviation(ops)
        assert dev["psd"] == d * d * max(
            0.0, -np.linalg.eigvalsh(ops)[:, 0].min())
