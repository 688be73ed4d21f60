"""Tests for the correlation-sum entanglement tests."""

import dataclasses
import functools
import gc
import weakref

import numpy as np
import pytest

from gsicdetect import (ENTANGLED_DETECTED, INCONCLUSIVE,
                        NumericIntegrityError, bell_diagonal, bipartite_bound,
                        conjugate_gsic, construct_gsic, correlation_matrix,
                        detect_bipartite, diagonal_mixture, gell_mann_basis,
                        isotropic, isotropic_threshold_scan, j_bipartite,
                        j_multipartite, max_entangled, max_feasible_t,
                        multipartite_bound, random_separable, read_gsic,
                        scan_family, trace_t_bound, write_gsic)
from gsicdetect import criteria
from gsicdetect.criteria import SCAN_FAMILIES, verdict
from gsicdetect.errors import MAX_STEPS, _centred_rows, margin_error_bound
from gsicdetect.oracle import brute_force_j
from gsicdetect.states import (DensityMatrix, _bell_mixture,
                               _belldiag_c_weights, _weights_deviation)


def _pair(d, t=None):
    basis = gell_mann_basis(d)
    if t is None:
        t = max_feasible_t(basis)
    p = construct_gsic(basis, t)
    return p, conjugate_gsic(p)


def test_j_of_white_noise():
    for d in (2, 3):
        p, q = _pair(d)
        rho = DensityMatrix.from_matrix(np.eye(d * d) / d**2, d, 2)
        assert j_bipartite(rho, p, q) == pytest.approx(1 / d**2, abs=1e-12)


def test_j_of_max_entangled_is_d_times_a():
    for d in (2, 3, 4, 5):
        basis = gell_mann_basis(d)
        tm = max_feasible_t(basis)
        rho = max_entangled(d)
        for t in (0.0, tm / 2, tm):
            p = construct_gsic(basis, t)
            q = conjugate_gsic(p)
            assert j_bipartite(rho, p, q) == pytest.approx(d * p.a, abs=1e-12)


def test_j_of_isotropic_closed_form():
    for d in (2, 3, 4):
        basis = gell_mann_basis(d)
        tm = max_feasible_t(basis)
        for t in (tm / 2, tm):
            p = construct_gsic(basis, t)
            q = conjugate_gsic(p)
            for alpha in (0.0, 0.2, 0.5, 0.9):
                j = j_bipartite(isotropic(d, alpha), p, q)
                closed = d * p.a * alpha + (1 - alpha) / d**2
                assert j == pytest.approx(closed, abs=1e-12)


def test_purity_mismatch_rejected():
    basis = gell_mann_basis(2)
    p = construct_gsic(basis, 0.02)
    q = construct_gsic(basis, 0.03)
    with pytest.raises(ValueError, match="purity"):
        j_bipartite(max_entangled(2), p, q)


def test_dimension_mismatch_rejected():
    p2, q2 = _pair(2)
    with pytest.raises(ValueError):
        j_bipartite(max_entangled(3), p2, q2)
    p3, _ = _pair(3)
    with pytest.raises(ValueError):
        j_bipartite(max_entangled(3), p3, q2)


def test_imaginary_residue_trips_integrity_check():
    p, q = _pair(2)
    mat = max_entangled(2).matrix.copy()
    mat[0, 3] += 0.2j  # deliberately corrupted, bypassing validation
    broken = DensityMatrix(2, 2, mat)
    with pytest.raises(NumericIntegrityError):
        j_bipartite(broken, p, q)


def test_bound_reference_values():
    assert bipartite_bound(2, 0.25) == pytest.approx(1 / 3, abs=1e-15)
    assert bipartite_bound(2, 1 / 8) == pytest.approx(0.25, abs=1e-15)
    # degenerate flat limit reproduces J of white noise
    for d in (2, 3, 4):
        assert bipartite_bound(d, 1 / d**3) == pytest.approx(1 / d**2,
                                                             abs=1e-15)
    with pytest.raises(ValueError):
        bipartite_bound(2, 1 / 8 - 1e-6)
    with pytest.raises(ValueError):
        bipartite_bound(2, 0.25 + 1e-6)


def test_nan_purity_is_rejected():
    nan = float("nan")
    with pytest.raises(ValueError):
        bipartite_bound(2, nan)
    with pytest.raises(ValueError):
        multipartite_bound(2, [nan, 0.25])
    p, q = _pair(2)
    with pytest.raises(ValueError):
        detect_bipartite(max_entangled(2), dataclasses.replace(p, a=nan), q)


def test_detect_reports():
    d = 3
    p, q = _pair(d)
    hit = detect_bipartite(max_entangled(d), p, q)
    assert hit.verdict == ENTANGLED_DETECTED
    assert hit.margin > 0
    assert hit.j_value == pytest.approx(d * p.a, abs=1e-12)
    assert hit.dim == d and hit.parties == 2
    assert hit.t == p.t and hit.a == p.a
    assert hit.state_label == "maxent-d3"

    flat_p, flat_q = _pair(d, t=0.0)
    flat = detect_bipartite(max_entangled(d), flat_p, flat_q)
    assert flat.verdict == INCONCLUSIVE
    assert abs(flat.margin) < 1e-12

    sep = detect_bipartite(random_separable(d, 2, 3, seed=1), p, q)
    assert sep.verdict == INCONCLUSIVE


def test_j_multipartite_white_noise():
    d, n = 2, 3
    p, _ = _pair(d)
    rho = DensityMatrix.from_matrix(np.eye(d**n) / d**n, d, n)
    assert j_multipartite(rho, [p] * n) == pytest.approx(d ** (2 - 2 * n),
                                                         abs=1e-14)


def test_j_multipartite_reduces_to_bipartite(random_state):
    rng = np.random.default_rng(23)
    for d in (2, 3):
        p, q = _pair(d)
        for _ in range(10):
            rho = random_state(d, 2, rng)
            assert abs(j_multipartite(rho, [p, q])
                       - j_bipartite(rho, p, q)) < 1e-12
            assert abs(j_multipartite(rho, [p, p])
                       - j_bipartite(rho, p, p)) < 1e-12


def test_j_multipartite_input_checks():
    p, q = _pair(2)
    rho = random_separable(2, 3, 2, seed=0)
    with pytest.raises(ValueError):
        j_multipartite(rho, [p, q])
    p3, _ = _pair(3)
    with pytest.raises(ValueError):
        j_multipartite(rho, [p, q, p3])
    one = DensityMatrix(local_dim=2, parties=1, matrix=np.eye(2) / 2)
    with pytest.raises(ValueError, match="need at least two parties, got 1"):
        j_multipartite(one, [p])


def test_multipartite_bound_values():
    assert multipartite_bound(2, [1 / 8, 1 / 4]) == pytest.approx(7 / 24,
                                                                  abs=1e-15)
    for a in (1 / 8, 0.2, 0.25):
        assert multipartite_bound(2, [a, a]) == bipartite_bound(2, a)
    with pytest.raises(ValueError):
        multipartite_bound(2, [0.25])
    with pytest.raises(ValueError):
        multipartite_bound(2, [0.25, 0.3])


def test_correlation_matrix_of_white_noise():
    basis = gell_mann_basis(3)
    rho = DensityMatrix.from_matrix(np.eye(9) / 9, 3, 2)
    assert np.abs(correlation_matrix(rho, basis)).max() < 1e-14


def test_correlation_matrix_of_qubit_states():
    basis = gell_mann_basis(2)
    t_ent = correlation_matrix(max_entangled(2), basis)
    assert np.abs(np.diag(t_ent) - np.array([0.25, -0.25, 0.25])).max() < 1e-13
    assert np.abs(t_ent - np.diag(np.diag(t_ent))).max() < 1e-13
    # a product state saturates the separable ceiling of the trace
    ket00 = np.zeros((4, 4), dtype=complex)
    ket00[0, 0] = 1.0
    t_prod = correlation_matrix(DensityMatrix.from_matrix(ket00, 2, 2), basis)
    assert np.trace(t_prod) == pytest.approx(trace_t_bound(2), abs=1e-13)


def test_correlation_identity_on_random_states(random_state):
    rng = np.random.default_rng(31)
    for d in (2, 3):
        basis = gell_mann_basis(d)
        tm = max_feasible_t(basis)
        for t in (tm / 2, tm):
            p = construct_gsic(basis, t)
            coeff = 2 * (p.a * d * d - 1 / d) / (d * d - 1)
            for _ in range(15):
                rho = random_state(d, 2, rng)
                lhs = j_bipartite(rho, p, p)
                rhs = 1 / d**2 + coeff * np.trace(
                    correlation_matrix(rho, basis))
                assert abs(lhs - rhs) < 1e-12


def test_max_entangled_sits_on_the_same_pairing_ceiling():
    # Tr(T) of the maximally entangled state equals the separable bound,
    # so the same-set pairing never flags it
    for d in (2, 3, 4, 8, 12):
        basis = gell_mann_basis(d)
        rho = max_entangled(d)
        t_corr = correlation_matrix(rho, basis)
        # T = diag(+-1/(2d)): Tr(rho F (x) G) = Tr(F G^T)/d, and the
        # antisymmetric generators are the ones with F^T = -F
        pairs = d * (d - 1) // 2
        signs = np.ones(d * d - 1)
        signs[pairs:2 * pairs] = -1.0
        assert np.abs(t_corr - np.diag(signs / (2 * d))).max() <= 1e-15
        assert np.trace(t_corr) == pytest.approx(trace_t_bound(d), abs=1e-12)
        p = construct_gsic(basis, max_feasible_t(basis))
        assert j_bipartite(rho, p, p) == pytest.approx(
            bipartite_bound(d, p.a), abs=1e-12)


def test_trace_t_bound_values():
    assert trace_t_bound(2) == pytest.approx(0.25, abs=1e-15)
    assert trace_t_bound(3) == pytest.approx(1 / 3, abs=1e-15)
    values = [trace_t_bound(d) for d in range(2, 8)]
    assert np.all(np.diff(values) > 0)


def test_isotropic_threshold_scan_hits_the_exact_boundary():
    for d in (2, 3):
        tm = max_feasible_t(gell_mann_basis(d))
        for t in (tm / 2, tm):
            got = isotropic_threshold_scan(d, t, 40)
            assert abs(got - 1 / (d + 1)) < 1e-6


def test_isotropic_threshold_scan_input_checks():
    with pytest.raises(ValueError):
        isotropic_threshold_scan(2, 0.01, 5)
    with pytest.raises(ValueError):
        isotropic_threshold_scan(2, 0.0, 40)


def test_isotropic_threshold_scan_rejects_a_crossing_below_rounding():
    # at t = 1e-9 the margin (of order t**2) is below E's set term, the
    # part the sets' deviations set, and far above its rounding part: no
    # grid step raises it by more than 2E, however the rounding noise
    # happens to order the margins
    for d in (3, 4, 8):
        with pytest.raises(ValueError, match="no resolved crossing"):
            isotropic_threshold_scan(d, 1e-9, 40)


@pytest.mark.parametrize("d", [2, 3, 8, 16])
def test_margin_matches_the_closed_form_down_to_small_t(d):
    # isotropic(alpha) against the conj pair has margin
    # d a_ex (alpha - 1/(d + 1)) with a_ex = a - 1/d**3: the centred witness
    # never forms J - bound, a difference of two numbers near 1/d**2
    basis = gell_mann_basis(d)
    for t in (max_feasible_t(basis), 1e-6, 1e-9):
        p, q = _pair(d, t)
        scale = d * t * t * (d - 1) * (d + 1) ** 3
        for alpha in (0.0, 0.1, 1 / (d + 1), 0.5, 1.0):
            margin = detect_bipartite(isotropic(d, alpha), p, q).margin
            assert abs(margin - scale * (alpha - 1 / (d + 1))) <= 1e-8 * scale, (
                t, alpha)


@pytest.mark.parametrize("family", ["isotropic", "belldiag-c", "diagmix"])
@pytest.mark.parametrize("d", [3, 8])
def test_scan_threshold_is_exact_at_small_t(family, d):
    p, _ = _pair(d, 1e-6)
    exact = 1 / (d + 1) if family == "isotropic" else 1 / d
    assert abs(scan_family(family, p, 40).threshold - exact) <= 1e-12


SCAN_STATES = {"isotropic": isotropic,
               "belldiag-c": lambda d, c: _bell_mixture(
                   _belldiag_c_weights(d, c), f"belldiag-d{d}-c{c:g}"),
               "diagmix": diagonal_mixture}


@pytest.mark.parametrize("family", list(SCAN_STATES))
@pytest.mark.parametrize("d", [2, 3, 6, 8, 16])
def test_scan_reports_match_detect_on_the_constructed_states(family, d):
    # the scan reads Tr(K rho) off the witness's Bell table; each grid
    # point must give what detect_bipartite reports on the state its
    # family constructor builds at that parameter
    basis = gell_mann_basis(d)
    eps = np.finfo(float).eps
    _, weights = SCAN_FAMILIES[family](d)
    for t in (max_feasible_t(basis), 1e-6, 1e-9):
        p, q = _pair(d, t)
        e = margin_error_bound(p, q)
        s = float(np.abs(_centred_rows(p)).sum(axis=1)
                  @ np.abs(_centred_rows(q)).sum(axis=1))
        scan = scan_family(family, p, 40)
        for x, j, m, f in zip(scan.grid.tolist(), scan.j_values.tolist(),
                              scan.margins.tolist(), scan.flagged.tolist()):
            rho = SCAN_STATES[family](d, x)
            want = detect_bipartite(rho, p, q)
            assert abs(m - want.margin) <= eps * s <= e, (t, x)
            assert abs(j - want.j_value) <= eps * s, (t, x)
            assert verdict(f) == want.verdict, (t, x)
            assert scan.bound == want.bound
            assert abs(float(weights(x).sum()) - 1.0) == rho.deviation


@functools.cache
def _scan_set(d, t):
    """A Gell-Mann set at t, or at the cap for t = "cap"."""
    basis = gell_mann_basis(d)
    return construct_gsic(basis, max_feasible_t(basis) if t == "cap" else t)


@pytest.mark.parametrize("family", list(SCAN_FAMILIES))
@pytest.mark.parametrize("d, t", [
    *((d, t) for d in (2, 3, 4, 6, 8, 16) for t in ("cap", 1e-6, 1e-9)),
    (32, "cap")])
def test_scan_reports_equal_the_per_point_reference(scan_reference, family,
                                                    d, t):
    # the stacked tables, the one deviation reduction and the array
    # margins must give, bit for bit, what one table, one sum and one
    # flag per grid point give; repr pins the float type the CSV prints
    p = _scan_set(d, t)
    scan = scan_family(family, p, 40)
    got = (scan.grid.tolist(), scan.j_values.tolist(), scan.margins.tolist(),
           scan.flagged.tolist(), scan.bound)
    want = scan_reference(family, p, 40)
    assert got == want
    assert repr(got) == repr(want)


@pytest.mark.parametrize("family", list(SCAN_FAMILIES))
@pytest.mark.parametrize("d", [2, 3, 4, 6, 8, 16, 32])
def test_weight_stack_rows_are_the_scalar_tables(reference_weights, family,
                                                 d):
    # the scan grid and random parameters: each row of the stack and its
    # deviation are what the helper gives for a float, and what the
    # float-only reference gives
    start, weights = SCAN_FAMILIES[family](d)
    rng = np.random.default_rng(d)
    params = np.concatenate((np.linspace(start, 1.0, 40),
                             rng.uniform(start, 1.0, 20)))
    tables = weights(params)
    deviations = _weights_deviation(tables)
    assert tables.shape == (len(params), d, d)
    assert len(deviations) == len(params)
    for x, table, deviation in zip(params.tolist(), tables,
                                   deviations.tolist()):
        one = weights(x)
        ref = reference_weights(family, d, x)
        assert one.shape == (d, d)
        assert one.tobytes() == table.tobytes() == ref.tobytes()
        assert deviation == abs(float(ref.sum()) - 1.0)


def test_scan_refuses_a_grid_outside_its_bounds():
    p = _scan_set(2, "cap")
    for steps in (-1, 9, MAX_STEPS + 1, 10 ** 12):
        with pytest.raises(ValueError, match="grid steps"):
            scan_family("isotropic", p, steps)
    scan = scan_family("isotropic", p, MAX_STEPS)
    assert all(len(a) == MAX_STEPS for a in (
        scan.grid, scan.j_values, scan.margins, scan.flagged))


def test_scan_refuses_an_unknown_family():
    with pytest.raises(ValueError, match="unknown scan family 'bogus'"):
        scan_family("bogus", _scan_set(2, "cap"), 40)


def _product_on_the_bound(d, rng):
    """|psi>|conj psi> as a matrix: J equals the bound against conj(p)."""
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi = np.kron(psi, psi.conj()) / np.vdot(psi, psi).real
    return np.outer(psi, psi.conj())


@pytest.mark.parametrize("d", [2, 3, 4, 6, 8, 12, 16])
def test_rounding_bound_covers_j_and_keeps_the_bound_inconclusive(d):
    basis = gell_mann_basis(d)
    cap = max_feasible_t(basis)
    product = DensityMatrix.from_matrix(
        _product_on_the_bound(d, np.random.default_rng(90 + d)), d, 2)
    for t in (cap, cap / 50, 1e-6, 1e-9):
        p = construct_gsic(basis, t)
        q = conjugate_gsic(p)
        bound = bipartite_bound(d, p.a)
        # J of the maximally entangled state: d*a against conj(p), and the
        # separable bound itself against p
        for other, j_maxent in ((q, d * p.a), (p, bound)):
            e = margin_error_bound(p, other)
            for alpha in (0.0, 1 / (d + 1), 1.0):
                exact = alpha * j_maxent + (1 - alpha) / d**2
                j = j_bipartite(isotropic(d, alpha), p, other)
                assert abs(j - exact) <= e, (t, alpha)
        # states whose J equals the bound exactly
        assert detect_bipartite(max_entangled(d), p, p).verdict == INCONCLUSIVE
        assert detect_bipartite(product, p, q).verdict == INCONCLUSIVE


@pytest.mark.parametrize("d", [2, 3, 4])
def test_rounding_bound_covers_j_against_brute_force(d, random_state,
                                                     rotated_basis):
    rng = np.random.default_rng(100 + d)
    for basis in (gell_mann_basis(d), rotated_basis(d)):
        cap = max_feasible_t(basis)
        for t in (cap, cap / 50, 1e-6, 1e-9):
            p = construct_gsic(basis, t)
            for q in (conjugate_gsic(p), p):
                rho = random_state(d, 2, rng)
                err = abs(j_bipartite(rho, p, q) - brute_force_j(rho, [p, q]))
                assert err <= margin_error_bound(p, q), (basis.basis_id, t)


@pytest.mark.parametrize("d", [2, 3])
def test_a_negative_eigenvalue_within_psd_tol_flags_no_product_state(d):
    # sigma + eps (|phi+><phi+| - |v><v|) with v orthogonal to both: trace 1,
    # one eigenvalue -eps, and J above the bound by about eps * (d a - J(v))
    rng = np.random.default_rng(30 + d)
    sigma = _product_on_the_bound(d, rng)
    phi = np.eye(d).reshape(-1) / np.sqrt(d)
    span = np.linalg.qr(np.column_stack([sigma[:, 0], phi]))[0]
    v = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
    v -= span @ (span.conj().T @ v)
    v /= np.linalg.norm(v)
    eps = 9e-11
    mat = sigma + eps * (np.outer(phi, phi) - np.outer(v, v.conj()))
    rho = DensityMatrix.from_matrix(mat, d, 2)
    p, q = _pair(d)
    report = detect_bipartite(rho, p, q)
    assert report.margin > margin_error_bound(p, q)
    assert report.verdict == INCONCLUSIVE


@pytest.mark.parametrize("d", [2, 3])
def test_a_set_within_validation_tol_flags_no_product_state(d, tmp_path):
    # the set at t = cap/2 stretched about I/d**2 by 1 + eta, filed under
    # its old t and a: its purity sits 9e-11 above a, within the tolerance
    # of read_gsic, and |psi>|conj psi> sits that far above the bound
    basis = gell_mann_basis(d)
    g = construct_gsic(basis, max_feasible_t(basis) / 2)
    eta = 4.5e-11 / (g.a - 1 / d**3)
    eye = np.eye(d) / d**2
    path = tmp_path / "g.json"
    write_gsic(dataclasses.replace(
        g, operators=eye + (1 + eta) * (g.operators - eye)), path)
    p = read_gsic(path)
    assert p.deviation == pytest.approx(9e-11, rel=1e-3)
    q = conjugate_gsic(p)
    rho = DensityMatrix.from_matrix(
        _product_on_the_bound(d, np.random.default_rng(40 + d)), d, 2)
    report = detect_bipartite(rho, p, q)
    assert report.margin > 10 * margin_error_bound(g, conjugate_gsic(g))
    assert report.verdict == INCONCLUSIVE


def test_weights_within_the_sum_tolerance_flag_no_separable_state():
    # Bell-diagonal weight 1/d on the identity label, the rest uniform, sits
    # on the bound; weights summing to 1 + 9e-13 lift J by about 9e-13 * J,
    # above E at d = 2
    d = 2
    rest = (1 - 1 / d) / (d * d - 1)
    weights = {(s, t): (1 + 9e-13) * (1 / d if s == t == 0 else rest)
               for s in range(d) for t in range(d)}
    p, q = _pair(d)
    report = detect_bipartite(bell_diagonal(d, weights), p, q)
    assert report.margin > margin_error_bound(p, q)
    assert report.verdict == INCONCLUSIVE


def test_separable_states_stay_inconclusive():
    for d in (2, 3):
        basis = gell_mann_basis(d)
        tm = max_feasible_t(basis)
        for t in (tm / 2, tm):
            p = construct_gsic(basis, t)
            for q in (p, conjugate_gsic(p)):
                for seed in range(15):
                    rho = random_separable(d, 2, 1 + seed % 4, seed=seed)
                    assert detect_bipartite(rho, p, q).verdict == INCONCLUSIVE


def test_bell_diagonal_guaranteed_detection():
    rng = np.random.default_rng(40)
    for d in (2, 3):
        p, q = _pair(d)
        a = p.a
        threshold = (1 + 1 / (a * d * d)) / (d + 1)
        for _ in range(20):
            weights = rng.random(d * d)
            weights /= weights.sum()
            weights = np.sort(weights)[::-1]
            labels = [(s, t) for s in range(d) for t in range(d)]
            table = dict(zip(labels, weights))
            rho = bell_diagonal(d, table)
            c = weights[0]
            j = j_bipartite(rho, p, q)
            assert j >= c * d * a - 1e-10
            if c > threshold + 1e-6:
                assert detect_bipartite(rho, p, q).verdict == ENTANGLED_DETECTED


def test_diagonal_mixture_closed_form_and_detection():
    for d in (2, 3):
        p, q = _pair(d)
        a = p.a
        threshold = (1 + 1 / (a * d * d)) / (d + 1)
        for a1 in np.linspace(0.0, 1.0, 11):
            rho = diagonal_mixture(d, float(a1))
            j = j_bipartite(rho, p, q)
            a2 = (1 - a1) / (d - 1)
            closed = a1 * d * a + a2 * (1 - a * d) / (d + 1)
            assert j == pytest.approx(closed, abs=1e-12)
            assert j >= a1 * d * a - 1e-10
            if a1 > threshold + 1e-6:
                assert detect_bipartite(rho, p, q).verdict == ENTANGLED_DETECTED


def _ginibre(d, n, rng):
    dim = d ** n
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    mat = 0.5 * (mat + mat.conj().T) / np.trace(mat).real
    return DensityMatrix.from_matrix(mat, d, n, label="ginibre")


# d = 5, N = 4 is left out: its 625-level Kronecker oracle alone takes
# seconds, and d**N = 625 exercises no index layout the others miss
@pytest.mark.parametrize("d, n", [(d, n) for d in (2, 3, 4, 5)
                                  for n in (2, 3, 4) if d ** n <= 256])
def test_contraction_matches_brute_force(d, n):
    rng = np.random.default_rng(100 * d + n)
    basis = gell_mann_basis(d)
    tm = max_feasible_t(basis)
    p = construct_gsic(basis, tm)
    pc = conjugate_gsic(p)
    # one set per party, each at its own t; the multipartite sum allows it
    mixed = [construct_gsic(basis, tm * (k + 1) / n) for k in range(n)]
    mixed[-1] = conjugate_gsic(mixed[-1])
    rho = _ginibre(d, n, rng)
    cases = [[p] * n, [pc] * n, [p] + [pc] * (n - 1), mixed]
    for sets in cases:
        want = brute_force_j(rho, sets)
        assert abs(j_multipartite(rho, sets) - want) <= 1e-12 * abs(want)
    if n == 2:
        for q in (pc, p):
            want = brute_force_j(rho, [p, q])
            assert abs(j_bipartite(rho, p, q) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("d, n", [(2, 3), (2, 4), (2, 5),
                                  (3, 3), (3, 4), (3, 5)])
def test_separable_contraction_matches_brute_force_within_the_bound(d, n):
    basis = gell_mann_basis(d)
    tm = max_feasible_t(basis)
    p = construct_gsic(basis, tm)
    mixed = [construct_gsic(basis, tm * (k + 1) / n) for k in range(n)]
    mixed[-1] = conjugate_gsic(mixed[-1])
    cases = [[p] * n, [conjugate_gsic(p)] * n, mixed]
    for seed in range(3):
        rho = random_separable(d, n, 4, seed=seed)
        for sets in cases:
            got = j_multipartite(rho, sets)
            want = brute_force_j(rho, sets)
            assert abs(got - want) <= 1e-12 * abs(want)
            assert got <= multipartite_bound(d, [g.a for g in sets])


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_correlation_matrix_matches_the_einsum_reference(d):
    rho = _ginibre(d, 2, np.random.default_rng(40 + d))
    gens = gell_mann_basis(d).generators
    want = 0.5 * np.einsum("aij,bkl,jlik->ab", gens, gens,
                           rho.matrix.reshape(d, d, d, d)).real
    got = correlation_matrix(rho, gell_mann_basis(d))
    assert np.abs(got - want).max() <= 1e-15


def test_cached_witnesses_match_brute_force_in_any_call_order():
    # the pair's _Witness and the multipartite kernel of the same two sets
    # share a first set; neither may be read back as the other
    d = 3
    rng = np.random.default_rng(61)
    basis = gell_mann_basis(d)
    tm = max_feasible_t(basis)
    p = construct_gsic(basis, tm)
    pc = conjugate_gsic(p)
    mixed = [construct_gsic(basis, tm * (k + 1) / 3) for k in range(3)]
    mixed[-1] = conjugate_gsic(mixed[-1])
    rho = {n: _ginibre(d, n, rng) for n in (2, 3, 4)}

    def pair(state, sets):
        return j_bipartite(state, *sets)

    calls = [(j_multipartite, [p] * 3), (j_multipartite, [p] * 4),
             (j_multipartite, [pc] * 3), (j_multipartite, mixed),
             (j_multipartite, [p, pc]), (pair, [p, pc])] * 3
    for k in rng.permutation(len(calls)):
        f, sets = calls[k]
        state = rho[len(sets)]
        got = f(state, sets)
        want = brute_force_j(state, sets)
        assert abs(got - want) <= 1e-12 * abs(want), (f.__name__, k)
        fresh = [dataclasses.replace(g) for g in sets]
        assert abs(got - f(state, fresh)) <= 1e-14 * abs(want)


def test_a_witness_is_built_once_per_set_tuple(monkeypatch):
    kernel = criteria._multipartite_kernel
    built = []

    def counted(sets):
        built.append(tuple(sets))
        return kernel(sets)

    monkeypatch.setattr(criteria, "_multipartite_kernel", counted)
    p, pc = _pair(2)
    assert criteria._witness(p, pc) is criteria._witness(p, pc)
    assert criteria._witness(pc, p) is not criteria._witness(p, pc)
    rho = random_separable(2, 3, 2, seed=5)
    first = j_multipartite(rho, [p, pc, p])
    assert j_multipartite(rho, [p, pc, p]) == first
    assert len(built) == 1
    j_multipartite(rho, [p, p, pc])
    assert len(built) == 2
    j_multipartite(rho, [p, pc, p])
    assert len(built) == 2
    # a tuple that is a prefix of another is kept apart from it
    rho2 = random_separable(2, 2, 2, seed=6)
    pair = j_multipartite(rho2, [p, pc])
    assert abs(pair - brute_force_j(rho2, [p, pc])) <= 1e-12 * abs(pair)
    assert j_multipartite(rho, [p, pc, p]) == first
    assert j_multipartite(rho2, [p, pc]) == pair
    assert built == [(p, pc, p), (p, p, pc), (p, pc)]


def test_cached_witnesses_die_with_their_sets():
    p, pc = _pair(2)
    ref = weakref.ref(p)
    j_bipartite(max_entangled(2), p, pc)
    j_bipartite(max_entangled(2), pc, p)
    j_multipartite(random_separable(2, 3, 2, seed=1), [p, pc, p])
    del p, pc
    gc.collect()
    assert ref() is None


def _store_entries(first):
    """(kind, tuple) of every live entry of the witness store that
    starts with the set first."""
    def tuples(level, n):
        if n == 0:
            return [()]
        return [(g, *rest) for g, below in level.items()
                for rest in tuples(below, n - 1)]

    return {(kind, sets) for (kind, n), top in criteria._STORE.items()
            for sets in tuples(top, n) if sets[0] is first}


def test_a_cached_witness_dies_with_any_of_its_sets():
    # a long-lived first set paired with a fresh partner on every call:
    # once the partners are dropped, only the live tuples keep entries
    p, keep = _pair(3)
    rho2, rho3 = max_entangled(3), random_separable(3, 3, 2, seed=2)
    want = (j_bipartite(rho2, p, keep), j_multipartite(rho3, [p, keep, p]))
    fresh = []
    for _ in range(4):
        fresh.append(conjugate_gsic(p))
        j_bipartite(rho2, p, fresh[-1])
        j_multipartite(rho3, [p, p, fresh[-1]])
    assert len(_store_entries(p)) == 10
    refs = [weakref.ref(g) for g in fresh]
    del fresh
    gc.collect()
    assert all(r() is None for r in refs)
    assert _store_entries(p) == {("pair", (p, keep)),
                                 ("multipartite", (p, keep, p))}
    assert (j_bipartite(rho2, p, keep),
            j_multipartite(rho3, [p, keep, p])) == want
