"""Tests for the state factories and tensor utilities."""

import importlib.util
import json
import sys
import time
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from gsicdetect import (bell_diagonal, conjugate_gsic, construct_gsic,
                        detect_bipartite, diagonal_mixture, feasible_t,
                        gell_mann_basis, isotropic, max_entangled,
                        partial_transpose, random_separable, read_state,
                        tensor, validate_gsic, weyl_operator, write_state)
from gsicdetect import states
from gsicdetect.criteria import verdict
from gsicdetect.errors import PSD_TOL, margin_error_bound
from gsicdetect.gsic import _operators
from gsicdetect.oracle import ppt_test
from gsicdetect.states import (DensityMatrix, _cholesky, _read_head,
                               _read_raw, decode_float)


def _reduced(rho, d, keep):
    tens = rho.matrix.reshape(d, d, d, d)
    if keep == 0:
        return np.einsum("ikjk->ij", tens)
    return np.einsum("kikj->ij", tens)


def test_max_entangled_qubit_matrix():
    expected = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            expected[i, j] = 0.5
    assert np.abs(max_entangled(2).matrix - expected).max() < 1e-15


def test_max_entangled_is_pure_with_flat_marginals():
    for d in (2, 3, 4):
        rho = max_entangled(d)
        mat = rho.matrix
        assert np.trace(mat @ mat).real == pytest.approx(1.0, abs=1e-13)
        for keep in (0, 1):
            assert np.abs(_reduced(rho, d, keep) - np.eye(d) / d).max() < 1e-13


def test_isotropic_spectrum():
    d, alpha = 3, 0.4
    eigs = np.linalg.eigvalsh(isotropic(d, alpha).matrix)
    floor = (1 - alpha) / d**2
    assert eigs[-1] == pytest.approx(alpha + floor, abs=1e-13)
    assert np.abs(eigs[:-1] - floor).max() < 1e-13


def test_isotropic_endpoints():
    d = 2
    assert np.abs(isotropic(d, 1.0).matrix - max_entangled(d).matrix).max() < 1e-15
    assert np.abs(isotropic(d, 0.0).matrix - np.eye(4) / 4).max() < 1e-15
    for alpha in (-0.1, 1.1):
        with pytest.raises(ValueError):
            isotropic(d, alpha)


def test_weyl_qubit_table():
    eye = np.eye(2)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    assert np.abs(weyl_operator(2, 0, 0) - eye).max() < 1e-15
    assert np.abs(weyl_operator(2, 0, 1) - sx).max() < 1e-15
    assert np.abs(weyl_operator(2, 1, 0) - sz).max() < 1e-15
    flip = np.array([[0, 1], [-1, 0]], dtype=complex)
    assert np.abs(weyl_operator(2, 1, 1) - flip).max() < 1e-15


def test_weyl_operators_unitary_and_orthogonal():
    for d in (2, 3, 5):
        ops = [weyl_operator(d, s, t) for s in range(d) for t in range(d)]
        for u in ops:
            assert np.abs(u @ u.conj().T - np.eye(d)).max() < 1e-13
        gram = np.array([[np.trace(u.conj().T @ v) for v in ops] for u in ops])
        assert np.abs(gram - d * np.eye(d * d)).max() < 1e-12


def test_weyl_labels_out_of_range():
    for s, t in ((-1, 0), (0, -1), (2, 0), (0, 2)):
        with pytest.raises(ValueError):
            weyl_operator(2, s, t)


def test_bell_projectors_orthonormal():
    for d in (2, 3, 5):
        projs = [bell_diagonal(d, {(s, t): 1.0}).matrix
                 for s in range(d) for t in range(d)]
        gram = np.array([[np.trace(a @ b).real for b in projs] for a in projs])
        assert np.abs(gram - np.eye(d * d)).max() < 1e-12


def test_bell_diagonal_limits():
    d = 3
    single = bell_diagonal(d, {(0, 0): 1.0})
    assert np.abs(single.matrix - max_entangled(d).matrix).max() < 1e-13
    uniform = bell_diagonal(
        d, {(s, t): 1 / d**2 for s in range(d) for t in range(d)})
    assert np.abs(uniform.matrix - np.eye(d * d) / d**2).max() < 1e-13


def test_bell_diagonal_uniform_rest_is_isotropic():
    # weight c on the reference projector and uniform rest is the
    # isotropic state with alpha = (c d**2 - 1)/(d**2 - 1)
    for d, c in ((2, 0.7), (3, 0.4)):
        rest = (1 - c) / (d * d - 1)
        weights = {(s, t): rest for s in range(d) for t in range(d)}
        weights[(0, 0)] = c
        alpha = (c * d * d - 1) / (d * d - 1)
        assert np.abs(bell_diagonal(d, weights).matrix
                      - isotropic(d, alpha).matrix).max() < 1e-13


def test_bell_diagonal_input_checks():
    with pytest.raises(ValueError):
        bell_diagonal(2, {(0, 0): 0.5, (1, 1): 0.4})
    with pytest.raises(ValueError):
        bell_diagonal(2, {(0, 0): 1.2, (1, 1): -0.2})
    with pytest.raises(ValueError):
        bell_diagonal(2, {(0, 2): 1.0})


@pytest.mark.parametrize("weights, message", [
    ({(0, 0): 0.5, (2, 1): 0.5}, "label (2, 1) out of range for dimension 2"),
    ({(0, 0): 1.0, (1, -1): 0.0},
     "label (1, -1) out of range for dimension 2"),
    ({(0, 0): 1.0, (1, 1): float("nan")},
     "non-finite weight nan for label (1, 1)"),
    ({(0, 0): 1.5, (1, 1): -0.5}, "negative weight -0.5 for label (1, 1)"),
    ({(0, 0): 0.5, (1, 1): 0.4}, "weights sum to 0.9, expected 1"),
    ({}, "weights sum to 0, expected 1"),
    # the first label in the mapping's order that fails a check, by the
    # first check it fails: range, then finite, then sign
    ({(0, 0): -1.0, (5, 0): float("inf"), (1, 1): float("nan")},
     "negative weight -1.0 for label (0, 0)"),
    ({(1, 1): float("inf"), (0, 0): -1.0, (0, 9): 2.0},
     "non-finite weight inf for label (1, 1)"),
    ({(0, 0): 1.0, (7, 1): float("-inf")},
     "label (7, 1) out of range for dimension 2"),
    ({(0, 0): 1.0, (1, 1): float("-inf")},
     "non-finite weight -inf for label (1, 1)"),
    # a label past int64, as a weights file may name one
    ({(0, 0): 1.0, (10**30, 0): 0.0},
     f"label ({10**30}, 0) out of range for dimension 2"),
    ({(0, 0): 1.0, (1, -2**70): 0.0},
     f"label (1, {-2**70}) out of range for dimension 2"),
    # a label that is no pair of integers, named in the same order
    ({(0, 0): 0.5, (1.5, 0): 0.5}, "label (1.5, 0) is not a pair of integers"),
    ({(1.0, 1): 1.0}, "label (1.0, 1) is not a pair of integers"),
    ({(0, 0): 0.5, ("1", 1): 0.5}, "label ('1', 1) is not a pair of integers"),
    ({(0, 0): 0.5, (1, 1, 0): 0.5},
     "label (1, 1, 0) is not a pair of integers"),
    ({(0, 0): 1.0, 3: 0.0}, "label 3 is not a pair of integers"),
    ({(0, 0): -1.0, (0.5, 0): 2.0}, "negative weight -1.0 for label (0, 0)"),
    ({(0.5, 0): float("nan"), (0, 0): -1.0},
     "label (0.5, 0) is not a pair of integers"),
    ({(0, 0): 1.0, (10**30, 0): 0.0, (0.5, 1): 0.0},
     f"label ({10**30}, 0) out of range for dimension 2")])
def test_bell_diagonal_names_the_first_label_it_refuses(weights, message):
    with pytest.raises(ValueError) as refused:
        bell_diagonal(2, weights)
    assert str(refused.value) == message


def test_diagonal_mixture_qubit_matrix():
    expected = 0.25 * np.eye(4, dtype=complex)
    expected[0, 3] = expected[3, 0] = 0.25
    assert np.abs(diagonal_mixture(2, 0.5).matrix - expected).max() < 1e-15


def test_diagonal_mixture_limits_and_structure():
    d = 3
    assert np.abs(diagonal_mixture(d, 1.0).matrix
                  - max_entangled(d).matrix).max() < 1e-13
    flat = diagonal_mixture(d, 0.0).matrix
    # no entangled part: diagonal, uniform on the k != m pairs
    assert np.abs(flat - np.diag(np.diag(flat))).max() < 1e-15
    diag = np.diag(flat).real.reshape(d, d)
    assert np.abs(np.diag(diag)).max() < 1e-15
    off = diag[~np.eye(d, dtype=bool)]
    assert np.abs(off - 1 / (d * (d - 1))).max() < 1e-13


def test_diagonal_mixture_custom_tail():
    d = 3
    rho = diagonal_mixture(d, 0.4, tail=[0.5, 0.1])
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-13)
    with pytest.raises(ValueError):
        diagonal_mixture(d, 0.4, tail=[0.5, 0.5])
    with pytest.raises(ValueError):
        diagonal_mixture(d, 0.4, tail=[0.6])
    with pytest.raises(ValueError):
        diagonal_mixture(d, 1.2)


def _weyl_reference(table):
    # sum_st p_st |Phi_st><Phi_st| with Phi_st = (U_st (x) I)|phi+>, i.e. the
    # flattened U_st / sqrt(d), built term by term from weyl_operator
    d = len(table)
    mat = np.zeros((d * d, d * d), dtype=complex)
    for s in range(d):
        for t in range(d):
            phi = weyl_operator(d, s, t).reshape(-1) / np.sqrt(d)
            mat += table[s, t] * np.outer(phi, phi.conj())
    return mat


def _assert_matches_reference(rho, table):
    mat = rho.matrix
    assert np.abs(mat - _weyl_reference(table)).max() <= 1e-15
    assert np.abs(mat - mat.conj().T).max() <= 1e-15


@pytest.mark.parametrize("d", range(2, 9))
def test_families_match_the_weyl_reference(d):
    rng = np.random.default_rng(100 + d)
    table = rng.random((d, d))
    table /= table.sum()
    weights = {(s, t): table[s, t] for s in range(d) for t in range(d)}
    _assert_matches_reference(bell_diagonal(d, weights), table)

    point = np.zeros((d, d))
    point[0, 0] = 1.0
    _assert_matches_reference(max_entangled(d), point)

    alpha = rng.random()
    noisy = np.full((d, d), (1 - alpha) / d**2)
    noisy[0, 0] += alpha
    _assert_matches_reference(isotropic(d, alpha), noisy)

    a1 = rng.random()
    tail = rng.random(d - 1)
    tail *= (1 - a1) / tail.sum()
    # offset delta's diagonal is the uniform mixture of the labels (s, delta)
    mixed = np.zeros((d, d))
    mixed[:, 1:] = tail / d
    mixed[0, 0] = a1
    _assert_matches_reference(diagonal_mixture(d, a1, tail=tail), mixed)


@pytest.mark.parametrize("tail", [[float("nan"), 0.3], [0.3, float("nan")]])
def test_diagonal_mixture_rejects_a_nan_tail(tail):
    with pytest.raises(ValueError, match="nonnegative"):
        diagonal_mixture(3, 0.4, tail=tail)


def test_random_separable_is_deterministic():
    one = random_separable(3, 2, 4, seed=9)
    two = random_separable(3, 2, 4, seed=9)
    other = random_separable(3, 2, 4, seed=10)
    assert np.array_equal(one.matrix, two.matrix)
    assert np.abs(one.matrix - other.matrix).max() > 1e-6


def test_random_separable_outputs_stay_ppt():
    # separability implies a PSD partial transpose
    for d in (2, 3):
        for seed in range(5):
            rho = random_separable(d, 2, 3, seed=seed)
            eigs = np.linalg.eigvalsh(partial_transpose(rho, 1))
            assert eigs[0] > -1e-10


def test_random_separable_single_term_is_pure():
    rho = random_separable(2, 3, 1, seed=3)
    assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1.0,
                                                                   abs=1e-12)


def test_random_separable_input_checks():
    with pytest.raises(ValueError, match="need parties >= 2 and terms >= 1, "
                                         "got 1 and 3"):
        random_separable(2, 1, 3, seed=0)
    with pytest.raises(ValueError, match="need parties >= 2 and terms >= 1, "
                                         "got 2 and 0"):
        random_separable(2, 2, 0, seed=0)


def _per_term_random_separable(d, parties, terms, seed):
    """One Kronecker product and one outer-product accumulation per term."""
    rng = np.random.default_rng(seed)
    weights = rng.random(terms)
    weights /= weights.sum()
    mat = np.zeros((d ** parties, d ** parties), dtype=complex)
    for w in weights:
        factors = rng.normal(size=(parties, d)) + 1j * rng.normal(size=(parties, d))
        factors /= np.linalg.norm(factors, axis=1, keepdims=True)
        vec = reduce(np.kron, factors)
        mat += w * np.outer(vec, vec.conj())
    return 0.5 * (mat + mat.conj().T), f"randsep-d{d}-n{parties}-seed{seed}"


@pytest.mark.parametrize("d, parties", [(d, n) for d in (2, 3, 4, 16)
                                        for n in (2, 3, 4, 5) if d ** n <= 256])
def test_random_separable_matches_the_per_term_reference(d, parties):
    for terms in range(1, 6):
        for seed in (0, 1, 17, 2024):
            rho = random_separable(d, parties, terms, seed)
            want, label = _per_term_random_separable(d, parties, terms, seed)
            mat = rho.matrix
            assert np.abs(mat - want).max() <= 1e-15
            assert np.array_equal(mat, mat.conj().T)
            assert abs(np.trace(mat) - 1) <= 1e-14
            assert rho.label == label


def _two_buffer_random_separable(d, parties, terms, seed):
    """The same draws and products, with X - X^T formed as its own array."""
    rng = np.random.default_rng(seed)
    weights = rng.random(terms)
    weights /= weights.sum()
    draws = rng.normal(size=(terms, 2, parties, d))
    factors = draws[:, 0] + 1j * draws[:, 1]
    factors /= np.linalg.norm(factors, axis=2, keepdims=True)
    vecs = factors[:, 0]
    for k in range(1, parties):
        vecs = (vecs[:, :, None] * factors[:, k, None, :]).reshape(terms, -1)
    u = np.sqrt(weights)[:, None] * vecs
    s = np.concatenate((u.real, u.imag))
    x = u.imag.T @ u.real
    mat = np.empty(x.shape, dtype=complex)
    mat.real = s.T @ s
    mat.imag = x - x.T
    return mat


@pytest.mark.parametrize("d, parties", [(d, n) for d in (2, 3, 4, 16)
                                        for n in range(2, 9) if d ** n <= 256])
def test_random_separable_in_place_matches_the_two_buffer_form(d, parties):
    for terms in (1, 2, 4, 5, 9):
        for seed in (0, 1, 17, 2024):
            mat = random_separable(d, parties, terms, seed).matrix
            assert np.array_equal(
                mat, _two_buffer_random_separable(d, parties, terms, seed))
            assert mat.flags.c_contiguous and mat.flags.owndata


@pytest.mark.parametrize("d, parties", [(3, 5), (2, 8), (16, 2)])
def test_random_separable_peaks_below_two_states(d, parties):
    # one result buffer and at most one real half-size temporary: about
    # 1.6 times the state's bytes; a separate X - X^T array reads 2.1
    random_separable(d, parties, 4, seed=6)
    tracemalloc.start()
    try:
        rho = random_separable(d, parties, 4, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * rho.matrix.nbytes, peak / rho.matrix.nbytes


def test_tensor_matches_kron():
    rng = np.random.default_rng(2)
    a, b, c = (rng.normal(size=(2, 2)) for _ in range(3))
    assert np.array_equal(tensor([a, b, c]), np.kron(np.kron(a, b), c))
    assert np.array_equal(tensor([a]), a)
    with pytest.raises(ValueError):
        tensor([])


def test_partial_transpose_involution_and_products():
    rng = np.random.default_rng(4)
    rho = random_separable(3, 2, 4, seed=1)
    twice = DensityMatrix(3, 2, partial_transpose(rho, 0))
    assert np.abs(partial_transpose(twice, 0) - rho.matrix).max() < 1e-15
    # on a product state the partial transpose acts factor-wise
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    w = rng.normal(size=3) + 1j * rng.normal(size=3)
    v /= np.linalg.norm(v)
    w /= np.linalg.norm(w)
    left = np.outer(v, v.conj())
    right = np.outer(w, w.conj())
    product = DensityMatrix.from_matrix(np.kron(left, right), 3, 2)
    assert np.abs(partial_transpose(product, 1)
                  - np.kron(left, right.T)).max() < 1e-13


def test_partial_transpose_maxent_spectrum():
    # the transposed projector is the swap divided by d
    for d in (2, 3):
        eigs = np.linalg.eigvalsh(partial_transpose(max_entangled(d), 1))
        assert eigs[0] == pytest.approx(-1 / d, abs=1e-13)
        assert eigs[-1] == pytest.approx(1 / d, abs=1e-13)


def test_partial_transpose_party_range():
    rho = max_entangled(2)
    for party in (-1, 2):
        with pytest.raises(ValueError):
            partial_transpose(rho, party)


def test_state_json_round_trip(tmp_path):
    rho = random_separable(2, 2, 3, seed=5)
    path = tmp_path / "rho.json"
    write_state(rho, path)
    loaded = read_state(path)
    assert loaded.local_dim == 2
    assert loaded.parties == 2
    assert np.array_equal(loaded.matrix, rho.matrix)
    assert loaded.label == "file:rho.json"


def test_state_json_rejects_bad_payloads(tmp_path):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"local_dim": 2, "parties": 2}))
    with pytest.raises(ValueError, match="malformed"):
        read_state(path)
    # bypasses from_matrix, so that the reader's gate is the one to refuse
    write_state(DensityMatrix(local_dim=2, parties=2,
                              matrix=np.eye(4, dtype=complex) / 2), path)
    with pytest.raises(ValueError, match="trace"):  # trace 2
        read_state(path)


def test_state_json_round_trips_extreme_floats_bit_exact(tmp_path):
    vals = [-0.0, 5e-324, 1e308, -1e308]
    z = np.array([complex(re, im) for re in vals for im in vals])
    path = tmp_path / "rho.json"
    # bypasses from_matrix: only the codec is under test
    write_state(DensityMatrix(local_dim=2, parties=2, matrix=z.reshape(4, 4)),
                path)
    with open(path, "rb") as f:
        head = _read_head(f)
        back = _read_raw(f, 16)
    assert head == {"encoding": "c16le-raw", "local_dim": 2, "parties": 2}
    assert back.dtype == complex and back.flags.writeable
    assert back.tobytes() == z.tobytes()


def test_state_json_rejects_a_wrong_entry_count(tmp_path, edit_entries):
    # a raw file is sized against its head before it is read
    path = tmp_path / "rho.json"
    write_state(max_entangled(2), path)
    edit_entries(path, lambda z: z[:-1])
    with pytest.raises(ValueError,
                       match="malformed.*payload holds 240 bytes, expected 256"):
        read_state(path)


@pytest.mark.parametrize("field,value", [
    ("local_dim", -2), ("local_dim", 1), ("parties", 0), ("parties", -1)])
def test_state_json_rejects_dimensions_below_their_minimum(
        tmp_path, edit_head, field, value):
    path = tmp_path / "rho.json"
    write_state(max_entangled(2), path)
    edit_head(path, **{field: value})
    with pytest.raises(ValueError, match="malformed.*expected an integer >="):
        read_state(path)


def test_an_accepted_state_records_its_distance_from_a_density_matrix():
    eye = np.eye(4, dtype=complex) / 4
    assert DensityMatrix.from_matrix(eye, 2, 2).deviation == 0.0
    scaled = DensityMatrix.from_matrix((1 + 9e-11) * eye, 2, 2)
    assert scaled.deviation == pytest.approx(9e-11, rel=1e-6)
    # one eigenvalue at -5e-11: twice the dimension times its weight
    tilted = np.diag([0.5 + 5e-11, 0.25, 0.25, -5e-11]).astype(complex)
    assert DensityMatrix.from_matrix(tilted, 2, 2).deviation == pytest.approx(
        2 * 4 * 5e-11, rel=1e-6)
    weights = {(0, 0): 0.5 + 9e-13, (1, 1): 0.5}
    assert bell_diagonal(2, weights).deviation == pytest.approx(9e-13,
                                                                rel=1e-3)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_a_bell_mixture_keeps_its_verdict_through_a_state_file(tmp_path, d):
    basis = gell_mann_basis(d)
    p = construct_gsic(basis, feasible_t(basis).t)
    q = conjugate_gsic(p)
    w = np.random.default_rng(d).dirichlet(np.full(d * d, 0.3))
    table = {(s, t): float(w[s * d + t]) for s in range(d) for t in range(d)}
    dim = d * d
    for k, rho in enumerate([isotropic(d, 0.1), isotropic(d, 0.9),
                             diagonal_mixture(d, 0.8),
                             bell_diagonal(d, table)]):
        path = tmp_path / f"rho{k}.json"
        write_state(rho, path)
        loaded = read_state(path)
        assert (detect_bipartite(loaded, p, q).verdict
                == detect_bipartite(rho, p, q).verdict)
        # against the deviation from a plain eigvalsh of the Hermitian part
        h = 0.5 * loaded.matrix + 0.5 * loaded.matrix.conj().T
        plain = (abs(np.trace(loaded.matrix) - 1.0)
                 + 2.0 * dim * max(0.0, -np.linalg.eigvalsh(h)[0]))
        assert abs(loaded.deviation - plain) <= 2 * dim * 1e-14


def test_from_matrix_validation():
    good = np.eye(2, dtype=complex) / 2
    DensityMatrix.from_matrix(good, 2, 1)
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix.from_matrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]), 2, 1)
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix.from_matrix(np.eye(2, dtype=complex), 2, 1)
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix.from_matrix(np.diag([1.5, -0.5]).astype(complex), 2, 1)
    with pytest.raises(ValueError, match="shape"):
        DensityMatrix.from_matrix(good, 2, 2)
    with pytest.raises(ValueError, match="need parties >= 1, got 0"):
        DensityMatrix.from_matrix(good, 2, 0)


def test_from_matrix_refuses_an_absurd_party_count_fast():
    # 3**(10**8) must never be formed: the matrix's shape decides first
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^matrix has shape \(4, 4\), too "
                                         "small for 100000000 parties$"):
        DensityMatrix.from_matrix(np.eye(4) / 4, 3, 10**8)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_from_matrix_rejects_non_finite_entries(bad):
    mat = np.eye(2, dtype=complex) / 2
    mat[0, 1] = mat[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix.from_matrix(mat, 2, 1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_bell_diagonal_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="non-finite"):
        bell_diagonal(2, {(0, 0): 1.0, (1, 1): bad})


@pytest.mark.parametrize("field,value", [
    ("local_dim", 2.5), ("local_dim", 2.0), ("parties", 2.9),
    ("parties", True), ("local_dim", "2")])
def test_state_json_rejects_non_integer_dimensions(tmp_path, edit_head, field,
                                                   value):
    path = tmp_path / "rho.json"
    write_state(max_entangled(2), path)
    edit_head(path, **{field: value})
    with pytest.raises(ValueError, match="malformed"):
        read_state(path)


def test_decode_float_takes_only_json_numbers_within_float_range():
    assert decode_float(3) == 3.0 and type(decode_float(3)) is float
    assert decode_float(0.25) == 0.25
    # non-finite floats pass through to the caller's own range checks
    assert np.isnan(decode_float(float("nan")))
    for bad in ("0.25", True, None, [1.0], 10**400):
        with pytest.raises(ValueError):
            decode_float(bad)


@pytest.mark.parametrize("dtype", [float, complex])
def test_the_batched_factor_keeps_each_matrixs_outcome(dtype):
    # numpy's gufunc behind np.linalg.cholesky: NaN exactly where that
    # function raises, its factor bit for bit everywhere else, a NaN entry
    # included, which need not fail the factor
    rng = np.random.default_rng(5)
    n = 7
    z = rng.normal(size=(6, n, n))
    if dtype is complex:
        z = z + 1j * rng.normal(size=(6, n, n))
    stack = z @ np.swapaxes(z, 1, 2).conj()  # positive definite
    stack[1] -= 100.0 * np.eye(n)  # indefinite
    stack[2][3, :] = stack[2][:, 3] = 0.0  # singular: a zero pivot at 3
    stack[3][5, 2] = np.nan  # in the lower triangle, the part read
    stack[4][n - 1, n - 1] = -1.0  # fails only at the last pivot
    factors = _cholesky(stack)
    assert factors.dtype == stack.dtype
    for a, r in zip(stack, factors):
        try:
            want = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            assert np.isnan(r).all()
        else:
            assert r.tobytes() == want.tobytes()
    failed = [np.isnan(r).all() for r in factors]
    assert [failed[k] for k in (0, 1, 2, 4, 5)] == [False, True, True, True,
                                                   False]
    # whether the LAPACK at hand fails it or not, the NaN reaches the factor
    assert np.isnan(factors[3]).any()


@pytest.mark.parametrize("dtype", [float, complex])
def test_the_factor_written_over_its_matrix_needs_no_full_size_temporary(
        dtype):
    # _lowest_eigenvalue factors each slab of its buffer into itself: the
    # factors and failures of np.linalg.cholesky, bit for bit, with each
    # matrix's work copy in LAPACK's own space, which tracemalloc does not
    # count, and no copy of the slab
    rng = np.random.default_rng(6)
    n = 64
    z = rng.normal(size=(4, n, n))
    if dtype is complex:
        z = z + 1j * rng.normal(size=(4, n, n))
    stack = z @ np.swapaxes(z, 1, 2).conj()  # positive definite
    stack[1] -= 1000.0 * np.eye(n)  # indefinite
    stack[2][n - 1, n - 1] = -1.0  # fails only at the last pivot
    buf = np.empty((5, n, n), dtype=dtype)
    slab = buf[:4]  # a slab of a longer buffer, as _unproven takes it
    slab[...] = stack
    tracemalloc.start()
    try:
        factors = _cholesky(slab, out=slab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert factors is slab
    assert peak < stack[0].nbytes / 4, peak
    for a, r in zip(stack, slab):
        try:
            want = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            assert np.isnan(r).all()
        else:
            assert r.tobytes() == want.tobytes()
    assert [np.isnan(r).all() for r in slab] == [False, True, True, False]


def _states_without_gufunc(monkeypatch):
    """A fresh copy of gsicdetect.states, imported where numpy's private
    Cholesky gufunc cannot be."""
    monkeypatch.setitem(sys.modules, "numpy.linalg._umath_linalg", None)
    spec = importlib.util.spec_from_file_location(
        "gsicdetect._states_without_gufunc", states.__file__)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for dataclass
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("dtype", [float, complex])
def test_without_numpys_gufunc_the_factor_falls_back_to_np_linalg(
        monkeypatch, dtype):
    # np.linalg.cholesky on the whole slab, then on each matrix once it
    # raises: the gufunc's factors bit for bit, a failed one all NaN, in
    # place or not, for a slab and for the probe's lone matrix
    fallback = _states_without_gufunc(monkeypatch)
    assert fallback._cholesky is fallback._cholesky_by_slab
    rng = np.random.default_rng(9)
    n = 8
    z = rng.normal(size=(4, n, n))
    if dtype is complex:
        z = z + 1j * rng.normal(size=(4, n, n))
    slab = z @ np.swapaxes(z, 1, 2).conj()  # positive definite
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    assert fallback._cholesky(slab).tobytes() == _cholesky(slab).tobytes()
    assert calls == [slab.shape]
    slab[2] -= 100.0 * np.eye(n)  # indefinite: the one failure
    want = _cholesky(slab)
    assert [np.isnan(r).all() for r in want] == [False, False, True, False]
    calls.clear()
    got = fallback._cholesky(slab)
    assert calls == [slab.shape] + [(n, n)] * 4
    inplace = slab.copy()
    assert fallback._cholesky(inplace, out=inplace) is inplace
    for r in (got, inplace):
        assert r.dtype == slab.dtype
        for k in (0, 1, 3):
            assert r[k].tobytes() == want[k].tobytes()
        assert np.isnan(r[2]).all()
    lone = slab[2].copy()
    assert np.isnan(fallback._cholesky(lone, out=lone)).all()
    assert fallback._cholesky(slab[0]).tobytes() == want[0].tobytes()


def test_without_numpys_gufunc_the_prover_keeps_its_routes_and_values(
        monkeypatch):
    # the low-rank certificate and its probe, the slab factors and the
    # spectrum of what they leave, through the fallback
    fallback = _states_without_gufunc(monkeypatch)
    mat = random_separable(16, 2, 4, seed=4).matrix
    assert fallback._certified_low_rank(mat[None], -PSD_TOL)
    basis = gell_mann_basis(12)
    ops = construct_gsic(basis, feasible_t(basis).t).operators
    for stack, floor in ((mat[None], 0.0), (ops, 0.0), (ops, np.inf)):
        assert (fallback._lowest_eigenvalue(stack, floor).hex()
                == states._lowest_eigenvalue(stack, floor).hex())


@pytest.mark.parametrize("rank", [4, 256])
def test_a_dense_state_takes_one_factor_or_one_spectrum(prover_routes, rank):
    # a full-rank d = 16 state passes the low-rank certificate's probe of
    # its leading quarter at 0, so the certificate declines it, and is
    # proved above -PSD_TOL by one factor of the whole; it takes no
    # spectrum, not even when its deviation is read, which takes one more
    # factor, at 0 and with no certificate; a rank-4 one is proved by the
    # certificate and is not factored whole until its deviation is read,
    # when that factor fails and one spectrum, of the matrix itself, is
    # taken; both carry the certified bound meanwhile
    if rank == 4:
        mat = random_separable(16, 2, 4, seed=16).matrix
    else:
        rng = np.random.default_rng(16)
        z = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
        mat = z @ z.conj().T
        mat = 0.5 * (mat + mat.conj().T)
        mat /= np.trace(mat).real
    rho = DensityMatrix.from_matrix(mat, 16, 2)
    assert not rho.exact
    assert rho.deviation_bound == abs(np.trace(mat) - 1.0) + 512 * PSD_TOL
    gate = (["certificate proves"] if rank == 4
            else ["certificate declines", "factor 1/1"])
    assert prover_routes == gate
    deviation = rho.deviation
    read = ["factor 0/1", "eigvalsh 1"] if rank == 4 else ["factor 1/1"]
    assert prover_routes == gate + read
    want = 2.0 * 256 * max(0.0, -np.linalg.eigvalsh(mat)[0])
    assert deviation == abs(np.trace(mat) - 1.0) + want
    assert deviation <= rho.deviation_bound


def test_only_the_low_rank_certificate_factors_a_leading_quarter(
        monkeypatch):
    # with the probe size lowered to 8, the cap and the gate of the d = 12
    # set factor their slabs of order 12 and no leading quarter of order
    # 3; a lone full-rank d = 6 state has its leading quarter factored by
    # the certificate, which it passes, then its whole, and its first
    # deviation read, at floor 0, factors the whole alone
    factored = []
    cholesky = states._cholesky

    def counting_cholesky(a, *args, **kwargs):
        factored.append(a.shape[-1])
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(states, "PROBE_MIN_SIZE", 8)
    monkeypatch.setattr(states, "_cholesky", counting_cholesky)
    basis = gell_mann_basis(12)
    g = construct_gsic(basis, feasible_t(basis).t)
    assert validate_gsic(g).passed
    assert factored and set(factored) == {12}, factored
    factored.clear()
    rng = np.random.default_rng(6)
    z = rng.normal(size=(36, 36)) + 1j * rng.normal(size=(36, 36))
    mat = z @ z.conj().T
    rho = DensityMatrix.from_matrix(mat / np.trace(mat).real, 6, 2)
    assert factored == [9, 36]
    rho.deviation
    assert factored == [9, 36, 36]


@pytest.fixture(scope="module")
def pair16():
    basis = gell_mann_basis(16)
    p = construct_gsic(basis, feasible_t(basis).t)
    return p, conjugate_gsic(p)


def test_a_low_rank_state_file_is_read_and_tested_with_no_spectrum(
        tmp_path, prover_routes, pair16):
    # a rank-4 d = 16 state, read from its file, tested far from the
    # ceiling and by ppt_test, is proved positive twice by the low-rank
    # certificate (its matrix, then its partial transpose, before any
    # Lanczos step) and never has a spectrum taken
    path = tmp_path / "rho.json"
    write_state(random_separable(16, 2, 4, seed=3), path)
    rho = read_state(path)
    report = detect_bipartite(rho, *pair16)
    assert prover_routes == ["certificate proves"]
    ppt = ppt_test(rho)
    assert prover_routes == ["certificate proves", "certificate proves"]
    assert report.verdict == "INCONCLUSIVE" and not ppt.npt
    assert report.margin < 0.0 and "deviation" not in vars(rho)


def test_a_proved_state_in_the_band_above_e_reads_its_deviation(
        tmp_path, pair16):
    # rank-5 d = 16 states, a separable one mixed with a little of
    # |phi+>, read from their files, with margins placed from just below
    # E to beyond E plus the certified bound: the margin, the verdict and
    # the deviation are those of the exact deviation from eigvalsh, and
    # that deviation is read only where it can decide
    p, q = pair16
    d, n = 16, 256
    sep = random_separable(d, 2, 4, seed=5).matrix
    phi = np.eye(d).reshape(n) / np.sqrt(d)
    ent = np.outer(phi, phi).astype(complex)

    def margin(mat):
        # as made directly, with no deviation to read
        return detect_bipartite(DensityMatrix(local_dim=d, parties=2,
                                              matrix=mat), p, q).margin

    m0, m1 = margin(sep), margin(ent)
    error = margin_error_bound(p, q)
    bound = 2.0 * n * PSD_TOL
    seen = set()
    for offset in [-1e-13, 1e-15, 3e-14, 1e-12, 0.5 * bound, 2.0 * bound]:
        x = (error + offset - m0) / (m1 - m0)  # the margin is affine in x
        path = tmp_path / f"rho{offset}.json"
        write_state(DensityMatrix(local_dim=d, parties=2,
                                  matrix=(1 - x) * sep + x * ent), path)
        rho = read_state(path)
        assert not rho.exact
        report = detect_bipartite(rho, p, q)
        mat = rho.matrix
        plain = (abs(np.trace(mat) - 1.0)
                 + 2.0 * n * max(0.0, -np.linalg.eigvalsh(mat)[0]))
        read = "deviation" in vars(rho)
        assert rho.deviation == plain
        assert report.verdict == verdict(report.margin > error + plain)
        assert report.margin == margin(mat)
        inside = error < report.margin <= error + rho.deviation_bound
        assert read == inside
        seen.add((inside, report.verdict))
    assert seen == {(False, "INCONCLUSIVE"), (True, "INCONCLUSIVE"),
                    (True, "ENTANGLED_DETECTED"),
                    (False, "ENTANGLED_DETECTED")}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("at", [(200, 3), (7, 7), (255, 254)])
def test_a_non_finite_entry_fails_the_low_rank_certificate_quietly(bad, at):
    # a rank-4 d = 16 matrix that the certificate proves, until one entry
    # of its lower triangle (below or on the diagonal) is not finite;
    # RuntimeWarnings are errors in this suite
    mat = random_separable(16, 2, 4, seed=4).matrix.copy()
    assert states._low_rank_proves(mat, -PSD_TOL)
    mat[at] = bad
    assert not states._low_rank_proves(mat, -PSD_TOL)


@pytest.mark.parametrize("rank", [20, 100])
def test_a_singular_state_past_the_certificate_takes_one_factor(
        prover_routes, rank):
    # rank 20 at d = 16 fails the probe at 0 and lies past the
    # certificate's 16 steps; rank 100 passes the probe; both are then
    # proved by the one factor of the whole, shifted just above -PSD_TOL,
    # and take no spectrum until their deviation is read
    mat = random_separable(16, 2, rank, seed=rank).matrix
    rho = DensityMatrix.from_matrix(mat, 16, 2)
    assert prover_routes == ["certificate declines", "factor 1/1"]
    assert not rho.exact
    plain = abs(np.trace(mat) - 1.0) + 512 * max(
        0.0, -np.linalg.eigvalsh(mat)[0])
    assert rho.deviation == plain


def _dirichlet_bell_mixture(d: int) -> DensityMatrix:
    """A Bell mixture of Dirichlet(1, ..., 1) weights, seeded by d."""
    weights = np.random.default_rng(d).dirichlet(np.ones(d * d))
    return states._bell_mixture(weights.reshape(d, d), f"dirichlet-d{d}")


def _route_input(kind: str) -> np.ndarray:
    """The stack a row of PROVER_ROUTES hands the prover."""
    name, _, rest = kind.partition("-d")
    d = int(rest.removesuffix("-pt"))
    if name in ("belldiag", "isotropic"):
        rho = (_dirichlet_bell_mixture(d) if name == "belldiag"
               else isotropic(d, 0.3))
        mat = partial_transpose(rho, 1) if rest.endswith("-pt") else rho.matrix
        return mat[None]
    if name.startswith("rank"):
        rank = int(name.removeprefix("rank"))
        return random_separable(d, 2, rank, seed=rank).matrix[None]
    if name == "ginibre":
        z = np.random.default_rng(d).normal(size=(d * d, d * d, 2)) @ [1, 1j]
        mat = z @ z.conj().T
        return (0.5 * (mat + mat.conj().T) / np.trace(mat).real)[None]
    if name in ("path", "path+diagonal"):
        # a tridiagonal pattern of order d**2, permuted: a zero in the
        # first row, and one component; with d diagonal entries beside it,
        # d + 1 components, the path a block with zeros in its first row
        n = d * d + (d if name == "path+diagonal" else 0)
        rng = np.random.default_rng(d)
        h = np.diag(1.0 + rng.normal(size=n)).astype(complex)
        off = rng.normal(size=(d * d - 1, 2)) @ [1, 1j]
        h[:d * d, :d * d] += np.diag(off, 1) + np.diag(off.conj(), -1)
        perm = rng.permutation(n)
        return h[perm][:, perm][None]
    basis = gell_mann_basis(d)
    if name == "set":
        return construct_gsic(basis, feasible_t(basis).t).operators
    directions = _operators(basis, 1.0)  # the cap's, as feasible_t builds them
    directions -= np.eye(d) / d**2
    return directions


# (input kind, floor) -> the routes that decide it, in order, as the
# prover_routes fixture logs them.  The floors are those of the callers:
# from_matrix's gate -PSD_TOL on a state and its deviation 0; ppt_test
# +inf on a partial transpose with a zero pattern, or -PSD_TOL on a dense
# one that the Ritz quotient leaves open; the set gate 0; the cap +inf.
# A Bell mixture and its partial transpose split into d blocks of size
# d, an isotropic state into one of size d and d**2 - d of size 1, and
# its partial transpose into d of size 1 and d (d - 1) / 2 of size 2;
# each stack of blocks then takes the route of its own shape.
INF, GATE = np.inf, -PSD_TOL
PROVER_ROUTES = [
    ("belldiag-d8", INF, ["split", "eigvalsh 8"]),
    ("belldiag-d8", GATE, ["split", "eigvalsh 8"]),
    ("belldiag-d8-pt", INF, ["split", "eigvalsh 8"]),
    ("belldiag-d8-pt", GATE, ["split", "eigvalsh 8"]),
    ("belldiag-d12", INF, ["split", "eigvalsh 12"]),
    ("belldiag-d12", GATE, ["split", "factor 12/12"]),
    ("belldiag-d12-pt", INF, ["split", "eigvalsh 12"]),
    ("belldiag-d12-pt", GATE, ["split", "factor 0/12", "eigvalsh 12"]),
    ("belldiag-d16", INF, ["split", "eigvalsh 16"]),
    # from_matrix of a Dirichlet Bell mixture at d = 16 solves no spectrum
    ("belldiag-d16", GATE, ["split", "factor 16/16"]),
    ("belldiag-d16-pt", INF, ["split", "eigvalsh 16"]),
    ("belldiag-d16-pt", GATE, ["split", "factor 0/16", "eigvalsh 16"]),
    ("isotropic-d8", INF, ["split", "eigvalsh 56", "eigvalsh 1"]),
    ("isotropic-d8", GATE, ["split", "eigvalsh 56", "eigvalsh 1"]),
    ("isotropic-d8-pt", INF, ["split", "eigvalsh 8", "eigvalsh 28"]),
    ("isotropic-d8-pt", GATE, ["split", "eigvalsh 8", "eigvalsh 28"]),
    ("isotropic-d12", INF, ["split", "eigvalsh 132", "eigvalsh 1"]),
    ("isotropic-d12", GATE, ["split", "eigvalsh 132", "eigvalsh 1"]),
    ("isotropic-d12-pt", INF, ["split", "eigvalsh 12", "eigvalsh 66"]),
    ("isotropic-d12-pt", GATE, ["split", "eigvalsh 12", "eigvalsh 66"]),
    ("isotropic-d16", INF, ["split", "eigvalsh 240", "eigvalsh 1"]),
    ("isotropic-d16", GATE, ["split", "eigvalsh 240", "eigvalsh 1"]),
    ("isotropic-d16-pt", INF, ["split", "eigvalsh 16", "eigvalsh 120"]),
    ("isotropic-d16-pt", GATE, ["split", "eigvalsh 16", "eigvalsh 120"]),
    ("path-d16", INF, ["one component", "eigvalsh 1"]),
    ("path-d16", GATE, ["one component", "certificate declines",
                        "factor 0/1", "eigvalsh 1"]),
    # the path, split off, is not labelled again
    ("path+diagonal-d8", INF, ["split", "eigvalsh 8", "eigvalsh 1"]),
    ("ginibre-d4", GATE, ["eigvalsh 1"]),
    ("ginibre-d16", INF, ["eigvalsh 1"]),
    ("ginibre-d16", 0.0, ["factor 1/1"]),
    ("ginibre-d16", GATE, ["certificate declines", "factor 1/1"]),
    ("rank4-d16", 0.0, ["factor 0/1", "eigvalsh 1"]),
    ("rank4-d16", GATE, ["certificate proves"]),
    ("rank20-d16", GATE, ["certificate declines", "factor 1/1"]),
    ("rank100-d16", GATE, ["certificate declines", "factor 1/1"]),
    ("set-d16", 0.0, ["factor 255/256", "eigvalsh 1"]),
    ("cap-d16", INF, ["eigvalsh 16", "factor 240/240"]),
]


@pytest.mark.parametrize(
    "kind, floor, routes", PROVER_ROUTES,
    ids=[f"{kind}@{floor:g}" for kind, floor, _ in PROVER_ROUTES])
def test_the_prover_takes_the_route_of_its_input(prover_routes, kind, floor,
                                                 routes):
    # and gives the value of a plain eigvalsh: bit for bit on the matrix
    # itself, to within its rounding where it splits the matrix
    stack = _route_input(kind)
    spectra = np.linalg.eigvalsh(stack)
    prover_routes.clear()
    got = states._lowest_eigenvalue(stack, floor)
    assert prover_routes == routes
    want = min(floor, float(spectra[:, 0].min()))
    if routes[0] == "split":
        assert abs(got - want) <= 1e-14 * np.abs(spectra).max()
    else:
        assert got.hex() == want.hex()
