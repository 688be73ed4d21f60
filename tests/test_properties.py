"""Property tests over drawn inputs, run with hypothesis."""

from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import (HealthCheck, given, settings,  # noqa: E402
                        strategies as st)

from gsicdetect import (INCONCLUSIVE, DensityMatrix,  # noqa: E402
                        conjugate_gsic, construct_gsic, detect_bipartite,
                        feasible_t, gell_mann_basis, j_multipartite,
                        max_feasible_t, multipartite_bound, random_separable,
                        validate_gsic, weyl_operator)
from gsicdetect.criteria import _Witness  # noqa: E402
from gsicdetect.errors import margin_error_bound  # noqa: E402
from gsicdetect.oracle import brute_force_j  # noqa: E402
from gsicdetect.states import _bell_mixture, _min_eigenvalue  # noqa: E402


@cache
def _witness(d: int, at_cap: bool) -> tuple[_Witness, float]:
    """The witness of a set and its conjugate, and the pair's scale S."""
    basis = gell_mann_basis(d)
    p = construct_gsic(basis, max_feasible_t(basis) if at_cap else 1e-6)
    q = conjugate_gsic(p)
    return _Witness(p, q), float(p.centred_norms @ q.centred_norms)


@st.composite
def _weight_tables(draw):
    """A (d, d) table of nonnegative weights summing to 1, d in 2..8.

    Each weight is -log(u) for a drawn u in (0, 1], normalised: a
    Dirichlet(1, ..., 1) draw, with exact zeros where u = 1.
    """
    d = draw(st.integers(2, 8))
    u = draw(st.lists(st.floats(1e-300, 1.0), min_size=d * d,
                      max_size=d * d))
    w = -np.log(np.array(u))
    hypothesis.assume(w.sum() > 0)
    return (w / w.sum()).reshape(d, d)


@settings(max_examples=150, deadline=None, database=None)
@given(table=_weight_tables(), at_cap=st.booleans())
def test_bell_table_gives_the_trace_of_every_bell_mixture(table, at_cap):
    # W . B, with B the witness's Bell table, against the dense
    # Tr(K rho) of the mixture built from W
    d = len(table)
    w, s = _witness(d, at_cap)
    dense = w.trace(_bell_mixture(table, ""))
    assert abs(float(table.ravel() @ w.bell_table().ravel()) - dense) <= (
        np.finfo(float).eps * s)


@settings(max_examples=60, deadline=None, database=None)
@given(d=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_bell_table_is_the_bell_diagonal_of_any_hermitian_kernel(d, seed):
    # a measurement pair's K is symmetric under s -> -s on the Bell labels,
    # which hides the sign of the DFT; a random Hermitian K does not
    rng = np.random.default_rng(seed)
    k = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    k = k + k.conj().T
    stand_in = SimpleNamespace(p=SimpleNamespace(dim=d), kernel=k.T.ravel())
    got = _Witness.bell_table(stand_in)
    phi = np.eye(d).ravel() / np.sqrt(d)
    for s in range(d):
        for t in range(d):
            vec = np.kron(weyl_operator(d, s, t), np.eye(d)) @ phi
            want = np.vdot(vec, k @ vec).real
            assert abs(got[s, t] - want) <= 1e-13 * np.abs(k).sum(), (s, t)


# the rotated_basis fixture is a pure factory, so sharing it across the
# drawn examples of one test is safe
@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(d=st.integers(2, 6), rotated=st.booleans(), data=st.data())
def test_every_t_up_to_the_cap_builds_a_valid_set(rotated_basis, d, rotated,
                                                  data):
    basis = rotated_basis(d) if rotated else gell_mann_basis(d)
    t = data.draw(st.floats(0.0, feasible_t(basis).t), label="t")
    outcome = validate_gsic(construct_gsic(basis, t))
    assert outcome.passed, outcome.deviations


@cache
def _pair(d: int, at_cap: bool, conj: bool):
    """A Gell-Mann set at the cap or at t = 1e-6, paired with its conjugate
    or with itself, and the pair's E."""
    basis = gell_mann_basis(d)
    p = construct_gsic(basis, max_feasible_t(basis) if at_cap else 1e-6)
    q = conjugate_gsic(p) if conj else p
    return p, q, margin_error_bound(p, q)


@settings(max_examples=150, deadline=None, database=None)
@given(d=st.sampled_from([2, 3, 4]), terms=st.integers(1, 9),
       seed=st.integers(0, 2**32 - 1), at_cap=st.booleans(),
       conj=st.booleans())
def test_random_separable_states_are_never_flagged(d, terms, seed, at_cap,
                                                   conj):
    p, q, e = _pair(d, at_cap, conj)
    report = detect_bipartite(random_separable(d, 2, terms, seed), p, q)
    assert report.verdict == INCONCLUSIVE
    assert report.margin <= e, (report.margin, e)


@st.composite
def _party_sets(draw):
    """d in {2, 3}, N in 2..5 (so d**N <= 243), and per party a set at a
    drawn t in [0, cap], conjugated or not."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 5))
    basis = gell_mann_basis(d)
    cap = max_feasible_t(basis)
    sets = []
    for _ in range(n):
        g = construct_gsic(basis, draw(st.floats(0.0, cap)))
        sets.append(conjugate_gsic(g) if draw(st.booleans()) else g)
    return d, sets


@settings(max_examples=40, deadline=None, database=None)
@given(drawn=_party_sets(), separable=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_j_multipartite_matches_brute_force_on_any_set_tuple(drawn, separable,
                                                            seed):
    d, sets = drawn
    n = len(sets)
    if separable:
        rho = random_separable(d, n, 4, seed=seed)
    else:
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(d ** n,) * 2) + 1j * rng.normal(size=(d ** n,) * 2)
        mat = z @ z.conj().T
        rho = DensityMatrix.from_matrix(mat / np.trace(mat).real, d, n)
    got = j_multipartite(rho, sets)
    want = brute_force_j(rho, sets)
    assert abs(got - want) <= 1e-12 * abs(want)
    if separable:
        # all sets at t = 0 and N = 2 put every state on the bound
        bound = multipartite_bound(d, [g.a for g in sets])
        assert got <= bound * (1 + 1e-12)


def _hermitian(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return z + z.conj().T


def _assert_lowest_matches_eigvalsh(h):
    spectrum = np.linalg.eigvalsh(h)
    scale = np.abs(spectrum).max()
    assert abs(_min_eigenvalue(h) - spectrum[0]) <= 1e-14 * scale


@settings(max_examples=150, deadline=None, database=None)
@given(sizes=st.lists(st.integers(1, 8), min_size=1, max_size=12),
       couple=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_min_eigenvalue_of_a_permuted_block_diagonal_matrix(sizes, couple,
                                                             seed):
    # blocks of sizes 1..8 with rows and columns permuted alike, and
    # sometimes one entry that joins two of them
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    h = np.zeros((n, n), dtype=complex)
    ends = np.cumsum(sizes)
    for end, size in zip(ends, sizes):
        h[end - size:end, end - size:end] = _hermitian(rng, size)
    if couple and len(sizes) > 1:
        i = rng.integers(ends[0])
        j = rng.integers(ends[0], n)
        h[i, j] = complex(*rng.normal(size=2))
        h[j, i] = h[i, j].conjugate()
    perm = rng.permutation(n)
    _assert_lowest_matches_eigvalsh(h[perm][:, perm])


@pytest.mark.parametrize("i, j", [(0, 5), (3, 7)])
def test_min_eigenvalue_of_a_dense_matrix_with_one_zero(i, j):
    # a zero in the first row skips the dense-row exit; one elsewhere takes it
    h = _hermitian(np.random.default_rng(10 * i + j), 16)
    h[i, j] = h[j, i] = 0.0
    _assert_lowest_matches_eigvalsh(h)


def test_min_eigenvalue_of_a_permuted_path():
    # a tridiagonal pattern, permuted: one component that the labelling
    # reaches only through long chains of neighbours
    rng = np.random.default_rng(256)
    n = 256
    h = np.diag(rng.normal(size=n)).astype(complex)
    off = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
    h += np.diag(off, 1) + np.diag(off.conj(), -1)
    perm = rng.permutation(n)
    _assert_lowest_matches_eigvalsh(h[perm][:, perm])
