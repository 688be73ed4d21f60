"""Property tests over drawn inputs, run with hypothesis."""

import collections
import contextlib
import dataclasses
import io
import json
import math
import tempfile
from functools import cache
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import (HealthCheck, example, given, settings,  # noqa: E402
                        strategies as st)
from hypothesis.extra import numpy as hnp  # noqa: E402

from gsicdetect import (INCONCLUSIVE, DensityMatrix, GsicSet,  # noqa: E402
                        conjugate_gsic, construct_gsic, detect_bipartite,
                        feasible_t, gell_mann_basis, j_multipartite,
                        isotropic, max_feasible_t, multipartite_bound,
                        partial_transpose, purity_from_t, random_separable,
                        read_gsic, read_state, validate_gsic, weyl_operator,
                        write_gsic)
from gsicdetect import errors, states  # noqa: E402
from gsicdetect.cli import main  # noqa: E402
from gsicdetect.criteria import SCAN_FAMILIES, _Witness  # noqa: E402
from gsicdetect.errors import (CAP_EIG_SLACK, HERM_TOL,  # noqa: E402
                               MAX_STEPS, PSD_TOL, hermiticity_deviation,
                               margin_error_bound)
from gsicdetect.gsic import _operators  # noqa: E402
from gsicdetect.oracle import brute_force_j, ppt_test  # noqa: E402
from gsicdetect.states import (_bell_mixture, _lowest_eigenvalue,  # noqa: E402
                               _read_head, _read_raw, _write_raw,
                               write_state)


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
    stand_in = SimpleNamespace(dim=d, kernel=k.T.ravel())
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


@settings(max_examples=150, deadline=None, database=None)
@given(d=st.sampled_from([2, 3, 4]), data=st.data(),
       seed=st.integers(0, 2**32 - 1), at_cap=st.booleans(),
       symmetric=st.booleans())
def test_the_same_pairing_never_flags_a_state(d, data, seed, at_cap,
                                              symmetric):
    # K = t^2 c^2 (SWAP - I/d) and the ceiling sits at SWAP's top
    # eigenvalue, so no state lies above it; a state of the symmetric
    # subspace, entangled or not, lies on it, with a margin of rounding
    p, _, _ = _pair(d, at_cap, False)
    n = d * d
    rank = data.draw(st.integers(1, n), label="rank")
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    if symmetric:
        z = z + z.reshape(d, d, rank).transpose(1, 0, 2).reshape(n, rank)
    mat = z @ z.conj().T
    mat = 0.5 * (mat + mat.conj().T)
    rho = DensityMatrix.from_matrix(mat / np.trace(mat).real, d, 2)
    assert detect_bipartite(rho, p, p).verdict == INCONCLUSIVE


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


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def _hermitian(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return z + z.conj().T


def _assert_lowest_matches_eigvalsh(h):
    # the prover on h alone at each floor of the package, whether it
    # splits h on its zero pattern or not
    spectrum = np.linalg.eigvalsh(h)
    scale = np.abs(spectrum).max()
    for floor in (np.inf, 0.0, -PSD_TOL):
        got = _lowest_eigenvalue(h[None], floor)
        assert abs(got - min(floor, spectrum[0])) <= 1e-14 * scale, floor


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
    # a zero in the first row sends h to the labelling, which finds one
    # component; one elsewhere does not
    h = _hermitian(np.random.default_rng(10 * i + j), 64)
    h[i, j] = h[j, i] = 0.0
    _assert_lowest_matches_eigvalsh(h)


@pytest.mark.parametrize("d", range(2, 7))
def test_min_eigenvalue_below_the_label_size_is_the_whole_spectrum(d):
    # a Bell mixture's partial transpose has d blocks, but below
    # LABEL_MIN_SIZE it goes to eigvalsh whole, bit for bit
    h = partial_transpose(isotropic(d, 0.3), 1)
    assert len(h) < states.LABEL_MIN_SIZE
    lowest = np.linalg.eigvalsh(h)[0]
    for floor in (np.inf, 0.0, -PSD_TOL):
        assert _bits(_lowest_eigenvalue(h[None], floor)) == _bits(
            min(floor, lowest))


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


@st.composite
def _zero_patterns(draw):
    """A matrix of order LABEL_MIN_SIZE to LABEL_MIN_SIZE + 24, complex or
    real, in C or Fortran order, whose nonzero entries are drawn: each
    off the diagonal stored below it, above it or on both sides, a
    diagonal entry or none, so that some indices stand alone, and, when
    connected, a path through all indices in a drawn order.  A complex
    entry is real, imaginary or both, and its zeros are +0 or -0 in each
    part.
    """
    n = draw(st.integers(states.LABEL_MIN_SIZE, states.LABEL_MIN_SIZE + 24),
             label="n")
    index = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(index, index, st.sampled_from(
        ["below", "above", "both"])), max_size=2 * n), label="edges")
    if draw(st.booleans(), label="connected"):
        order = draw(st.permutations(range(n)), label="order")
        edges += [(i, j, "above") for i, j in zip(order, order[1:])]
    diagonal = draw(st.lists(st.booleans(), min_size=n, max_size=n),
                    label="diagonal")
    real = draw(st.booleans(), label="real")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    zeros = rng.choice([0.0, -0.0], size=(n, n, 2))
    h = zeros[..., 0].copy() if real else zeros.view(complex)[..., 0]
    for i, j, side in edges:
        for r, c in {"below": [(max(i, j), min(i, j))],
                     "above": [(min(i, j), max(i, j))],
                     "both": [(i, j), (j, i)]}[side]:
            x, y = 1 + rng.random(2)
            h[r, c] = x if real else [x, 1j * y, x + 1j * y][rng.integers(3)]
    for i in np.flatnonzero(diagonal):
        h[i, i] = 1 + rng.random()
    return np.asfortranarray(h) if draw(st.booleans(), label="F") else h


def _reference_blocks(h: np.ndarray) -> list[list[int]]:
    """The components of h's zero pattern, made symmetric, each as its
    ascending indices, in the order of their smallest: a breadth-first
    search in plain Python."""
    n = len(h)
    neighbours = [set() for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if h[i, j] != 0:
                neighbours[i].add(j)
                neighbours[j].add(i)
    seen, components = set(), []
    for start in range(n):
        if start in seen:
            continue
        seen.add(start)
        queue, component = collections.deque([start]), []
        while queue:
            i = queue.popleft()
            component.append(i)
            for j in neighbours[i] - seen:
                seen.add(j)
                queue.append(j)
        components.append(sorted(component))
    return components


@settings(max_examples=100, deadline=None, database=None)
@given(h=_zero_patterns())
@example(h=np.ones((states.LABEL_MIN_SIZE, states.LABEL_MIN_SIZE)))
@example(h=np.diag(np.ones(states.LABEL_MIN_SIZE, dtype=complex)))
def test_blocks_are_the_components_of_a_plain_search(h):
    # _blocks gives one stack per block size, ascending, each holding its
    # blocks in the order of their smallest index, bit for bit h's entries
    # at the component's indices; one component gives None
    components = _reference_blocks(h)
    got = states._blocks(h)
    if len(components) == 1:
        assert got is None
        return
    sizes = sorted({len(c) for c in components})
    want = [np.array([h[np.ix_(c, c)] for c in components if len(c) == size])
            for size in sizes]
    got = list(got)
    assert [b.shape for b in got] == [b.shape for b in want]
    assert all(b.dtype == h.dtype for b in got)
    assert [b.tobytes() for b in got] == [b.tobytes() for b in want]


@st.composite
def _dense_two_qudit_states(draw):
    """A dense two-qudit state at d in {8, 9, 10, 12, 16}, exactly Hermitian
    or not.

    Kinds: a separable state of 1..6 product terms, whose partial
    transpose is PSD of low rank; a Ginibre state, strongly NPT; its
    mixture with I/n whose partial transpose has its lowest eigenvalue
    at -10**(-9..-3) (weakly NPT) or at -PSD_TOL (1 +- 1e-2); a matrix
    whose partial transpose is one of _low_rank_matrix, at d in {8, 9,
    12, 16}.  Then, sometimes, an entrywise perturbation of up to
    HERM_TOL that leaves it off Hermitian.
    """
    kind = draw(st.sampled_from(["separable", "strong", "weak", "planted",
                                 "low-rank"]), label="kind")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    if kind == "low-rank":
        pt = _low_rank_matrix(draw, rng)
        d = math.isqrt(len(pt))
        # the partial transpose is its own inverse, exactly
        mat = partial_transpose(
            DensityMatrix(local_dim=d, parties=2, matrix=pt), 1)
    elif kind == "separable":
        d = draw(st.sampled_from([10, 12, 16]), label="d")
        mat = random_separable(d, 2, int(rng.integers(1, 7)), seed).matrix
    else:
        d = draw(st.sampled_from([10, 12, 16]), label="d")
        z = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(
            size=(d * d, d * d))
        mat = z @ z.conj().T
        mat = 0.5 * (mat + mat.conj().T)
        mat /= np.trace(mat).real
    n = d * d
    if kind in ("weak", "planted"):
        # the partial transpose is affine in the state, so mixing with I/n
        # moves its lowest eigenvalue from the Ginibre one to the target
        lowest = np.linalg.eigvalsh(partial_transpose(
            DensityMatrix(local_dim=d, parties=2, matrix=mat), 1))[0]
        if kind == "weak":
            target = -10.0 ** draw(st.floats(-9, -3), label="exponent")
        else:
            target = -PSD_TOL * (1 + draw(st.sampled_from([-1e-2, 1e-2])))
        p = (1 / n - target) / (1 / n - lowest)
        mat = (1 - p) * np.eye(n) / n + p * mat
    if draw(st.booleans(), label="off-Hermitian"):
        # entries of modulus below HERM_TOL / 2, so |m - m^H| < HERM_TOL
        mat = mat + HERM_TOL / 3 * rng.uniform(-1, 1, size=(n, n, 2)) @ [1, 1j]
    return DensityMatrix(local_dim=d, parties=2, matrix=mat)


def _weakly_npt_d16() -> DensityMatrix:
    """A rank-4 separable d = 16 state mixed with 1e-3 |phi+><phi+|: NPT at
    about -6e-5, which the Ritz certificate settles."""
    phi = np.eye(16).ravel() / 4.0
    mat = ((1 - 1e-3) * random_separable(16, 2, 4, seed=7).matrix
           + 1e-3 * np.outer(phi, phi))
    return DensityMatrix(local_dim=16, parties=2, matrix=mat)


def _off_hermitian_low_rank(d: int) -> DensityMatrix:
    """A separable state of 4 product terms whose partial transpose has one
    entry above its diagonal moved by 1e-12: not exactly Hermitian, and of
    rank 4 as its lower triangle, the one eigvalsh reads, gives it."""
    pt = partial_transpose(random_separable(d, 2, 4, seed=d), 1).copy()
    pt[0, d + 1] += 1e-12
    # the partial transpose is its own inverse, exactly
    return DensityMatrix(local_dim=d, parties=2, matrix=partial_transpose(
        DensityMatrix(local_dim=d, parties=2, matrix=pt), 1))


@settings(max_examples=60, deadline=None, database=None)
@given(rho=_dense_two_qudit_states())
@example(rho=_weakly_npt_d16())
@example(rho=_off_hermitian_low_rank(8))
@example(rho=_off_hermitian_low_rank(16))
def test_ppt_test_decides_as_a_plain_eigvalsh(rho):
    # whether a certificate, the proof or the spectrum decided, npt is
    # the plain rule and min_eigenvalue the plain value, bit for bit
    res = ppt_test(rho)
    plain = np.linalg.eigvalsh(partial_transpose(rho, 1))[0]
    assert res.npt == (plain < -PSD_TOL), plain
    assert _bits(res.min_eigenvalue) == _bits(plain)


@st.composite
def _hermitian_stacks(draw):
    """A stack of 1..40 Hermitian matrices of order 2..16, float64 or
    complex128, PSD, rank-deficient or indefinite, some of them, at
    random positions, with their lowest eigenvalue set to 0, +-1e-17,
    1e-13 or 1e-9 times the scale, which a factor at floor 0 can seldom
    prove, sometimes junk above the diagonal, which eigvalsh does not
    read, and in C order, Fortran order or a strided view.  One in five
    is a lone matrix, which _lowest_eigenvalue proves as a slab of one,
    one in five a lone matrix with a mirrored pair of zeros in its first
    row and column, below the order it splits on a zero pattern, and one
    in five a lone matrix of _low_rank_matrix, the shape of its low-rank
    certificate."""
    shape = draw(st.sampled_from(["stack", "stack", "lone", "sparse",
                                  "low-rank"]))
    junk = draw(st.booleans(), label="junk")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if shape == "low-rank":
        stack, scale = _low_rank_matrix(draw, rng)[None], 1.0
        n = stack.shape[-1]
    else:
        m = draw(st.integers(1, 40), label="m") if shape == "stack" else 1
        n = draw(st.integers(2, 16), label="n")
        real = draw(st.booleans(), label="real")
        kind = draw(st.sampled_from(["psd", "rank-deficient", "indefinite"]))
        target = draw(st.sampled_from([0.0, 1e-17, -1e-17, 1e-13, 1e-9]))
        scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
        z = rng.normal(size=(m, n, n))
        if not real:
            z = z + 1j * rng.normal(size=(m, n, n))
        vecs = np.linalg.qr(z)[0]
        if kind == "indefinite":
            w = rng.normal(size=(m, n))
        else:
            w = rng.uniform(0.1, 1.0, size=(m, n))
            if kind == "rank-deficient":
                w[:, :n // 2] = 0.0
        w[rng.choice(m, size=draw(st.integers(1, m), label="targets"),
                     replace=False), 0] = target
        w = np.sort(w, axis=1) * scale
        stack = (vecs * w[:, None, :]) @ np.swapaxes(vecs, 1, 2).conj()
    if junk:
        upper = np.triu_indices(n, 1)
        stack[:, upper[0], upper[1]] += scale * rng.normal(size=len(upper[0]))
    if shape == "sparse":
        j = draw(st.integers(1, n - 1), label="zero")
        stack[0, 0, j] = stack[0, j, 0] = 0.0
    layout = draw(st.sampled_from(["C", "F", "strided"]), label="layout")
    if layout == "F":
        return np.asfortranarray(stack)
    if layout == "strided":
        # every other matrix of a stack twice as long, with both axes reversed
        # and restored, so that no axis is contiguous
        doubled = np.repeat(stack[:, ::-1, ::-1], 2, axis=0)
        return doubled[::2, ::-1, ::-1]
    return stack


def _low_rank_matrix(draw, rng) -> np.ndarray:
    """An exactly Hermitian trace-one matrix of order 64, 81, 144 or 256
    and rank 1 to past the step cap n // LOW_RANK_STEP_ORDER, from n // 4,
    where the leading-quarter probe at 0 starts to pass, or n - 1,
    float64 or complex128, with one more eigenvalue planted at -PSD_TOL
    (1 +- 1e-3), at +-1e-12 or at 0: the shape of the low-rank
    certificate, and of the factor that proves a singular matrix past
    it, decided next to its floor."""
    n = draw(st.sampled_from([64, 81, 144, 256]), label="n")
    cap = n // states.LOW_RANK_STEP_ORDER
    rank = draw(st.one_of(st.integers(1, cap + 4),
                          st.integers(n // 4, n // 4 + 4), st.just(n - 1)),
                label="rank")
    planted = draw(st.sampled_from([-PSD_TOL * (1 + 1e-3),
                                    -PSD_TOL * (1 - 1e-3), 1e-12, -1e-12,
                                    0.0]), label="planted")
    real = draw(st.booleans(), label="real")
    z = rng.normal(size=(n, rank + 1))
    if not real:
        z = z + 1j * rng.normal(size=(n, rank + 1))
    vecs = np.linalg.qr(z)[0]
    w = rng.uniform(0.1, 1.0, size=rank + 1)
    w /= w[:rank].sum()
    w[rank] = planted
    mat = (vecs * w) @ vecs.conj().T
    return 0.5 * (mat + mat.conj().T)


# drawn stacks are too small to reach the factors at the package's
# threshold unless it is lifted, so half the examples lift it; small
# slabs and chunks make the factors cross slab boundaries and leave more
# of a stack to prove at floor +inf, and a probe size of 4 sends a drawn
# lone matrix of order 4 or more at a floor below 0 to the low-rank
# certificate and its leading-quarter probe
@settings(max_examples=300, deadline=None, database=None)
@given(stack=_hermitian_stacks(),
       floor_kind=st.sampled_from(["0", "inf", "min-ulp", "min+ulp",
                                   "-PSD_TOL"]),
       every_stack=st.booleans(),
       slab=st.sampled_from([1, 3, states.PROOF_SLAB]),
       chunk=st.sampled_from([1, 5, states.PROOF_CHUNK]),
       probe=st.sampled_from([4, states.PROBE_MIN_SIZE]))
def test_lowest_eigenvalue_is_bit_for_bit_the_eigvalsh_minimum(
        stack, floor_kind, every_stack, slab, chunk, probe):
    lowest = float(np.linalg.eigvalsh(stack)[:, 0].min())
    floor = {"0": 0.0, "inf": np.inf,
             "min-ulp": np.nextafter(lowest, -np.inf),
             "min+ulp": np.nextafter(lowest, np.inf),
             "-PSD_TOL": -PSD_TOL}[floor_kind]
    threshold = 0 if every_stack else states.PROOF_MIN_ENTRIES
    with (patch.object(states, "PROOF_MIN_ENTRIES", threshold),
          patch.object(states, "PROOF_SLAB", slab),
          patch.object(states, "PROOF_CHUNK", chunk),
          patch.object(states, "PROBE_MIN_SIZE", probe)):
        got = _lowest_eigenvalue(stack, floor)
    _assert_decides_as_eigvalsh(got, floor, lowest)


def _assert_decides_as_eigvalsh(got, floor, lowest):
    # the one contract, at every floor
    assert _bits(got) == _bits(min(floor, lowest)), (got, floor, lowest)


# the low-rank certificate at the floor of from_matrix and ppt_test, with
# a step cap of n // 4, n // 16 or n // 64, so that more or fewer ranks
# lie past it, and strips of 1, 3 or PROOF_SLAB rows
@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data(),
       order=st.sampled_from([4, states.LOW_RANK_STEP_ORDER, 64]),
       slab=st.sampled_from([1, 3, states.PROOF_SLAB]))
def test_lowest_eigenvalue_of_a_low_rank_matrix_decides_as_eigvalsh(
        data, order, slab):
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    mat = _low_rank_matrix(data.draw, np.random.default_rng(seed))
    lowest = float(np.linalg.eigvalsh(mat)[0])
    with (patch.object(states, "LOW_RANK_STEP_ORDER", order),
          patch.object(states, "PROOF_SLAB", slab)):
        got = _lowest_eigenvalue(mat[None], -PSD_TOL)
    _assert_decides_as_eigvalsh(got, -PSD_TOL, lowest)


def _spectrum_cap(basis) -> float:
    # feasible_t with the batched eigvalsh of every direction
    d = basis.dim
    directions = _operators(basis, 1.0)
    directions -= np.eye(d) / d**2
    lam = float(np.linalg.eigvalsh(directions)[:, 0].min())
    t_purity = (d * (d + 1.0)) ** -1.5
    if 1.0 / d**2 + t_purity * lam >= -CAP_EIG_SLACK:
        return t_purity
    return 1.0 / (d * d * abs(lam))


def _at_every_gell_mann_cap(test):
    """test with the Gell-Mann set at its cap for every d from 3 to 16 as
    explicit examples, which run on every call."""
    for d in range(3, 17):
        test = example(d=d, rotated=False, stretch=1.0)(test)
    return test


@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(d=st.integers(2, 16), rotated=st.booleans(),
       stretch=st.sampled_from([0.0, 1e-6, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-14,
                                1.0 + 1e-9]))
@_at_every_gell_mann_cap
def test_cap_and_psd_deviation_match_the_whole_spectrum(rotated_basis, d,
                                                       rotated, stretch):
    basis = rotated_basis(d) if rotated else gell_mann_basis(d)
    cap = feasible_t(basis).t
    assert _bits(cap) == _bits(_spectrum_cap(basis))
    # the operators at stretch * cap, built as construct_gsic would, so
    # that a stretch above 1 reaches validate_gsic too
    t = stretch * cap
    ops = _operators(basis, t)
    g = GsicSet(dim=d, t=t, a=purity_from_t(d, t), operators=ops,
                basis_id=basis.basis_id)
    dev = validate_gsic(g).deviations
    assert _bits(dev["psd"]) == _bits(
        d * d * max(0.0, -np.linalg.eigvalsh(ops)[:, 0].min()))


@settings(max_examples=60, deadline=None, database=None)
@given(d=st.integers(2, 8), rank=st.integers(1, 64),
       nudge=st.sampled_from([0.0, -1e-13, 1e-12]),
       seed=st.integers(0, 2**32 - 1))
def test_from_matrix_deviation_matches_the_whole_spectrum(d, rank, nudge,
                                                         seed):
    # dense two-qudit states of any rank, the lowest eigenvalue sometimes
    # nudged just below or above 0
    n = d * d
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, min(rank, n))) + 1j * rng.normal(
        size=(n, min(rank, n)))
    mat = z @ z.conj().T
    if nudge:
        w, v = np.linalg.eigh(mat)
        w[0] = nudge * w[-1]
        mat = (v * w) @ v.conj().T
    mat /= np.trace(mat).real
    rho = DensityMatrix.from_matrix(mat, d, 2)
    h = 0.5 * mat + 0.5 * mat.conj().T
    plain = (abs(np.trace(mat) - 1.0)
             + 2.0 * n * max(0.0, -np.linalg.eigvalsh(h)[0]))
    assert _bits(rho.deviation) == _bits(plain)


@cache
def _cap(d: int) -> float:
    return feasible_t(gell_mann_basis(d)).t


# valid dimensions stay at or below 3, so that every example is fast
@settings(max_examples=150, deadline=None, database=None)
@given(family=st.sampled_from([*SCAN_FAMILIES, "junk", "", "ISOTROPIC"]),
       dim=st.sampled_from([-1, 0, 1, 2, 3, 65, 10**6]),
       t=st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-9", "cap",
                          "2cap", "max"]),
       steps=st.sampled_from([-1, 9, 10, 40, MAX_STEPS + 1, 10**12]))
def test_scan_exits_only_with_0_2_or_3_and_no_traceback(
        tmp_path_factory, family, dim, t, steps):
    cap = _cap(dim if dim in (2, 3) else 2)
    t_arg = {"max": ["--max-t"], "cap": [f"--t={cap!r}"],
             "2cap": [f"--t={2 * cap!r}"]}.get(t, [f"--t={t}"])
    csv = tmp_path_factory.getbasetemp() / "fuzz.csv"
    csv.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            rc = main(["scan", f"--family={family}", f"--dim={dim}", *t_arg,
                       f"--steps={steps}", f"--csv={csv}"])
        except SystemExit as exc:  # argparse refuses a usage error
            rc = exc.code
    assert rc in (0, 2, 3), (rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if rc == 0:
        assert len(csv.read_text().splitlines()) == steps + 3


# every finite float64: drawn ones, and -0.0, the smallest subnormal,
# the largest one and values near the float range's ends
_finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7e308,
                     -1.7e308, np.finfo(float).max]))


@settings(max_examples=150, deadline=None, database=None)
@given(parts=hnp.arrays(np.float64,
                        hnp.array_shapes(min_dims=1, max_dims=3, min_side=0,
                                         max_side=5).map(lambda s: s + (2,)),
                        elements=_finite_floats))
def test_json_round_trip_is_bit_exact(tmp_path_factory, parts):
    # the raw file, as written and as read
    z = parts.view(np.complex128)[..., 0]
    path = tmp_path_factory.getbasetemp() / "round-trip.json"
    fields = {"local_dim": 2, "parties": 1}
    _write_raw(path, fields, z)
    head = json.dumps({"encoding": "c16le-raw", **fields}).encode() + b"\n"
    assert path.read_bytes() == head + z.astype("<c16").tobytes()
    with open(path, "rb") as f:
        assert _read_head(f) == {"encoding": "c16le-raw", **fields}
        got = _read_raw(f, z.size)
    assert got.dtype == np.complex128 and got.shape == (z.size,)
    assert got.tobytes() == z.tobytes() and got.flags.writeable


def test_from_matrix_takes_an_exactly_hermitian_matrix_as_it_is():
    # an exactly Hermitian dense state with -0.0 and subnormal entries,
    # where 0.5 mat + 0.5 mat^H would round: the deviation is the one
    # read off the spectrum of mat itself
    d = 8
    n = d * d
    rng = np.random.default_rng(8)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    mat = z @ z.conj().T + n * np.eye(n)
    mat = mat + mat.conj().T
    mat /= np.trace(mat).real
    mat[0, 1], mat[1, 0] = complex(5e-324, -5e-324), complex(5e-324, 5e-324)
    mat[2, 3], mat[3, 2] = complex(-0.0, 3e-320), complex(0.0, -3e-320)
    mat[4, 5], mat[5, 4] = complex(-0.0, -0.0), complex(0.0, 0.0)
    assert hermiticity_deviation(mat) == 0.0
    halves = 0.5 * mat + 0.5 * mat.conj().T
    assert halves.tobytes() != mat.tobytes()
    rho = DensityMatrix.from_matrix(mat, d, 2)
    plain = (abs(np.trace(mat) - 1.0)
             + 2.0 * n * max(0.0, -np.linalg.eigvalsh(mat)[0]))
    assert _bits(rho.deviation) == _bits(plain)
    assert rho.matrix is mat


_SPECIAL = [0.0, -0.0, 1.0, -1.0, 5e-324, np.inf, -np.inf, np.nan]


@settings(max_examples=300, deadline=None, database=None)
@given(shape=st.sampled_from([(1, 1), (3, 3), (4, 2, 2), (5, 3, 3)]),
       mirror=st.booleans(), chunk=st.sampled_from([1, 130, 300, 1 << 17]),
       data=st.data())
def test_hermiticity_deviation_answers_as_array_equal(shape, mirror, chunk,
                                                       data):
    # entries drawn from NaN, +-inf, +-0, a subnormal and +-1, sometimes
    # mirrored into an exactly Hermitian stack, and M^H conjugated one,
    # two or all leading indices at a time
    parts = data.draw(hnp.arrays(np.float64, shape + (2,),
                                 elements=st.sampled_from(_SPECIAL)))
    m = parts.view(complex)[..., 0]
    if mirror:
        lower = np.tril(np.ones(shape[-2:], dtype=bool), -1)
        mt = np.swapaxes(m, -1, -2).conj()
        m = np.where(lower, mt, m)
        diag = np.einsum("...ii->...i", m)
        diag.imag = np.where(data.draw(st.booleans()), -0.0, 0.0)
    mh = np.swapaxes(m, -1, -2).conj()
    with patch.object(errors, "HERM_CHUNK_BYTES", chunk):
        got = hermiticity_deviation(m)
    if np.array_equal(m, mh):
        assert _bits(got) == _bits(0.0)
    else:  # any NaN, whatever its sign bit, or the same float
        with np.errstate(invalid="ignore"):  # inf - inf reads NaN
            want = float(np.abs(m - mh).max())
        assert np.isnan(got) if np.isnan(want) else _bits(got) == _bits(want)


def _state_file(path, d: int, variant: str, at: int, byte: int) -> str:
    """A tagged file of a two-qudit state of local dimension d: whole, cut
    at byte `at`, or with that byte replaced by `byte`."""
    write_state(random_separable(d, 2, 3, seed=d), path)
    raw = path.read_bytes()
    at %= len(raw)
    if variant == "truncated":
        raw = raw[:at]
    elif variant == "corrupted":
        raw = raw[:at] + bytes([byte]) + raw[at + 1:]
    path.write_bytes(raw)
    return f"@{path}"


_WEIGHTS = ['{"0,0": 1.0}', '{"0,0": 0.5, "1,1": 0.5}', '{"0,0": null}',
            '{"9,9": 1}', '{"0,0": -1, "1,1": 2}', '{"a": 1}', "[]",
            "not json", '{"0,0": ' + "[" * 100000 + "]" * 100000 + "}"]


# valid dimensions stay at or below 3, so that every example is fast
@settings(max_examples=200, deadline=None, database=None)
@given(family=st.sampled_from(["maxent", "isotropic", "belldiag", "diagmix",
                               "file", "junk"]),
       dim=st.sampled_from([-1, 0, 1, 2, 3, 65, 10**6]),
       x=st.sampled_from(["0", "0.3", "1", "1.5", "-0.1", "nan", "inf", "x"]),
       weights=st.sampled_from(_WEIGHTS),
       variant=st.sampled_from(["valid", "truncated", "corrupted"]),
       at=st.integers(0, 2**16), byte=st.integers(0, 255),
       t=st.sampled_from(["none", "nan", "inf", "-1", "0", "1e-9", "cap",
                          "2cap", "max"]),
       dim_flag=st.sampled_from([None, 0, 2, 3]),
       pairing=st.sampled_from(["conj", "same", "other"]),
       as_json=st.booleans())
def test_detect_exits_only_with_0_2_or_3_and_no_traceback(
        tmp_path_factory, family, dim, x, weights, variant, at, byte, t,
        dim_flag, pairing, as_json):
    base = tmp_path_factory.getbasetemp()
    if family == "file":
        d = dim if dim in (2, 3) else 2
        spec = f"file:{_state_file(base / 'rho.json', d, variant, at, byte)}"
    elif family == "belldiag":
        (base / "w.json").write_text(weights)
        spec = f"belldiag:{dim}:@{base / 'w.json'}"
    elif family in ("isotropic", "diagmix"):
        spec = f"{family}:{dim}:{x}"
    else:
        spec = f"{family}:{dim}"
    cap = _cap(dim if dim in (2, 3) else 2)
    t_arg = {"none": [], "max": ["--max-t"], "cap": [f"--t={cap!r}"],
             "2cap": [f"--t={2 * cap!r}"]}.get(t, [f"--t={t}"])
    argv = ["detect", f"--state={spec}", *t_arg, f"--pairing={pairing}"]
    if dim_flag is not None:
        argv.append(f"--dim={dim_flag}")
    if as_json:
        argv.append("--json")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse refuses a usage error
            rc = exc.code
    assert rc in (0, 2, 3), (rc, err.getvalue())
    assert "Traceback" not in err.getvalue()


def _reading(read, path) -> tuple:
    """Everything read from path, bit for bit, or the error raised."""
    try:
        got = read(path)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc), str(exc)
    fields = dataclasses.asdict(got)
    return tuple((name, value.dtype, value.shape, value.tobytes())
                 if isinstance(value, np.ndarray)
                 else (name, _bits(value)) if isinstance(value, float)
                 else (name, value) for name, value in fields.items())


@cache
def _canonical_file(kind: str, d: int) -> bytes:
    """The bytes write_gsic or write_state writes for a small set or state."""
    path = Path(tempfile.mkdtemp()) / "f.json"
    if kind == "set":
        basis = gell_mann_basis(d)
        write_gsic(construct_gsic(basis, feasible_t(basis).t), path)
    else:
        write_state(random_separable(d, 2, 3, seed=d), path)
    raw = path.read_bytes()
    path.unlink()
    path.parent.rmdir()
    return raw


def _variant(raw: bytes, kind: str) -> bytes:
    """raw, a canonical raw file, with its payload's bytes after a head of
    the same value spelt otherwise."""
    line, payload = raw.split(b"\n", 1)
    head = json.loads(line)
    if kind == "raw-compact":
        return json.dumps(head, separators=(",", ":")).encode() + b"\n" + payload
    return json.dumps(dict(reversed(head.items()))).encode() + b"\n" + payload


@settings(max_examples=100, deadline=None, database=None)
@given(kind=st.sampled_from(["set", "state"]), d=st.sampled_from([2, 3, 8]),
       variant=st.sampled_from(["raw-compact", "raw-reordered"]))
@example(kind="set", d=16, variant="raw-reordered")
def test_reading_a_file_matches_the_whole_json_parse(tmp_path_factory, kind,
                                                     d, variant):
    # a raw file whose head is spelt otherwise reads the same arrays,
    # deviation and fields bit for bit as the file as written
    read = read_gsic if kind == "set" else read_state
    raw = _canonical_file(kind, d)
    path = tmp_path_factory.getbasetemp() / f"{kind}.json"
    path.write_bytes(raw)
    want = _reading(read, path)
    path.write_bytes(_variant(raw, variant))
    assert _reading(read, path) == want
    assert not isinstance(want[0], type)
