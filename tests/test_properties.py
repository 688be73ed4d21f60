"""Property tests over drawn inputs, run with hypothesis."""

from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gsicdetect import (conjugate_gsic, construct_gsic,  # noqa: E402
                        gell_mann_basis, max_feasible_t, weyl_operator)
from gsicdetect.criteria import _Witness  # noqa: E402
from gsicdetect.states import _bell_mixture  # noqa: E402


@cache
def _witness(d: int, at_cap: bool) -> _Witness:
    basis = gell_mann_basis(d)
    p = construct_gsic(basis, max_feasible_t(basis) if at_cap else 1e-6)
    return _Witness(p, conjugate_gsic(p))


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
    w = _witness(d, at_cap)
    s = float(w.p.centred_norms @ w.q.centred_norms)
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
