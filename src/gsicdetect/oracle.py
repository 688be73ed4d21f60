"""Cross-checks for the detection machinery.

brute_force_j avoids the optimized code paths: the correlation sum is
reassembled from explicit Kronecker products.  ppt_test certifies
entanglement through the partial transpose alone, by the sign of its
smallest eigenvalue, which it and PptResult.min_eigenvalue read from
the positivity prover of DensityMatrix.from_matrix,
states._lowest_eigenvalue.  On a dense partial transpose of order
states.PROBE_MIN_SIZE or more the prover's low-rank certificate is
tried first, then an NPT certificate, the Rayleigh quotient of a Ritz
vector from a Lanczos walk that stops once its lowest Ritz value would
pass, and only what both leave open goes to the rest of the prover,
which does not try the first again.  What keeps the decision
independent of that shared code is
tests/test_properties.py::test_ppt_test_decides_as_a_plain_eigvalsh,
which holds npt and min_eigenvalue to a plain eigvalsh, bit for bit, on
dense states, and tests/test_oracle.py, to within 1e-14 on Bell
mixtures, whose split on their zero pattern
tests/test_properties.py::test_blocks_are_the_components_of_a_plain_search
holds to a plain breadth-first search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property, reduce

import numpy as np

from . import states
from .errors import (IMAG_TOL, PSD_TOL, check_measurements,
                     hermiticity_deviation, require_real,
                     ritz_certificate_slack)
from .gsic import GsicSet
from .states import DensityMatrix, _lowest_eigenvalue, partial_transpose

# Most Lanczos steps behind the NPT certificate's Ritz vector: the walk
# stops at the first step whose lowest Ritz value passes the certificate's
# test.  At d = 16 each step takes about 40 us.  A Ginibre state, whose
# lowest eigenvalue is near -4e-3, passes after 2 or 3 steps (30 of 30 at
# each of d = 8, 12 and 16), but its mixture with I/n brought to a lowest
# eigenvalue of -1e-4 needs 9 to 14: 10 certified 3 of 6, 16 all 6.
LANCZOS_STEPS = 10


@dataclass(frozen=True, eq=False)
class PptResult:
    """Partial-transpose verdict on a two-party state rho.

    npt is True when eigvalsh would put the smallest eigenvalue of rho's
    partial transpose below -PSD_TOL, which certifies entanglement.
    min_eigenvalue, that eigenvalue, is taken on first access and kept,
    unless ppt_test took it already.
    """

    rho: DensityMatrix = field(repr=False)
    npt: bool

    @cached_property
    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the partial transpose, at floor +inf."""
        return _lowest_eigenvalue(partial_transpose(self.rho, 1)[None], np.inf)


def ppt_test(rho: DensityMatrix) -> PptResult:
    """Partial-transpose check of a bipartite state.

    npt is min_eigenvalue < -PSD_TOL, with min_eigenvalue that of eigvalsh
    on the partial transpose, read from states._lowest_eigenvalue.  A NaN
    or an infinite entry of rho raises ValueError first, as the prover
    takes finite input only.  The prover splits a Bell mixture's partial
    transpose into d blocks of O(d**3), the sectors (a + b) mod d of its
    kets |a, b> (states._blocks).

    A partial transpose with a first row of no zero entry, dense, of order
    states.PROBE_MIN_SIZE or more, is first given the low-rank certificate
    at -PSD_TOL (states._certified_low_rank).  It reads only the lower
    triangle, as eigvalsh does, so it needs no check of Hermiticity.  It
    proves a pt of low rank, as of a separable state of a few product terms,
    to have no eigenvalue below -PSD_TOL in O(n**2 r) for rank r, and npt is
    False at once; its probe at 0 declines a pt of rank n // 4 or more at
    the cost of a factor of the leading quarter, 1/64 of the work of a
    factor of the whole.  One it declines that is exactly Hermitian is then
    given the NPT certificate, which spares a Ginibre state's spectrum:
    ppt_test takes it in 0.09 ms at n = 64 and 0.69 ms at n = 256, against
    0.29 and 8.7 ms for eigvalsh of pt alone (best of 21 x 50 calls, 1 BLAS
    thread).  y, the Ritz vector of _ritz_vector, has the computed Rayleigh
    quotient w/s; if w/s + nu_n ||pt||_F < -PSD_TOL, with nu_n from
    errors.ritz_certificate_slack, eigvalsh would return a value below
    -PSD_TOL, and npt is True at once; the Lanczos walk behind y stops at
    the first step whose lowest Ritz value passes that test, the second or
    third on a Ginibre state, or after LANCZOS_STEPS.  When w/s lies above
    -PSD_TOL instead, the prover runs with floor -PSD_TOL past the low-rank
    certificate, which pt has had (states._factored): one Cholesky factor
    shifted just above -PSD_TOL, below 0 for a trace-one pt for n < 474, so
    that a singular pt of any rank can be proved there, and only a positive
    definite one beyond.  Below -PSD_TOL, lambda_min(pt) <= y^H pt y /
    ||y||**2 leaves no proof to find, and the floor is +inf, which takes the
    exact value, as it does for every other pt.  Either way the prover
    returns min(floor, lambda_min): min_eigenvalue is kept when that lies
    below floor, the exact value, and else taken on first access.  It reads
    only the partial transpose, not any measurement.
    """
    if rho.parties != 2:
        raise ValueError(f"need a two-party state, got {rho.parties} parties")
    pt = partial_transpose(rho, 1)
    # a non-finite entry makes the sum of squares non-finite; only a
    # finite sum that overflows needs the entrywise check
    fro2 = float(np.vdot(pt, pt).real)
    if not math.isfinite(fro2) and not np.isfinite(pt).all():
        raise ValueError("matrix has non-finite entries")
    floor, prover = np.inf, _lowest_eigenvalue
    # a sparse pt goes to the prover, which splits its zero pattern
    if len(pt) >= states.PROBE_MIN_SIZE and (pt[0] != 0).all():
        if states._certified_low_rank(pt[None], -PSD_TOL):
            return PptResult(rho=rho, npt=False)
        if math.isfinite(fro2) and hermiticity_deviation(pt) == 0.0:
            slack = ritz_certificate_slack(len(pt)) * math.sqrt(fro2)
            quotient = _ritz_quotient(pt, -PSD_TOL - slack)
            if quotient + slack < -PSD_TOL:
                return PptResult(rho=rho, npt=True)
            if quotient > -PSD_TOL:
                # past the low-rank certificate, which pt has been given
                floor, prover = -PSD_TOL, states._factored
    min_eig = prover(pt[None], floor)
    result = PptResult(rho=rho, npt=min_eig < -PSD_TOL)
    if min_eig < floor:  # the exact value, not the floor
        vars(result)["min_eigenvalue"] = min_eig  # cached_property's slot
    return result


def _ritz_quotient(a: np.ndarray, below: float) -> float:
    """The computed Rayleigh quotient w/s of a's Ritz vector y
    (_ritz_vector(a, below)).

    w = fl(Re y^H fl(a y)) and s = fl(y^H y), each a real dot product of
    the float components, as errors.ritz_certificate_slack takes them.
    """
    y = _ritz_vector(a, below)
    yf = y.view(float)
    return float(yf @ (a @ y).view(float)) / float(yf @ yf)


def _ritz_vector(a: np.ndarray, below: float) -> np.ndarray:
    """Ritz vector of the lowest Ritz value of a Hermitian a, after Lanczos.

    Steps of Lanczos from a fixed start vector, each new vector
    orthogonalised twice against all earlier ones, give an orthonormal
    basis V of a Krylov space; y = V s for the lowest eigenvector s of
    T = V^H (a V), whose lower triangle is the conjugate of the
    coefficients of each step's first orthogonalisation.  The walk ends
    once the lowest Ritz value lies below `below`, after LANCZOS_STEPS
    steps, or at a step that leaves no residual, on an invariant space.
    The first test costs a few scalar operations per step: the step's
    pivot of the LDL^H of T - below I, read from T's tridiagonal part,
    which is all of T but rounding; a pivot not above 0 is a Ritz value
    not above `below` (Sturm).  Nothing here needs to be exact: the NPT
    certificate recomputes y's Rayleigh quotient and bounds that.
    """
    n = len(a)
    k = min(LANCZOS_STEPS, n)
    v = np.empty((k, n), dtype=complex)
    vc = np.empty((k, n), dtype=complex)  # V's conjugate, copied once
    t = np.zeros((k, k), dtype=complex)
    q = _start_vector(n)
    for j in range(k):
        v[j] = q
        np.conjugate(q, out=vc[j])
        aq = a @ q
        h = vc[:j + 1] @ aq
        t[j, :j + 1] = h.conj()
        pivot = h[j].real - below - (abs(h[j - 1]) ** 2 / pivot if j else 0.0)
        if not pivot > 0.0 or j + 1 == k:
            break
        w = aq - h @ v[:j + 1]
        w -= (vc[:j + 1] @ w) @ v[:j + 1]
        norm = np.linalg.norm(w)
        if not norm > 0.0:
            break
        q = w / norm
    s = np.linalg.eigh(t[:j + 1, :j + 1])[1][:, 0]
    return s @ v[:j + 1]


@cache
def _start_vector(n: int) -> np.ndarray:
    """A fixed, generic unit vector of length n, read-only."""
    q = np.random.default_rng(n).normal(size=n).astype(complex)
    q /= np.linalg.norm(q)
    q.flags.writeable = False
    return q


def brute_force_j(rho: DensityMatrix, sets: list[GsicSet]) -> float:
    """Correlation sum via explicit Kronecker products.

    Slow reference implementation used to cross-check the centred
    witness behind j_bipartite and the uncentred witness W = sum_j P_j
    (x) Q_j (x) ... behind j_multipartite.
    """
    check_measurements(rho, sets)
    d = rho.local_dim
    total = 0j
    for j in range(d * d):
        op = reduce(np.kron, [g.operators[j] for g in sets])
        total += np.trace(op @ rho.matrix)
    return float(require_real(total, IMAG_TOL, "correlation sum"))
