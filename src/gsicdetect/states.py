"""Density matrices, reference state families and tensor utilities.

All multi-party matrices use the row-major tensor convention: the first
factor is the most significant index, matching numpy.kron.
"""

from __future__ import annotations

import json
import math
import operator
import os
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import (HERM_TOL, PSD_TOL, TRACE_TOL, WEIGHT_SUM_TOL, check_dim,
                     cholesky_proof_slack, hermiticity_deviation,
                     low_rank_proof_slack)

try:
    from numpy.linalg._umath_linalg import cholesky_lo as _cholesky_lo
except ImportError:  # numpy's private gufunc moved: see _cholesky_by_slab
    _cholesky_lo = None

# A lone matrix below this order is not split on its zero pattern
# (_blocks): labelling it costs more than its spectrum (about n = 40).
LABEL_MIN_SIZE = 40
# Stacks of m matrices of order n with m n**2 entries below this go to
# eigvalsh whole in _lowest_eigenvalue, where the proof saves less than
# its fixed cost: a measurement's d**2 operators below d = 6, one matrix
# below n = 32.  A lone matrix pays the spectrum as well when its factor
# fails, as on a state of low rank, so it needs a larger size than a
# stack, whose one factor proves all but a few.  ms, proof against
# eigvalsh (best of 5 x 100 calls, Xeon, 1 BLAS thread):
#                              gate, floor 0    cap, floor +inf
#   d = 4, 256 entries         0.038 / 0.033    0.053 / 0.032
#   d = 5, 625                 0.041 / 0.061    0.087 / 0.062
#   d = 6, 1296                0.065 / 0.113    0.113 / 0.110
#   d = 8, 4096                0.090 / 0.287    0.178 / 0.286
#                              from_matrix, full rank, rank 4
#   n = 25, 625                0.037 / 0.052    0.071 / 0.051
#   n = 32, 1024               0.043 / 0.074    0.093 / 0.071
PROOF_MIN_ENTRIES = 32 ** 2
# Matrices solved first by eigvalsh to set the floor of _lowest_eigenvalue
# when it has none.
PROOF_CHUNK = 16
# Matrices per batched Cholesky factor in _lowest_eigenvalue, whose one
# slab buffer, the shifted copies factored in place, is the proof's
# temporary: a d = 12 build peaks at 2.80 stacks with 32 and 2.94 with 48
# (tracemalloc).  Also the rows per strip of the low-rank certificate's
# residual, whose one buffer holds that many rows of a matrix.
PROOF_SLAB = 32
# A lone matrix of at least this order at a floor below 0 is first given
# the low-rank certificate, whose probe, a factor of its leading quarter
# at 0, fails at once on a state of low rank; a pass ends the certificate.
# ppt_test gives it to a dense partial transpose of this order first, and
# its NPT certificate to one it declines.  On the partial transpose of a
# 4-term separable state it proves in 0.08-0.10 ms at n = 64 and
# 0.30-0.31 ms at n = 256, against 0.29-0.30 and 8.5-8.7 ms for the
# spectrum; on a Ginibre state's, full rank, the probe declines in
# 0.010-0.011 and 0.057-0.059 ms (best of 7 x 20 calls, 1 BLAS thread).
PROBE_MIN_SIZE = 64
# Order per step of the pivoted Cholesky behind the low-rank certificate
# of _lowest_eigenvalue: a matrix of order n takes at most n //
# LOW_RANK_STEP_ORDER steps, so the certificate proves a rank up to that,
# where it still costs about one factor of the whole or less, and a rank
# beyond wastes a fraction of one.  ms at rank r = n // 16 (proved) and
# r + 1 (failed), against the probe and factor that prove such a state
# at -PSD_TOL otherwise and eigvalsh (best of 7 x 20 calls, Xeon, 1 BLAS
# thread):
#                        certificate, r / r + 1   probe + factor   eigvalsh
#   n = 64, r = 4              0.12 / 0.06            0.12           0.39
#   n = 81, r = 5              0.16 / 0.08            0.15           0.65
#   n = 144, r = 9             0.20 / 0.08            0.58           1.7
#   n = 256, r = 16            0.46 / 0.26            2.9            7.6
LOW_RANK_STEP_ORDER = 16


@dataclass(frozen=True)
class DensityMatrix:
    """A state of `parties` qudits of equal local dimension.

    matrix has shape (local_dim**parties, local_dim**parties).  label is
    free text used in reports.  deviation bounds the trace-norm distance
    from matrix to a density matrix, as far as the tolerances of
    from_matrix or of a mixture's weights let it stray; a state made
    directly is taken as exact.  deviation_bound is a certified upper
    bound of deviation: deviation itself for a state made directly
    (exact True), and for every state from_matrix accepts (exact False)
    a bound, deviation being computed on first read.
    """

    local_dim: int
    parties: int
    matrix: np.ndarray
    label: str = ""
    deviation_bound: float = 0.0
    exact: bool = field(default=True, repr=False)

    @cached_property
    def deviation(self) -> float:
        """deviation_bound when exact, else computed now and kept.

        Then it is from_matrix's deviation of the matrix, bit for bit,
        from min(0, lambda_min) of its Hermitian part, which
        _lowest_eigenvalue gives at floor 0, with no certificate: one
        factor of a dense matrix, and its spectrum only if that fails.
        """
        if self.exact:
            return self.deviation_bound
        mat = self.matrix
        h = _hermitian_part(mat, hermiticity_deviation(mat))
        return _deviation(complex(np.trace(mat)), len(mat),
                          _lowest_eigenvalue(h[None], 0.0))

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, local_dim: int, parties: int,
                    label: str = "") -> "DensityMatrix":
        """Wrap and validate a raw matrix as a density matrix.

        The matrix is kept as given, and its deviation is |tau - 1| + 2
        dim max(0, -lambda_min), with tau its trace and lambda_min the
        smallest eigenvalue of its Hermitian part H, which is all that an
        expectation value of a Hermitian operator reads.  It bounds the
        trace-norm distance from H to a density matrix: dropping the
        negative part of H moves it by that part's weight, at most dim
        max(0, -lambda_min), and rescaling what is left to trace 1 by at
        most |tau - 1| plus that weight again.  The matrix is accepted
        when min(-PSD_TOL, lambda_min), read from _lowest_eigenvalue with
        floor -PSD_TOL, is -PSD_TOL: a dense H of low rank by the low-rank
        certificate, any other dense H by one Cholesky factor shifted
        just above -PSD_TOL, and an H of order LABEL_MIN_SIZE or more with
        a zero in its first row by its blocks on its zero pattern, each stack
        of them proved or solved as its own shape selects.  A NaN or an
        infinite entry is refused first, as the prover takes finite input
        only.  So every state accepted has exact False and deviation_bound
        |tau - 1| + 2 dim PSD_TOL, and deviation is computed on first read,
        from min(0, lambda_min) at floor 0, bit for bit the formula above.  A
        matrix that hermiticity_deviation finds exactly Hermitian is its own
        Hermitian part H and goes to the prover as it is, with no full-size
        temporary formed: the formula 0.5 mat + 0.5 mat^H, which any other
        matrix takes, could differ from it only where halving a subnormal
        entry rounds and in the sign of a zero, so the value is the eigvalsh
        of H itself.
        """
        mat = np.asarray(matrix, dtype=complex)
        check_dim(local_dim)
        if parties < 1:
            raise ValueError(f"need parties >= 1, got {parties}")
        # local_dim >= 2 gives local_dim**parties >= 2**parties, so a parties
        # beyond the bit length of mat's longest side cannot match, and the
        # power is never formed
        if parties > max(mat.shape, default=0).bit_length():
            raise ValueError(f"matrix has shape {mat.shape}, too small for "
                             f"{parties} parties")
        dim = local_dim ** parties
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix has shape {mat.shape}, expected ({dim}, {dim})")
        if not np.isfinite(mat).all():
            raise ValueError("matrix has non-finite entries")
        herm = hermiticity_deviation(mat)
        if herm > HERM_TOL:
            raise ValueError(f"matrix is not Hermitian, deviation {herm:.3e}")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"matrix has trace {tr}, expected 1")
        h = _hermitian_part(mat, herm)
        min_eig = _lowest_eigenvalue(h[None], -PSD_TOL)
        if min_eig < -PSD_TOL:
            raise ValueError(f"matrix has negative eigenvalue {min_eig:.3e}")
        return cls(local_dim=local_dim, parties=parties, matrix=mat,
                   label=label, exact=False,
                   deviation_bound=_deviation(tr, dim, min_eig))


def _hermitian_part(mat: np.ndarray, herm: float) -> np.ndarray:
    """mat itself if herm, its hermiticity_deviation, is 0, else 0.5 mat +
    0.5 mat^H."""
    return mat if herm == 0.0 else 0.5 * mat + 0.5 * mat.conj().T


def _deviation(tr: complex, dim: int, min_eig: float) -> float:
    """|tr - 1| + 2 dim max(0, -min_eig), for a matrix of trace tr."""
    return abs(tr - 1.0) + 2.0 * dim * max(0.0, -min_eig)


def _blocks(h: np.ndarray) -> Iterator[np.ndarray] | None:
    """h's principal blocks on its zero pattern, one stack per block size,
    each built when reached, or None for a pattern of one component.

    The pattern is read once, as the (row, column) pairs of h's nonzero
    entries.  Components are labelled by hooking each root onto the
    smallest root among its neighbours, along both directions of each
    pair, so that an entry stored in one triangle joins its indices too,
    then jumping every index to its root, until each pair joins two
    indices of one root, the smallest index of their component.  A block
    keeps its indices ascending, so its lower triangle, which eigvalsh
    and the proofs read, holds entries of h's.  Permuting rows and
    columns alike keeps the spectrum, which for blocks is the union of
    theirs: a Bell mixture of two qudits and its partial transpose split
    into d blocks, in about 0.16 ms at d = 16 (timeit, 1 BLAS thread).
    """
    n = len(h)
    if h.dtype == complex:
        # h != 0 over its floats, each pair of bools read as one uint16:
        # with flatnonzero, a third of the time of a complex != 0 at n = 256
        nz = (np.ascontiguousarray(h).view(float) != 0).view(np.uint16) != 0
    else:
        nz = h != 0
    rows, cols = np.divmod(np.flatnonzero(nz), n)
    root = np.arange(n)
    while True:
        # both directions: h may store an entry in one triangle only
        np.minimum.at(root, root[rows], root[cols])
        np.minimum.at(root, root[cols], root[rows])
        while not np.array_equal(up := root[root], root):
            root = up
        if np.array_equal(root[rows], root[cols]):
            break
    order = np.argsort(root, kind="stable")
    _, start, size = np.unique(root[order], return_index=True,
                               return_counts=True)
    if len(size) == 1:
        return None
    return (h[idx[:, :, None], idx[:, None, :]]
            for idx in (order[start[size == s, None] + np.arange(s)]
                        for s in np.unique(size)))


def _lowest_eigenvalue(stack: np.ndarray, floor: float) -> float:
    """min(floor, eigvalsh(stack)[:, 0].min()), bit for bit, floor > -inf.

    The one positivity prover of the package: the cap (floor +inf), the set
    gate (floor 0), the state gate and ppt_test (floor -PSD_TOL) all read
    their lambda_min here.  It takes finite input only: the four edges that
    build what reaches it, DensityMatrix.from_matrix, ppt_test,
    validate_gsic's completeness guard and gsic._operators, refuse a NaN or an
    infinity first.  A matrix proved to have every eigenvalue that eigvalsh
    would return above floor cannot change that minimum, so eigvalsh runs only
    on the matrices that no proof settles, all in one call, on stack itself
    when that is all of them, and a stack proved whole gives floor.  Like
    eigvalsh, the proofs read each matrix's lower triangle only.  A lone
    matrix of order LABEL_MIN_SIZE or more with a zero in its first row is
    split on its zero pattern (_blocks), and the value is the lowest of its
    stacks of blocks', exact as eigvalsh of each block, each stack taking the
    route of its own shape (_routed), which splits nothing; a pattern of one
    component goes on whole.  Any other stack of m matrices of order n with
    m n**2 below PROOF_MIN_ENTRIES goes to eigvalsh whole, and so does one
    that is not of float64 or complex128, the precision the proof assumes, or
    one of at most PROOF_CHUNK matrices at floor +inf, which the first chunk
    would hold whole.  For floor +inf, the floor is first set by eigvalsh on
    the PROOF_CHUNK matrices of lowest Gershgorin lower bound, which tend to
    hold the minimum, and the others are proved against it.  A lone matrix of
    order PROBE_MIN_SIZE or more at a floor passed below 0, as from_matrix
    passes, is first given the low-rank certificate (_certified_low_rank),
    O(n**2 r) for rank r, which declines a matrix of higher rank at the cost
    of a factor of its leading quarter, and a proof there gives floor.  Every
    matrix left is factored once, shifted by its own sigma just above floor
    (_factored, _unproven).  ppt_test gives a dense partial transpose the
    certificate itself, before its NPT certificate, and then calls _factored,
    so that no matrix is given the certificate twice.

    The factor's proof, for A of order n, with u the unit roundoff and
    gamma_k = k u / (1 - k u) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sections 3.1, 3.6 and 10.1):

    1. The shift.  B = fl(A - sigma I) differs from A - sigma I on the
       diagonal only, by D with |D_ii| <= gamma_1 |B_ii|.
    2. The factor.  If it completes, R^H R = B + dB with |dB| <= sqrt(2)
       gamma_{2(n+1)} |R^H| |R|.  Theorem 10.3 has gamma_{n+1} for real
       arithmetic.  In complex arithmetic with conventional products (no
       Strassen-like or 3M multiplication), the real and the imaginary
       part of an entry of R^H R are each a real inner product of at most
       2(n + 1) terms, whatever the blocking and summation order, and the
       modulus of the pair costs the sqrt(2) (section 3.6).
    3. The bound.  R^H R is positive semidefinite and ||dB||_2 <= ||dB||_F
       <= sqrt(2) gamma_{2(n+1)} F with F = ||R||_F**2, and ||D||_2 <=
       gamma_1 (1 + sqrt(2) gamma_{2(n+1)}) F, since |B_ii| <= (R^H R)_ii
       + |dB_ii|.  So lambda_min(A) >= sigma - sqrt(2) gamma_{2n+3} F
       (Lemma 3.3).
    4. eigvalsh.  It returns each eigenvalue within p(n) u ||A||_2
       (LAPACK Users' Guide, section 4.7), with p(n) = n**2 taken, and
       ||A||_2 <= |sigma| + (1 + O(n u)) F.  So every eigenvalue eigvalsh
       returns exceeds sigma - kappa_n (|sigma| + F), with kappa_n =
       sqrt(2) gamma_{2n+3} + 2 p(n) u (errors.cholesky_proof_slack): the
       second p(n) u covers the relative O(n**2 u) roundings of the check.

    A matrix is proved when sigma - f > kappa_n (|sigma| + F).  sigma =
    f + 2 kappa_n (T - n f + |f|), T its trace, is about twice that bound,
    since F is about T - n sigma; a successful factor thus proves all but
    what lies within about 4 kappa_n (T + (n + 1) |f|) of f: 4 kappa_n is
    2.5e-13 at n = 16 and 5.9e-11 at n = 256.
    """
    m, n = len(stack), stack.shape[-1]
    if m == 1 and n >= LABEL_MIN_SIZE and not (stack[0, 0] != 0).all():
        blocks = _blocks(stack[0])
        if blocks is not None:
            return min(_routed(b, floor) for b in blocks)
    return _routed(stack, floor)


def _routed(stack: np.ndarray, floor: float) -> float:
    """_lowest_eigenvalue of a stack that is not split: its routes by shape.

    A block that _blocks splits off is one component, so its stack comes
    here straight and is never labelled again.  The low-rank certificate
    comes first (_certified_low_rank), and what it does not prove goes
    to _factored.
    """
    if _certified_low_rank(stack, floor):
        return floor
    return _factored(stack, floor)


def _certified_low_rank(stack: np.ndarray, floor: float) -> bool:
    """Whether stack is one matrix that the low-rank certificate takes at
    floor and proves above it.

    It takes a lone float64 or complex128 matrix of order PROBE_MIN_SIZE
    or more at a floor below 0 (_low_rank_proves), and nothing else.
    """
    return (len(stack) == 1 and floor < 0.0
            and stack.shape[-1] >= PROBE_MIN_SIZE
            and stack.dtype.char in "dD" and _low_rank_proves(stack[0], floor))


def _factored(stack: np.ndarray, floor: float) -> float:
    """_routed past the low-rank certificate: eigvalsh of a small stack
    whole, else the factors of _unproven and eigvalsh of what they leave.

    ppt_test calls it on a partial transpose that the certificate has
    declined, so that no matrix is given the certificate twice.
    """
    m, n = len(stack), stack.shape[-1]
    if (m * n * n < PROOF_MIN_ENTRIES or stack.dtype.char not in "dD"
            or (floor == np.inf and m <= PROOF_CHUNK)):
        return min(floor, float(np.linalg.eigvalsh(stack)[:, 0].min()))
    diag = np.einsum("kii->ki", stack).real
    traces = diag.sum(axis=1)
    rest = np.arange(m)
    if floor == np.inf:
        rows = np.abs(stack).sum(axis=2)
        bounds = (diag + np.abs(diag) - rows).min(axis=1)
        order = np.argsort(bounds, kind="stable")
        first = np.linalg.eigvalsh(stack[order[:PROOF_CHUNK]])
        floor = float(first[:, 0].min())
        rest = np.sort(order[PROOF_CHUNK:])  # copied in memory order
    rest = _unproven(stack, rest, traces, floor)
    if len(rest) == 0:
        return floor
    left = stack if len(rest) == m else stack[rest]
    return min(floor, float(np.linalg.eigvalsh(left)[:, 0].min()))


def _unproven(stack: np.ndarray, idx: np.ndarray, traces: np.ndarray,
              floor: float) -> np.ndarray:
    """The indices among idx of the matrices not proved above floor.

    traces holds every matrix's trace.  Each matrix A is shifted by the
    sigma of _lowest_eigenvalue, just above floor; a factor of A - sigma
    I exists only if lambda_min(A) > sigma, up to its rounding.  The
    matrices are copied and shifted PROOF_SLAB at a time into one buffer
    and factored in it, in place, and stack is only read.
    """
    n = stack.shape[-1]
    kappa = cholesky_proof_slack(n)
    shifts = floor + 2.0 * kappa * (traces - n * floor + abs(floor))
    proved = np.zeros(len(stack), dtype=bool)
    buf = np.empty((min(PROOF_SLAB, len(idx)), n, n), stack.dtype)
    for start in range(0, len(idx), PROOF_SLAB):
        k = idx[start:start + PROOF_SLAB]
        b = _shifted(stack, k, shifts, buf[:len(k)])
        proved[k] = _proves(_cholesky(b, out=b), shifts[k], floor, kappa)
    return idx[~proved[idx]]


@np.errstate(all="ignore")  # an overflow fails the proof quietly
def _low_rank_proves(a: np.ndarray, floor: float) -> bool:
    """Whether a few steps of pivoted Cholesky put a's eigenvalues above floor.

    floor < 0, and a is Hermitian as its lower triangle gives it, the
    triangle eigvalsh reads.  A copy of a's leading quarter, 1/16 of its
    size, is first factored shifted by the sigma of _lowest_eigenvalue at
    0, 2 kappa_n tr(a): if that factor completes, a has rank n // 4 or
    more, and the answer is False at once.  Else at most n //
    LOW_RANK_STEP_ORDER steps of diagonally pivoted Cholesky, each on the
    largest diagonal entry left, give the columns of L; they stop early
    once the diagonal left sums to at most -floor / 4, as on a state of
    that rank or less.  The residual S = a - L L^H is then formed in
    strips of PROOF_SLAB rows, its lower triangle only, in one buffer of
    PROOF_SLAB rows of a, never a full-size temporary, and only its
    squared Frobenius norm is kept.  errors.low_rank_proof_slack derives
    the proof: eigvalsh returns no eigenvalue of a below -((1 + mu_n)
    ||S||_F + mu_n ||L||_F**2).  The cost is O(n**2 r) for r steps, where
    a factor of the whole costs O(n**3).  A diagonal entry left at or
    above -floor after the last step fails the proof at once, as S would
    hold it.
    """
    n = len(a)
    left = a.diagonal().real.copy()
    q = n // 4
    lead = a[:q, :q].copy()
    lead.reshape(-1)[::q + 1] -= 2.0 * cholesky_proof_slack(n) * left.sum()
    if not np.isnan(_cholesky(lead, out=lead)[0, 0]):
        return False
    steps = n // LOW_RANK_STEP_ORDER
    cols = np.empty((steps, n), a.dtype)  # row j is column j of L
    k = 0
    while k < steps and left.sum() > -floor / 4.0:
        p = int(left.argmax())
        if not left[p] > 0.0:
            break
        c = cols[k]
        c[p:] = a[p:, p]
        c[:p] = a[p, :p].conj()
        c -= cols[:k, p].conj() @ cols[:k]
        c /= math.sqrt(left[p])
        left -= (c * c.conj()).real
        k += 1
    if not left.max() < -floor:
        return False
    lt, lc = cols[:k].T.copy(), cols[:k].conj()
    flat = np.empty(min(PROOF_SLAB, n) * n, a.dtype)
    upper = np.triu(np.ones((PROOF_SLAB, PROOF_SLAB), dtype=bool))
    off = on = 0.0
    for s in range(0, n, PROOF_SLAB):
        e = min(s + PROOF_SLAB, n)
        strip = flat[:(e - s) * e].reshape(e - s, e)  # S[s:e, :e]
        np.matmul(lt[s:e], lc[:, :e], out=strip)
        np.subtract(a[s:e, :e], strip, out=strip)
        block = strip[:, s:]
        on += float(np.vdot(block.diagonal(), block.diagonal()).real)
        # the diagonal, counted once, and what eigvalsh does not read
        block[upper[:e - s, :e - s]] = 0.0
        off += float(np.vdot(strip, strip).real)
    mu = low_rank_proof_slack(n)
    fro2 = float(np.vdot(cols[:k], cols[:k]).real)
    return -floor > (1.0 + mu) * math.sqrt(2.0 * off + on) + mu * fro2


def _shifted(stack: np.ndarray, k: np.ndarray, shifts: np.ndarray,
             out: np.ndarray) -> np.ndarray:
    """stack[k] less shifts[k] on each diagonal, written into out.

    out must be C-contiguous, so that the diagonals are one strided view.
    """
    # "clip" writes straight into out, where "raise" buffers a copy
    np.take(stack, k, axis=0, out=out, mode="clip")
    n = out.shape[-1]
    out.reshape(len(k), n * n)[:, ::n + 1] -= shifts[k, None]
    return out


def _cholesky(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Lower Cholesky factors of a stack, all NaN where a factor fails.

    This is the gufunc behind np.linalg.cholesky, with the same factors
    bit for bit.  It fills a failed factor with NaN and raises the FPU
    invalid flag, which np.linalg.cholesky turns into one LinAlgError for
    the whole stack; ignoring the flag keeps each matrix's outcome.  It
    reads each matrix's lower triangle only.  out may be a itself: each
    matrix is copied to the routine's own work space before its factor
    is written back, so the factor takes the place of the matrix.  Where
    numpy lacks the gufunc, _cholesky_by_slab takes its place.
    """
    with np.errstate(all="ignore"):
        return _cholesky_lo(a, out=out)


def _cholesky_by_slab(a: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """_cholesky through np.linalg.cholesky, the same factors bit for bit.

    The whole stack is factored in one call, and only when that raises
    LinAlgError is each matrix factored alone, a failed one filled with
    NaN.  np.linalg.cholesky returns a new array, which is copied into
    out, so out may still be a itself, at the cost of a temporary of a's
    size.
    """
    if out is None:
        out = np.empty(a.shape, a.dtype)
    try:
        out[...] = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        for k in np.ndindex(a.shape[:-2]):
            try:
                out[k] = np.linalg.cholesky(a[k])
            except np.linalg.LinAlgError:
                out[k] = np.nan
    return out


if _cholesky_lo is None:
    _cholesky = _cholesky_by_slab


def _proves(r: np.ndarray, shift, floor: float, kappa: float) -> np.ndarray:
    """Whether each factor R of A - shift I puts A's eigenvalues above floor.

    shift is one per factor; a factor holding a NaN, as a failed one
    does, proves nothing.
    """
    flat = r.view(r.real.dtype).reshape(len(r), 1, -1)
    fro2 = (flat @ flat.transpose(0, 2, 1))[:, 0, 0]  # one dot per factor
    return shift - floor > kappa * (abs(shift) + fro2)


def pair_axes(rho: DensityMatrix) -> np.ndarray:
    """rho as (d**2, d**(2N - 2)), one (column, row) axis per party.

    Operators reshaped to (m, d**2) times it contract with the first party.
    """
    d, n = rho.local_dim, rho.parties
    order = [axis for k in range(n) for axis in (n + k, k)]
    return rho.matrix.reshape((d,) * (2 * n)).transpose(order).reshape(d * d, -1)


def _bell_kets(d: int) -> np.ndarray:
    """ket[j, t], the index of |j, j+t mod d> among the d**2 product kets.

    Phi_st = (U_st (x) I)|phi+> with U_st = weyl_operator(d, s, t) is
    (1/sqrt(d)) sum_j w**(j*s) |j, j+t>: it lives on the kets of column t.
    """
    j = np.arange(d)
    return j[:, None] * d + (j[:, None] + j) % d


def _weights_deviation(weights: np.ndarray) -> np.ndarray | float:
    """Deviation of a Bell mixture with nonnegative weights: |sum - 1|.

    Over the last two axes, so a stack of (d, d) tables gives one per table.
    """
    return abs(weights.sum(axis=(-2, -1)) - 1.0)


def _bell_mixture(weights: np.ndarray, label: str) -> DensityMatrix:
    """sum over labels of weights[s, t] |Phi_st><Phi_st| for a (d, d) weight table.

    The only nonzero entries are <j, j+t|rho|k, k+t> = (1/d) sum_s
    weights[s, t] w**(s*(j - k)): one inverse DFT over s, scattered into
    the d**3 slots (j, k, t) of _bell_kets.
    """
    d = len(weights)
    j = np.arange(d)
    ket = _bell_kets(d)
    coeff = np.fft.ifft(weights, axis=0)  # coeff[m, t] for j - k = m mod d
    mat = np.zeros((d * d, d * d), dtype=complex)
    mat[ket[:, None], ket[None]] = coeff[(j[:, None] - j) % d]
    return DensityMatrix(local_dim=d, parties=2, matrix=mat, label=label,
                         deviation_bound=float(_weights_deviation(weights)))


# Weight table of each mixture family that criteria.scan_family scans,
# shared with the family's state constructor.  Each takes its parameter
# as a float, for one (d, d) table, or as a 1-D array, for a stack of
# tables, one per entry; a row of the stack holds the very bits the
# float gives.  table.T puts the stack axis last, where the parameter
# broadcasts.

def _isotropic_weights(d: int, alpha) -> np.ndarray:
    """Table of isotropic(d, alpha)."""
    table = np.empty(getattr(alpha, "shape", ()) + (d, d))
    table.T[...] = (1.0 - alpha) / (d * d)
    table.T[0, 0] += alpha
    return table


def _belldiag_c_weights(d: int, c) -> np.ndarray:
    """Weight c on the identity Bell label, the rest spread uniformly."""
    table = np.empty(getattr(c, "shape", ()) + (d, d))
    table.T[...] = (1.0 - c) / (d * d - 1.0)
    table.T[0, 0] = c
    return table


def _diagmix_weights(d: int, a1,
                     tail: np.ndarray | None = None) -> np.ndarray:
    """Table of diagonal_mixture(d, a1, tail).

    Offset delta's tail weight is spread over the d labels (s, delta); the
    default tail spreads 1 - a1 evenly over the d - 1 offsets.  A custom
    tail goes with a float a1.
    """
    table = np.zeros(getattr(a1, "shape", ()) + (d, d))
    if tail is None:
        table.T[1:] = (1.0 - a1) / (d - 1) / d
    else:
        table[:, 1:] = tail / d
    table.T[0, 0] = a1
    return table


def max_entangled(d: int) -> DensityMatrix:
    """Projector onto the canonical maximally entangled two-qudit vector."""
    check_dim(d)
    table = np.zeros((d, d))
    table[0, 0] = 1.0
    return _bell_mixture(table, f"maxent-d{d}")


def isotropic(d: int, alpha: float) -> DensityMatrix:
    """Mixture of the maximally entangled state with white noise.

    rho = alpha * maxent + (1 - alpha) * I / d**2 with alpha in [0, 1].
    Separable exactly up to alpha = 1/(d + 1).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {alpha}")
    check_dim(d)
    return _bell_mixture(_isotropic_weights(d, alpha),
                         f"isotropic-d{d}-alpha{alpha:g}")


def weyl_operator(d: int, s: int, t: int) -> np.ndarray:
    """Discrete phase-shift unitary sum_j w**(j*s) |j><j + t mod d|."""
    check_dim(d)
    if not (0 <= s < d and 0 <= t < d):
        raise ValueError(f"labels must lie in 0..{d - 1}, got ({s}, {t})")
    u = np.zeros((d, d), dtype=complex)
    phases = np.exp(2j * np.pi * s * np.arange(d) / d)
    for j in range(d):
        u[j, (j + t) % d] = phases[j]
    return u


def bell_diagonal(d: int, weights: Mapping[tuple[int, int], float]) -> DensityMatrix:
    """Mixture of the d**2 generalized Bell projectors.

    weights maps (s, t) labels to probabilities; omitted labels carry
    weight zero.  The weights must be nonnegative and sum to 1 within
    WEIGHT_SUM_TOL.  The labels and weights are checked as arrays, and
    the first label in the mapping's order that fails a check is named,
    by the first check it fails: a pair of integers, in range, then a
    finite weight, then a nonnegative one.
    """
    check_dim(d)
    keys, values = list(weights), list(weights.values())
    probs = np.array(values)
    try:
        s, t = zip(*keys, strict=True) if keys else ((), ())
        labels = np.fromiter(map(operator.index, chain(s, t)), np.int64,
                             2 * len(keys)).reshape(2, -1)
        valid = ((labels >= 0) & (labels < d)).all()
    except (TypeError, ValueError, OverflowError):  # OverflowError: past int64
        valid = False
    if not (valid and np.isfinite(probs).all() and (probs >= 0).all()):
        raise ValueError(_first_refusal(d, keys, values))
    total = sum(values)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"weights sum to {total}, expected 1")
    table = np.zeros((d, d))
    table[labels[0], labels[1]] = probs
    return _bell_mixture(table, f"belldiag-d{d}-c{max(values):g}")


def _first_refusal(d: int, keys: list, values: list) -> str | None:
    """The message that names the first label bell_diagonal refuses."""
    for key, p in zip(keys, values):
        try:
            s, t = key
            in_range = all(0 <= operator.index(x) < d for x in (s, t))
        except (TypeError, ValueError):
            return f"label {key!r} is not a pair of integers"
        if not in_range:
            return f"label ({s}, {t}) out of range for dimension {d}"
        if not np.isfinite(p):
            return f"non-finite weight {p} for label ({s}, {t})"
        if p < 0:
            return f"negative weight {p} for label ({s}, {t})"
    return None


def diagonal_mixture(d: int, a1: float,
                     tail: Sequence[float] | None = None) -> DensityMatrix:
    """Maximally entangled fraction plus classically correlated diagonal.

    rho = a1 * maxent + sum over offsets delta = 1..d-1 and k = 0..d-1 of
    (w_delta / d) |k><k| (x) |k+delta mod d><k+delta mod d|.  By default
    the tail weights w_delta are all equal to (1 - a1)/(d - 1); a custom
    tail of length d - 1 summing to 1 - a1 may be supplied.  The offset
    delta diagonal is the uniform mixture of the Bell labels (s, delta).
    """
    check_dim(d)
    if not 0.0 <= a1 <= 1.0:
        raise ValueError(f"entangled weight must lie in [0, 1], got {a1}")
    if tail is not None:
        tail = np.asarray(tail, dtype=float)
        if tail.shape != (d - 1,):
            raise ValueError(f"tail needs {d - 1} weights, got shape {tail.shape}")
        if not np.all(tail >= 0):
            raise ValueError("tail weights must be nonnegative")
        if not abs(a1 + tail.sum() - 1.0) <= WEIGHT_SUM_TOL:
            raise ValueError(
                f"weights sum to {a1 + tail.sum()}, expected 1")
    return _bell_mixture(_diagmix_weights(d, a1, tail),
                         f"diagmix-d{d}-a1{a1:g}")


def random_separable(d: int, parties: int, terms: int, seed: int) -> DensityMatrix:
    """Seeded random mixture of pure product states.

    Each term is a product of independent Gaussian random unit vectors;
    the mixing weights are uniform draws normalized to 1.  The output is
    fully separable by construction and deterministic per seed.

    Draw order: the `terms` weights, then one normal draw of shape
    (terms, 2, parties, d) holding, within each term, the real parts of
    all factors before their imaginary parts.  That is the order of one
    pair of (parties, d) draws per term, so a seed gives the same state,
    to rounding, as the per-term loop kept in the tests.  The product
    vectors are the rows of one (terms, d**parties) array V, built by
    broadcast outer products, and rho = V^T diag(w) conj(V) is exactly
    Hermitian.  Its real and imaginary parts are written in place into
    the one result buffer, so a call peaks at about 1.6 times the
    state's bytes.
    """
    check_dim(d)
    if parties < 2 or terms < 1:
        raise ValueError(
            f"need parties >= 2 and terms >= 1, got {parties} and {terms}")
    rng = np.random.default_rng(seed)
    weights = rng.random(terms)
    weights /= weights.sum()
    draws = rng.normal(size=(terms, 2, parties, d))
    factors = draws[:, 0] + 1j * draws[:, 1]
    factors /= np.linalg.norm(factors, axis=2, keepdims=True)
    vecs = factors[:, 0]
    for k in range(1, parties):
        vecs = (vecs[:, :, None] * factors[:, k, None, :]).reshape(terms, -1)
    # With U = sqrt(w) V: Re rho = S^T S for S = [Re U; Im U], exactly
    # symmetric, and Im rho = X - X^T for X = Im(U)^T Re(U), exactly
    # antisymmetric.  X is freed before S^T S is formed, so at most one
    # real half-size temporary lives beside the result.
    u = np.sqrt(weights)[:, None] * vecs
    x = u.imag.T @ u.real
    mat = np.empty(x.shape, dtype=complex)
    np.subtract(x, x.T, out=mat.imag)
    del x
    s = np.concatenate((u.real, u.imag))
    mat.real = s.T @ s
    return DensityMatrix(local_dim=d, parties=parties, matrix=mat,
                         label=f"randsep-d{d}-n{parties}-seed{seed}")


def tensor(ops: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a sequence of matrices, first factor most significant."""
    mats = [np.asarray(op) for op in ops]
    if not mats:
        raise ValueError("tensor needs at least one factor")
    return reduce(np.kron, mats)


def partial_transpose(rho: DensityMatrix, party: int) -> np.ndarray:
    """Transpose one party of a multi-party density matrix.

    party is a zero-based index.  The result is returned as a plain
    matrix because it is generally not positive semidefinite.
    """
    n = rho.parties
    if not 0 <= party < n:
        raise ValueError(f"party index {party} out of range for {n} parties")
    d = rho.local_dim
    tens = rho.matrix.reshape((d,) * (2 * n))
    swapped = tens.swapaxes(party, n + party)
    return swapped.reshape(d ** n, d ** n)


# Tag of the files that _write_raw writes and the readers take: a JSON
# head line, then the entries as raw bytes.
ENCODING = "c16le-raw"


def _write_raw(path: str | Path, fields: dict, z: np.ndarray) -> None:
    """Write one line of json.dumps of the tag and fields, then z's bytes.

    z goes in row-major order as little-endian complex128, 16 bytes an
    entry with nothing after the last, so every float reloads bit-exact,
    -0.0 and subnormals included.  json.dumps escapes every control
    character, so the head is one line.  The file is truncated on open
    and then written, with no fsync: a reader that races the writer can
    see a torn file.
    """
    head = json.dumps({"encoding": ENCODING, **fields}).encode() + b"\n"
    with open(path, "wb") as out:
        out.write(head)
        out.write(np.ascontiguousarray(z, dtype="<c16"))


def _read_head(f) -> dict:
    """The head of a raw file; ValueError unless f holds one.

    f is a file opened "rb", buffered, so that reading its first line
    costs no system call per byte.  That line must end in '\n' and be
    the UTF-8 text of a JSON object tagged with ENCODING, with no key
    written twice (_parse_json); f is left at the payload.
    """
    line = f.readline()
    head = _parse_json(line)
    if not (line.endswith(b"\n") and isinstance(head, dict)
            and head.get("encoding") == ENCODING):
        raise ValueError(f"the first line is not a JSON object tagged "
                         f"{ENCODING!r} and ended by a newline")
    return head


def _read_raw(f, count: int) -> np.ndarray:
    """The count entries after a raw head, flat; ValueError unless finite.

    The bytes left in f must be exactly count entries of 16, and that is
    checked before the array is allocated, so a head that claims a huge
    count fails at once.  A regular file is sized by fstat and read
    straight into the array; a pipe, which fstat does not size, is read
    to its end and copied.
    """
    need = 16 * count
    rest = None if f.seekable() else f.read()
    left = (os.fstat(f.fileno()).st_size - f.tell() if rest is None
            else len(rest))
    if left != need:
        raise ValueError(f"payload holds {left} bytes, expected {need}")
    if rest is not None:
        return _finite(np.frombuffer(rest, "<c16").astype(complex))
    z = np.empty(count, "<c16")
    if f.readinto(z) != need:
        raise ValueError("file shrank while it was read")
    return _finite(z.astype(complex, copy=False))


def _unique_keys(pairs: list) -> dict:
    """A JSON object's (key, value) pairs as a dict.

    A key written twice raises ValueError, where json.loads alone keeps
    its later value.
    """
    data = {}
    for key, val in pairs:
        if key in data:
            raise ValueError(f"key {key!r} appears twice")
        data[key] = val
    return data


def _parse_json(raw: bytes):
    """The JSON value of raw; ValueError unless it is plain JSON.

    A BOM, bytes that are not UTF-8, a key written twice in one object
    (_unique_keys) or nesting past the interpreter's recursion limit
    raise ValueError.
    """
    try:
        return json.loads(raw.decode("utf-8"), object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("JSON nested past the interpreter's recursion "
                         "limit") from None


def _finite(z: np.ndarray) -> np.ndarray:
    """z, unless an entry is NaN or infinite."""
    if not np.isfinite(z).all():
        raise ValueError("non-finite entry; entries must be finite numbers")
    return z


def decode_int(raw, minimum: int) -> int:
    """A JSON integer field of at least minimum; ValueError otherwise.

    A float, a bool or anything else that is not an int is refused too.
    """
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ValueError(f"expected an integer, got {raw!r}")
    if raw < minimum:
        raise ValueError(f"expected an integer >= {minimum}, got {raw}")
    return raw


def decode_float(raw) -> float:
    """A JSON number field as a float; ValueError otherwise.

    Only an int or a float is accepted, not a bool, a string or anything
    else, and an int must lie within float range.  A float is returned
    as it is, NaN and infinities included, for the caller's own checks.
    """
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(f"expected a number, got {json.dumps(raw)}")
    try:
        return float(raw)
    except OverflowError:
        raise ValueError("integer beyond the float range") from None


def write_state(rho: DensityMatrix, path: str | Path) -> None:
    """Serialize a density matrix to a file.

    A head {"encoding", "local_dim", "parties"}, then the matrix's raw
    bytes (_write_raw).
    """
    _write_raw(path, {"local_dim": rho.local_dim, "parties": rho.parties},
               rho.matrix)


def read_state(path: str | Path) -> DensityMatrix:
    """Load a density matrix from a file and re-validate it.

    The file must be raw (_read_head), with exactly
    (local_dim**parties)**2 entries after its head (_read_raw).
    local_dim must be an integer >= 2 and parties one >= 1, and the
    result passes DensityMatrix.from_matrix.  A malformed file, or a
    matrix that from_matrix refuses, raises ValueError naming the file.
    """
    try:
        with open(path, "rb") as f:
            head = _read_head(f)
            local_dim = decode_int(head["local_dim"], 2)
            parties = decode_int(head["parties"], 1)
            if parties >= 64:
                # local_dim >= 2: 2**128 entries or more, beyond any file,
                # and the power is never formed
                raise ValueError(f"{parties} parties need more entries "
                                 "than a file holds")
            dim = local_dim ** parties
            flat = _read_raw(f, dim * dim)
    except (KeyError, ValueError) as exc:
        why = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"malformed state file {path}: {why}") from exc
    mat, label = flat.reshape(dim, dim), f"file:{Path(path).name}"
    try:
        return DensityMatrix.from_matrix(mat, local_dim, parties, label=label)
    except ValueError as exc:
        raise ValueError(f"state file {path}: {exc}") from exc
