"""Shared exception types, tolerances, input checks and error bounds."""

from __future__ import annotations

import math

import numpy as np

# Every tolerance of the package, defined only here; all absolute.  The
# decision margin of a test is no constant: margin_error_bound derives it
# from the two measurement sets, and a verdict adds the state's deviation,
# so what these tolerances admit never turns into a flag.
HERM_TOL = 1e-10  # largest |rho - rho^H| entry of an accepted density matrix
TRACE_TOL = 1e-10  # largest |Tr rho - 1| of an accepted density matrix
PSD_TOL = 1e-10  # eigenvalue floor -PSD_TOL of density matrices and partial transposes
WEIGHT_SUM_TOL = 1e-12  # largest |sum - 1| of the weights of a state mixture
PURITY_MATCH_TOL = 1e-12  # largest |a_p - a_q| of two sets paired in one test
RANGE_SLACK = 1e-12  # rounding allowed outside the purity range [1/d**3, 1/d**2]
CAP_EIG_SLACK = 1e-13  # eigensolver noise ignored when choosing which cap on t binds
# default largest deviation of a basis or measurement check; a measurement's
# psd deviation is d**2 * max(0, -lambda_min), on its eigenvalues' 1/d**2 scale
VALIDATION_TOL = 1e-10
IMAG_TOL = 1e-8  # largest imaginary residue of a correlation sum
CORR_IMAG_TOL = 1e-10  # largest imaginary residue of a correlation-matrix entry
# unit roundoff u of float64, the u of gamma_k = k u / (1 - k u)
UNIT_ROUNDOFF = np.finfo(float).eps / 2
# p(n) = n**EIGVALSH_ERROR_POWER in eigvalsh's eigenvalue error p(n) u ||A||_2,
# which LAPACK calls modestly growing and leaves unstated; n**2 lies far
# above the few u ||A||_2 seen in practice
EIGVALSH_ERROR_POWER = 2
# Largest local dimension taken from command-line text: a measurement set's
# (d**2, d, d) complex128 operator stack, 16 d**4 bytes, is 256 MiB at d = 64.
# gsic build peaks at about three stacks and reading its file at under
# two, the stack read straight from the file and the gate's slab buffer
# (tracemalloc: 1.81 at d = 12, 1.66 at d = 16, 1.54 at d = 32).
MAX_DIM = 64
# Largest scan grid: its (steps, d, d) stack of weight tables takes 8 steps
# d**2 bytes, 328 MB at MAX_DIM.
MAX_STEPS = 10_000
# Bytes of M^H conjugated at a time by hermiticity_deviation: a
# measurement's stack up to d = 8 (64 KiB) in one go, as fast as one
# conjugate copy, and a larger one with a temporary of at most this.
HERM_CHUNK_BYTES = 1 << 17


class NumericIntegrityError(ArithmeticError):
    """A computed quantity violates a numeric sanity bound.

    Raised when a value that must be real up to floating-point noise
    comes back with a non-negligible imaginary part, which points at a
    corrupted input rather than at an unlucky rounding.
    """


class InfeasibleParameterError(ValueError):
    """A mixing parameter pushes some operator out of the PSD cone."""

    def __init__(self, message: str, index: int | None = None,
                 eigenvalue: float | None = None):
        super().__init__(message)
        self.index = index
        self.eigenvalue = eigenvalue


def check_dim(d: int) -> None:
    """Reject a local dimension below 2."""
    if d < 2:
        raise ValueError(f"need dimension >= 2, got {d}")


def check_steps(steps: int) -> None:
    """Reject a scan grid of fewer than 10 or more than MAX_STEPS points."""
    if not 10 <= steps <= MAX_STEPS:
        raise ValueError(f"need 10 to MAX_STEPS = {MAX_STEPS} grid steps, "
                         f"got {steps}")


def check_measurements(rho, sets) -> None:
    """Require one measurement set per party of rho, each of its local dimension."""
    if len(sets) != rho.parties or any(g.dim != rho.local_dim for g in sets):
        raise ValueError(
            f"state has {rho.parties} parties of dimension {rho.local_dim}, "
            f"got measurement sets of dimensions {[g.dim for g in sets]}")


def margin_error_bound(p, q) -> float:
    """Worst-case error E of the margin Tr(K rho) - excess of detect_bipartite.

    E = 2 (m**2 + 2m) eps S + ((d + 2)**2 (dp + dq) + d |ap - aq|/(d + 1))/2

    with m = d**2 outcomes, eps the machine epsilon, S = sum_j ||X_j||_1
    ||Y_j||_1 over the entrywise 1-norms of the centred operators X_j =
    P_j - I/d**2 and Y_j = Q_j - I/d**2 (the sets' centred_norms), dp,
    dq the sets' deviation fields and ap, aq their purities.  The first
    term bounds the rounding of the margin for every density matrix rho,
    the second how far the sets' deviations can lift a separable state's
    margin above 0.  K = sum_j X_j (x) Y_j and excess = d (a_ex,p +
    a_ex,q)/(2(d + 1)), a_ex = t**2 (d - 1)(d + 1)**3, as in
    criteria._Witness.  A state admitted at trace-norm distance delta
    from a density matrix moves the margin by at most ||K||_op delta <=
    delta/d more, since K = W - I/d**2 up to the completeness residuals,
    with 0 <= W = sum_j P_j (x) Q_j <= I/d; a verdict adds rho's
    deviation to E.

    Rounding, with u = eps/2 and gamma_n = n u / (1 - n u) (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., sections 3.1
    and 3.6); every entry of rho obeys |rho_ik| <= 1.

    1. Centring.  Shifting a diagonal entry of P_j by fl(1/d**2) leaves
       it off by at most u |X_j,aa|, so K moves by at most 2u S in sum
       of entries.  The shift's own error e <= u/d**2 is common to all j
       and cancels through completeness: sum_j (X_j - e I) (x) (Y_j - e
       I) = K - e (R_P (x) I + I (x) R_Q) + d**2 e**2 I, with R the
       residuals, so it adds at most 2u (dp + dq)/d, inside the second
       term, and d**2 e**2 <= u**2/d**2, of second order.
    2. The GEMM.  Each entry of K, sum_j X_j,ab Y_j,ce, is a complex
       inner product of length m: off by at most sqrt(2) gamma_2m
       sum_j |X_j,ab||Y_j,ce|, so sqrt(2) gamma_2m S over all entries.
    3. The inner product.  Re Tr(K rho) is one real inner product of
       length 2 m**2, whatever order the dot product takes: off by at
       most gamma_{2m**2} sum_ik |K_ik||rho_ki| <= gamma_{2m**2} S, since
       sum_ik |K_ik| <= S.
    4. The excess.  It takes six roundings from t, (d + 1)**3 being
       exact, so it is off by at most gamma_6 excess, and the final
       subtraction by at most u (|Tr(K rho)| + excess) <= u (S +
       excess).  Since ||X||_1 >= ||X||_F and Tr X_j**2 = a_p - 1/d**3
       to first order in dp, S >= d**2 sqrt(a_ex,p a_ex,q), and the
       mean of a_ex,p and a_ex,q exceeds that root by at most (|ap -
       aq| + dp + dq)/2.  So 7u excess <= 7u S/d**2 + 7u (|ap - aq| +
       dp + dq)/2, and the second part lies far inside the second term.

    To first order that is (m**2 + sqrt(2) m + 3/2 + 7/(2m)) eps S.  The
    first term of E is at least 1.99 times that (at m = 4, more above),
    which also covers the gamma denominators (n u <= 0.01 up to d =
    2000).

    The Bell-table path.  criteria.scan_family takes Tr(K rho) of a Bell
    mixture as W . B, with W its (d, d) weight table, entries in [0, 1]
    summing to 1 up to rho's deviation, and B_st = <Phi_st|K|Phi_st>
    from _Witness.bell_table.  That replaces step 3; steps 1, 2 and 4
    stand, since an error dK of K moves W . B by at most sum |dK|, as it
    moves Tr(K rho).  B_st = (1/d) sum_jk w**(s(k - j)) K[(j, j+t), (k,
    k+t)] is a sum of d**2 entries of K with unit phases, divided by d.
    The sum over j is off by at most sqrt(2) gamma_d of the |K| it reads.
    The inverse DFT over s is 1/sqrt(d) times a unitary map, so in the
    1-norm over s it passes that error on undiminished and adds its own
    normwise error, O(log d) u (Higham, section 24.1).  Column t reads
    d**2 entries of K and the d columns read disjoint ones, so sum_st
    |dB_st| <= (sqrt(2) gamma_d + O(log d) u) S, and the dot product adds
    gamma_{d**2} sum_st W_st |B_st| <= gamma_{d**2} S.  In all that is
    gamma_{O(d**2)} S, far inside the gamma_{2m**2} S of step 3, so the
    first term of E covers both paths.

    Sets, to first order in a set's largest validation deviation delta:
    for a pure product state, J <= (IC_P + IC_Q)/2 with IC_P = sum_j
    Tr(P_j rho_A)**2 by Cauchy-Schwarz.  Write rho_A = I/d + r, Tr r = 0,
    ||r||_2**2 = 1 - 1/d.  The operator traces add at most 2 delta/d to
    IC_P, the completeness residual and the traces together 2 delta/d + 2
    delta through the cross term, and the Gram matrix of the traceless
    parts, of top eigenvalue a - c for an exact set (c the pairwise
    trace), at most (d**2 + 2) delta through sum_j Tr(P_j r)**2.  So IC_P
    <= (a_p d**2 + 1)/(d (d + 1)) + (d**2 + 4 + 4/d) delta, and the mean
    of the two ceilings is 1/d**2 + d (a_ex,p + a_ex,q)/(2(d + 1)), each
    a_ex off a - 1/d**3 by at most delta (the t_purity check).  Two terms
    J holds and the margin leaves out add to that: the completeness
    residuals, (Tr((R_P (x) I + I (x) R_Q) rho))/d**2, at most (dp +
    dq)/d, and (Tr rho - 1)/d**2, which rho's deviation covers.  In all,
    delta ((d**2 + 4 + 4/d)/2 + d/(2(d + 1)) + 1/d) per set, within
    (d + 2)**2 delta/2.  Separable states are mixtures of pure product
    states, and the margin is linear.  The |ap - aq| part, which the
    mean ceiling no longer needs, is kept: it covers the excess in step
    4, and the gap between the mean ceiling and bipartite_bound at p's
    purity, which the reported bound uses.

    p and q are duck-typed: anything with dim, a, deviation and a (d**2,)
    centred_norms array.
    """
    d = p.dim
    m = d * d
    rounding = (2.0 * (m * m + 2.0 * m) * np.finfo(float).eps
                * float(p.centred_norms @ q.centred_norms))
    sets = ((d + 2.0) ** 2 * (p.deviation + q.deviation)
            + d * abs(p.a - q.a) / (d + 1.0)) / 2.0
    return float(rounding + sets)


def purity_range_deviation(d: int, a: float) -> float:
    """Distance of a purity from [1/d**3, 1/d**2]; NaN for a NaN purity."""
    if math.isnan(a):
        return math.nan
    return max(0.0, 1.0 / d**3 - a, a - 1.0 / d**2)


def cholesky_proof_slack(n: int) -> float:
    """kappa_n = sqrt(2) gamma_{2n+3} + 2 n**EIGVALSH_ERROR_POWER u.

    A Cholesky factor R of fl(A - sigma I), A Hermitian of order n, proves
    that eigvalsh returns every eigenvalue of A above sigma - kappa_n
    (|sigma| + ||R||_F**2); states._lowest_eigenvalue derives it.
    """
    u = UNIT_ROUNDOFF
    k = 2 * n + 3
    return (math.sqrt(2.0) * k * u / (1.0 - k * u)
            + 2.0 * n ** EIGVALSH_ERROR_POWER * u)


def low_rank_proof_slack(n: int) -> float:
    """mu_n = sqrt(2) gamma_{2n} + gamma_{2n(n+1)} + 2 p(n) u.

    For H Hermitian of order n, read from its lower triangle as eigvalsh
    reads it, any n x k matrix L with k <= n, and S = H - L L^H, take
    the computed r = fl(sqrt(q)) with q = fl(2 o + g), o the sum of
    |fl(H_ij - fl(L L^H)_ij)|**2 over i > j and g that over i = j, each
    a sum of real squares, and F = fl(||L||_F**2).  If fl((1 + mu_n) r +
    mu_n F) < c, every eigenvalue that eigvalsh returns for H exceeds
    -c.  With u the unit roundoff and gamma_k = k u / (1 - k u) (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., sections
    3.1 and 3.6):

    1. The products.  An entry of L L^H is a complex inner product of
       k <= n terms, whose real and imaginary parts are each a real inner
       product of at most 2n terms, so fl(L L^H) is off L L^H by at most
       sqrt(2) gamma_{2n} |L| |L^H| entrywise, at most sqrt(2) gamma_{2n}
       ||L||_F**2 in the Frobenius norm.
    2. The difference.  Each computed entry of S is off the difference
       it rounds by at most gamma_1 of its own modulus.
    3. The norm.  q sums at most 2n(n + 1) real squares, so it is
       within gamma_{2n(n+1)} of the squared Frobenius norm of the
       computed S, which counts each entry below the diagonal twice, as
       H holds it twice; an imaginary part that the diagonal of H does
       not hold only adds to q.  F is within gamma_{2n**2} of ||L||_F**2.
    4. Weyl.  L L^H is positive semidefinite, so lambda_min(H) >=
       -||S||_2 >= -||S||_F, and ||H||_2 <= ||L||_F**2 + ||S||_F.
    5. eigvalsh.  It returns each eigenvalue within p(n) u ||H||_2
       (LAPACK Users' Guide, section 4.7), p(n) = n**EIGVALSH_ERROR_POWER
       as in cholesky_proof_slack.

    So eigvalsh returns nothing below -((1 + p(n) u) ||S||_F + p(n) u
    ||L||_F**2), and ||S||_F <= (1 + gamma_1 + gamma_{2n(n+1)}) r +
    sqrt(2) gamma_{2n} F to first order.  The second p(n) u covers the
    products of these small terms, the square root and the three
    roundings of the check, a few u of r + mu_n F, from n = 3 on.  L
    need not be accurate: any L gives a valid bound, and a good one a
    small r.  states._low_rank_proves takes L from a pivoted Cholesky.
    """
    u = UNIT_ROUNDOFF
    k, m = 2 * n, 2 * n * (n + 1)
    return (math.sqrt(2.0) * k * u / (1.0 - k * u) + m * u / (1.0 - m * u)
            + 2.0 * n ** EIGVALSH_ERROR_POWER * u)


def ritz_certificate_slack(n: int) -> float:
    """nu_n = (1 + sqrt(2)) gamma_{2n} + 2 n**EIGVALSH_ERROR_POWER u.

    For A exactly Hermitian of order n and any nonzero vector y, take the
    computed z = fl(A y), w = fl(Re y^H z) and s = fl(y^H y), the last two
    real dot products of y's and z's 2n float components, and F = ||A||_F.
    If fl(w/s + nu_n F) < c for some c, eigvalsh returns a smallest
    eigenvalue of A below c.  With u the unit roundoff and gamma_k = k u
    / (1 - k u) (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., sections 3.1 and 3.6):

    1. The product.  Re z_i and Im z_i are each a real inner product of
       2n terms, so |z - A y| <= sqrt(2) gamma_{2n} |A| |y| entrywise.
    2. The quotient.  |w - Re y^H z| <= gamma_{2n} |y|^T |z|, and y^H A y
       is real, so |w - y^H A y| <= (1 + sqrt(2)) gamma_{2n} (1 +
       gamma_{2n}) |y|^T |A| |y|, with |y|^T |A| |y| <= ||A||_F ||y||**2.
       And s = ||y||**2 (1 + theta), |theta| <= gamma_{2n}.
    3. eigvalsh.  The exact quotient y^H A y / ||y||**2 is at least
       lambda_min(A), and eigvalsh returns lambda_min(A) within p(n) u
       ||A||_2 <= p(n) u F (LAPACK Users' Guide, section 4.7), p(n) =
       n**EIGVALSH_ERROR_POWER as in cholesky_proof_slack.

    So eigvalsh's value is at most w/s + ((1 + sqrt(2)) gamma_{2n} +
    p(n) u) F to first order.  What is left is relative to F, since |w/s|
    <= (1 + O(n u)) F: theta moves w/s by gamma_{2n} F, and the division,
    the sum and the roundings of fl(F) by a few u F more, so the second
    p(n) u covers them from n = 3 on.  A c of either sign works, as the
    sum's rounding is relative to its terms, not to c.
    """
    u = UNIT_ROUNDOFF
    k = 2 * n
    return ((1.0 + math.sqrt(2.0)) * k * u / (1.0 - k * u)
            + 2.0 * n ** EIGVALSH_ERROR_POWER * u)


def hermiticity_deviation(m: np.ndarray) -> float:
    """Largest entry of |M - M^H|, for one matrix or a stack of matrices.

    0.0 at once when M equals M^H entry for entry, as on any Hermitian
    stack the package builds.  That test conjugates HERM_CHUNK_BYTES of
    M^H at a time, along M's leading axis, so a large stack is never
    copied whole, and a stack that small is compared in one go.  A lone
    matrix is compared in row strips from the diagonal on, rows a:b
    against columns a:b from row a down: every pair of mirrored entries
    meets in the strip of the upper one's row, so the upper triangle and
    the diagonal decide it, in about half the work.  A NaN
    entry never compares equal and still reads NaN.  An infinite entry
    mirrored by its conjugate reads 0.0, not the NaN of inf - inf;
    from_matrix refuses it before, and validate_gsic fails its stack on
    completeness.  One left unmirrored reads that NaN or inf, without a
    RuntimeWarning.
    """
    mt = m.swapaxes(-1, -2)
    step = HERM_CHUNK_BYTES * len(m) // (m.nbytes or 1) or 1
    for start in range(0, len(m), step):
        rows = slice(start, start + step)
        part = (rows, slice(start, None)) if m.ndim == 2 else rows
        if not (m[part] == mt[part].conj()).all():
            with np.errstate(invalid="ignore"):
                return float(np.abs(m - mt.conj()).max())
    return 0.0


def require_real(value, tol: float, what: str) -> np.ndarray:
    """Real part of a scalar or array whose imaginary parts all lie within tol.

    Raises NumericIntegrityError otherwise, a NaN residue included.
    """
    value = np.asarray(value)
    residue = float(np.abs(value.imag).max())
    if not residue <= tol:
        raise NumericIntegrityError(
            f"{what} has imaginary residue {residue:.3e}")
    return value.real
