"""Entanglement tests built on symmetric informationally complete measurements.

The bipartite test pairs one measurement per party, sums the matched
outcome correlations

    J = sum_j Tr((P_j (x) Q_j) rho)

and compares against the separable ceiling (a*d**2 + 1)/(d*(d + 1)),
which any separable state obeys whenever both sets share the purity a.
A value above the ceiling certifies entanglement; a value below it is
inconclusive.  Two-party tests evaluate J through the pair's centred
witness (_Witness), which also gives the margin above the ceiling
directly.  The multipartite variant averages the per-party ceilings and
tolerates different purities per party; it evaluates J through the
uncentred W = sum_j P_j (x) Q_j (x) ..., laid out like rho, so that J
is one dot product with rho's entries.  Each witness is built once per
measurement tuple and kept in one store (_cached), a weak-key dict per
set of the tuple, so it lives no longer than any set of the tuple.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (CORR_IMAG_TOL, IMAG_TOL, PURITY_MATCH_TOL, RANGE_SLACK,
                     _centred_rows, check_dim, check_measurements, check_steps,
                     margin_error_bound, purity_range_deviation, require_real)
from .gsic import GsicSet, _purity_excess, conjugate_gsic, construct_gsic
from .operator_basis import OperatorBasis, gell_mann_basis
from .states import (DensityMatrix, _bell_kets, _belldiag_c_weights,
                     _diagmix_weights, _isotropic_weights, _weights_deviation,
                     pair_axes)

ENTANGLED_DETECTED = "ENTANGLED_DETECTED"
INCONCLUSIVE = "INCONCLUSIVE"


def verdict(flagged: bool) -> str:
    """ENTANGLED_DETECTED for a flagged state, INCONCLUSIVE otherwise."""
    return ENTANGLED_DETECTED if flagged else INCONCLUSIVE


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of one entanglement test."""

    state_label: str
    dim: int
    parties: int
    t: float
    a: float
    j_value: float
    bound: float
    margin: float
    verdict: str


def _trace(kernel: np.ndarray, rho: DensityMatrix) -> float:
    """Tr(A rho), checked real, from A transposed and flattened row-major."""
    value = kernel @ rho.matrix.reshape(-1)
    return float(require_real(value, IMAG_TOL, "correlation sum"))


class _Witness:
    """The centred witness of one measurement pair, built once.

    With X_j = P_j - I/d**2 and Y_j = Q_j - I/d**2, completeness gives
    sum_j X_j = sum_j Y_j = 0, so for any state of unit trace

        J = 1/d**2 + Tr(K rho),   K = sum_j X_j (x) Y_j,

    and the separable ceiling sits excess = d (a_ex,p + a_ex,q)/(2(d + 1))
    above 1/d**2, with a_ex = t**2 (d - 1)(d + 1)**3 = a - 1/d**3 taken
    from each set's t.  So the margin Tr(K rho) - excess is formed
    without a difference of two numbers near 1/d**2.  K is one GEMM of
    the sets' centred matrices and one axis permutation, O(d**6), kept
    as its transpose flattened so that Tr(K rho) is one O(d**4) dot
    product with the row-major entries of rho.  For a Bell mixture, the
    (d, d) table of K's Bell diagonal (bell_table) gives it in d**2
    terms.
    """

    def __init__(self, p: GsicSet, q: GsicSet):
        if not abs(p.a - q.a) <= PURITY_MATCH_TOL:
            raise ValueError(
                f"the two sets must share the purity parameter, got "
                f"{p.a} and {q.a}")
        d = self.dim = p.dim
        self.excess = d * (_purity_excess(d, p.t) + _purity_excess(d, q.t)) / (
            2.0 * (d + 1.0))
        self.error_bound = margin_error_bound(p, q)
        self.bound = bipartite_bound(d, p.a)
        # (X.T @ Y)[(a, b), (c, e)] = K[(a, c), (b, e)]
        k = (_centred_rows(p).T @ _centred_rows(q)).reshape((d,) * 4)
        self.kernel = k.transpose(1, 3, 0, 2).reshape(-1)

    def trace(self, rho: DensityMatrix) -> float:
        """Tr(K rho), checked real."""
        return _trace(self.kernel, rho)

    def bell_table(self) -> np.ndarray:
        """The (d, d) real table B[s, t] = <Phi_st|K|Phi_st> of Bell labels.

        For the Bell mixture rho = sum_st W[s, t] |Phi_st><Phi_st|,
        Tr(K rho) = sum_st W[s, t] B[s, t].  With Phi_st = (1/sqrt(d))
        sum_j w**(j*s) |j, j+t> (states._bell_kets), B[s, t] = (1/d)
        sum_m w**(s*m) H[m, t], where H[m, t] = sum_j K[(j, j+t), (j+m,
        j+m+t)] gathers the d**3 entries of K on those kets: one inverse
        DFT over s, O(d**3) in all.
        """
        d = self.dim
        ket = _bell_kets(d)
        j = np.arange(d)
        # kernel holds K transposed: k_t[x, y] = K[y, x]
        k_t = self.kernel.reshape(d * d, d * d)
        h = k_t[ket[(j[:, None] + j) % d], ket].sum(axis=1)
        return require_real(np.fft.ifft(h, axis=0), IMAG_TOL,
                            "correlation sum")

    def assess(self, deviation, trace):
        """j_value, margin and flag of states from deviation and Tr(K rho).

        j_value is 1/d**2 + trace, the margin is trace - excess, and a
        state is flagged when its margin exceeds error_bound plus its
        deviation.  Floats give floats, and arrays give arrays with one
        entry per state.
        """
        margin = trace - self.excess
        return (1.0 / self.dim ** 2 + trace, margin,
                margin > self.error_bound + deviation)


# (kind, number of sets) -> set -> set -> ... -> what _cached built
_STORE: dict = {}


def _cached(kind: str, sets, build):
    """build(), kept for kind and the tuple of sets, each set by identity.

    The store holds one weakref.WeakKeyDictionary level per set of the
    tuple, so an entry goes when any set of its tuple dies; nothing
    kept may hold a set of its own tuple, or that set would never die.
    kind tells apart the _Witness of a pair and the multipartite kernel
    of the same two sets, and the number of sets keeps the leaf of a
    tuple from being read as a level of a longer one.  A level is made
    only on a miss, since this lookup runs on every J.
    """
    level = _STORE
    for key in [(kind, len(sets)), *sets[:-1]]:
        nxt = level.get(key)
        if nxt is None:
            nxt = level[key] = weakref.WeakKeyDictionary()
        level = nxt
    hit = level.get(sets[-1])
    if hit is None:
        hit = level[sets[-1]] = build()
    return hit


def _witness(p: GsicSet, q: GsicSet) -> _Witness:
    """The witness of (p, q), built on the first call for the pair."""
    return _cached("pair", (p, q), lambda: _Witness(p, q))


def j_bipartite(rho: DensityMatrix, p: GsicSet, q: GsicSet) -> float:
    """Matched-outcome correlation sum of two equal-purity measurements.

    J = 1/d**2 + Tr(K rho) from the pair's centred witness: O(d**6) to
    build it, once while p and q live, then one O(d**4) dot product.
    """
    check_measurements(rho, [p, q])
    return 1.0 / p.dim ** 2 + _witness(p, q).trace(rho)


def bipartite_bound(d: int, a: float) -> float:
    """Separable ceiling of the bipartite correlation sum.

    Rejects a purity outside [1/d**3, 1/d**2].
    """
    check_dim(d)
    if not purity_range_deviation(d, a) <= RANGE_SLACK:
        raise ValueError(
            f"purity {a} outside the admissible range "
            f"[{1.0 / d**3}, {1.0 / d**2}] for dimension {d}")
    return (a * d * d + 1.0) / (d * (d + 1.0))


def detect_bipartite(rho: DensityMatrix, p: GsicSet, q: GsicSet) -> DetectionReport:
    """Evaluate the bipartite test and wrap the outcome in a report.

    j_value is j_bipartite(rho, p, q) and bound is bipartite_bound(d,
    p.a).  The margin is Tr(K rho) - excess from the pair's witness,
    the one j_bipartite reads, which equals J - bound up to rounding and
    the sets' deviations.  The state is flagged only when the margin
    exceeds E = margin_error_bound(p, q) plus rho.deviation: the
    worst-case error of the margin from rounding, from the sets'
    deviations and from the state's own.  So a flag never rests on
    rounding or on what an input tolerance admits, and a state on the
    bound reads INCONCLUSIVE.  The state is decided by
    rho.deviation_bound, which gives the same verdict wherever the margin
    lies at or below E or above E plus that bound; only in between is
    rho.deviation read, which from_matrix leaves to be computed then.
    """
    j_bipartite(rho, p, q)  # checks rho against the pair, builds the witness
    w = _witness(p, q)
    trace = w.trace(rho)
    deviation = rho.deviation_bound
    if w.error_bound < trace - w.excess <= w.error_bound + deviation:
        deviation = rho.deviation
    j_value, margin, flagged = w.assess(deviation, trace)
    return DetectionReport(
        state_label=rho.label, dim=p.dim, parties=2, t=p.t, a=p.a,
        j_value=j_value, bound=w.bound, margin=margin,
        verdict=verdict(flagged))


def _multipartite_kernel(sets: list[GsicSet]) -> np.ndarray:
    """W = sum_j P_j (x) Q_j (x) ..., transposed and flattened row-major.

    So Tr(W rho) is its dot product with the row-major entries of rho.
    Row j of a Khatri-Rao product holds the Kronecker product of its
    sets' j-th operators; one GEMM of inner size d**2 joins the product
    of the first N//2 sets' (d**2, d**2) operator matrices with that of
    the rest, O(d**(2N + 2)), and one permutation of the 2N axes, (row,
    column) per party, puts every column axis first.
    """
    d, n = sets[0].dim, len(sets)
    m = d * d

    def khatri_rao(group):
        mats = [g.operators.reshape(m, m) for g in group]
        return reduce(lambda x, y: (x[:, :, None] * y[:, None]).reshape(m, -1),
                      mats)

    w = khatri_rao(sets[:n // 2]).T @ khatri_rao(sets[n // 2:])
    order = [*range(1, 2 * n, 2), *range(0, 2 * n, 2)]
    return w.reshape((d,) * (2 * n)).transpose(order).reshape(-1)


def j_multipartite(rho: DensityMatrix, sets: list[GsicSet]) -> float:
    """Matched-outcome correlation sum with one measurement per party.

    J = Tr(W rho), W = sum_j P_j (x) Q_j (x) ..., for any N >= 2 and sets
    of different t.  W costs O(d**(2N + 2)) once per tuple of sets and
    is kept until any set of the tuple dies (_cached); each state then
    costs one O(d**(2N)) dot product.
    """
    n = rho.parties
    if n < 2:
        raise ValueError(f"need at least two parties, got {n}")
    check_measurements(rho, sets)
    return _trace(_cached("multipartite", sets,
                          lambda: _multipartite_kernel(sets)), rho)


def multipartite_bound(d: int, a_values: list[float]) -> float:
    """Fully separable ceiling: the mean of each party's bipartite ceiling."""
    if len(a_values) < 2:
        raise ValueError(f"need at least two purities, got {len(a_values)}")
    terms = [bipartite_bound(d, a) for a in a_values]
    return sum(terms) / len(terms)


def correlation_matrix(rho: DensityMatrix, basis: OperatorBasis) -> np.ndarray:
    """Two-body correlation coefficients of a bipartite state.

    Entry (j, k) is Tr(rho F_j (x) F_k) / 2, the expansion coefficient of
    rho over generator products at the normalization Tr(lambda**2) = 2,
    computed as G pair_axes(rho) G^T / 2 with G the generator matrix, in
    O(d**6).  Any separable state keeps the trace at or below (d - 1)/(2d).
    """
    check_measurements(rho, [basis, basis])
    gens = basis.generators.reshape(len(basis.generators), -1)
    raw = gens @ pair_axes(rho) @ gens.T
    return 0.5 * require_real(raw, CORR_IMAG_TOL, "correlation matrix")


def trace_t_bound(d: int) -> float:
    """Separable ceiling of the correlation-matrix trace."""
    check_dim(d)
    return (d - 1.0) / (2.0 * d)


# family -> dimension -> (grid start, factory of the Bell-label weight
# tables of a grid, or of one point given a float); every grid ends at 1
SCAN_FAMILIES = {
    "isotropic": lambda d: (0.0, lambda x: _isotropic_weights(d, x)),
    "belldiag-c": lambda d: (1.0 / (d * d),
                             lambda c: _belldiag_c_weights(d, c)),
    "diagmix": lambda d: (0.0, lambda x: _diagmix_weights(d, x)),
}


@dataclass(frozen=True, eq=False)
class FamilyScan:
    """A family scan: J, margin and flag of each grid point, as arrays.

    Entry i of j_values, margins and flagged belongs to grid[i]; every
    grid point shares the bound.
    """

    grid: np.ndarray
    j_values: np.ndarray
    margins: np.ndarray
    flagged: np.ndarray  # bool
    bound: float
    threshold: float  # NaN when the grid shows no resolved crossing
    guaranteed: float  # threshold above which the family type is always flagged


def scan_family(family: str, p: GsicSet, steps: int) -> FamilyScan:
    """Test a one-parameter state family on a grid and locate its crossing.

    Families: "isotropic" (mixing weight alpha on [0, 1]), "belldiag-c"
    (identity-label weight c on [1/d**2, 1], rest uniform) and "diagmix"
    (dominant weight a1 on [0, 1]), all Bell mixtures.  The paired set is
    conj(p), and the pair's witness and its Bell table B are built once:
    a grid state is then its weight table W, the one the family's state
    constructor mixes, and Tr(K rho) = W . B, a dot product of d**2
    terms, gives both its J and its margin.  The whole grid is one
    (steps, d, d) stack of tables from the family's weight helper, one
    reduction gives every deviation |sum W - 1|, and array expressions
    (_Witness.assess) every J, margin and flag, which the scan keeps as
    arrays; only W . B runs per row, as the dot product a lone table
    gets, bit for bit.  At most MAX_STEPS steps (errors.check_steps),
    which bounds the stack's memory.  Each grid point's J, margin and
    flag are what detect_bipartite gives the constructed state, up to
    rounding well inside E (see errors.margin_error_bound).  Each state
    is affine in its parameter and Tr(K rho) is linear in rho, so the
    margin is affine and the crossing is exact by linear interpolation
    between the two grid points that bracket the sign change.  Every
    family's fidelity rises with its parameter.  With E =
    margin_error_bound(p, conj(p)), the crossing counts as resolved only
    when every grid step raises the margin by more than 2E: each margin
    is off by at most E, the family's weights summing to 1 to within a
    few eps, so only such a rise is certainly real.  Otherwise the
    crossing is NaN, as it is when the grid never crosses the bound.
    """
    check_steps(steps)
    if p.t <= 0:
        raise ValueError(f"scan needs a positive mixing parameter, got {p.t}")
    if family not in SCAN_FAMILIES:
        raise ValueError(f"unknown scan family {family!r}")
    d = p.dim
    start, weights = SCAN_FAMILIES[family](d)
    w = _Witness(p, conjugate_gsic(p))
    bell = w.bell_table().ravel()
    grid = np.linspace(start, 1.0, steps)
    tables = weights(grid)
    flat = tables.reshape(steps, -1)
    # one d**2-term dot product per row, as a lone table gets: a stacked
    # flat @ bell (GEMV) rounds otherwise on some rows
    traces = np.array([row @ bell for row in flat])
    j_values, m, flagged = w.assess(_weights_deviation(tables), traces)
    threshold = float("nan")
    crossed = np.flatnonzero((m[:-1] <= 0.0) & (m[1:] > 0.0))
    if np.all(np.diff(m) > 2.0 * w.error_bound) and crossed.size:
        i = crossed[0]
        threshold = float(grid[i] - m[i] * (grid[i + 1] - grid[i])
                          / (m[i + 1] - m[i]))
    # worst case over every state of the family type at the purity of p
    guaranteed = (1.0 / (d + 1.0) if family == "isotropic"
                  else (1.0 + 1.0 / (p.a * d * d)) / (d + 1.0))
    return FamilyScan(grid=grid, j_values=j_values, margins=m,
                      flagged=flagged, bound=w.bound, threshold=threshold,
                      guaranteed=guaranteed)


def isotropic_threshold_scan(d: int, t: float, steps: int) -> float:
    """Noise level where the test starts flagging isotropic states.

    The crossing of the correlation sum through the separable ceiling,
    from scan_family; it sits at 1/(d + 1) for every feasible t > 0.
    Raises ValueError when the grid shows no resolved crossing.
    """
    threshold = scan_family("isotropic", construct_gsic(gell_mann_basis(d), t),
                            steps).threshold
    if np.isnan(threshold):
        raise ValueError(
            f"no resolved crossing on the grid for d = {d}, t = {t}")
    return threshold
