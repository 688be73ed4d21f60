"""Entanglement tests built on symmetric informationally complete measurements.

The bipartite test pairs one measurement per party, sums the matched
outcome correlations

    J = sum_j Tr((P_j (x) Q_j) rho)

and compares against the separable ceiling (a*d**2 + 1)/(d*(d + 1)),
which any separable state obeys whenever both sets share the purity a.
A value above the ceiling certifies entanglement; a value below it is
inconclusive.  The multipartite variant averages the per-party ceilings
and tolerates different purities per party.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (CORR_IMAG_TOL, IMAG_TOL, PURITY_MATCH_TOL, RANGE_SLACK,
                     check_dim, check_measurements, margin_error_bound,
                     purity_range_deviation, require_real)
from .gsic import GsicSet, conjugate_gsic, construct_gsic
from .operator_basis import OperatorBasis, gell_mann_basis
from .states import (DensityMatrix, _bell_mixture, diagonal_mixture, isotropic,
                     pair_axes)

ENTANGLED_DETECTED = "ENTANGLED_DETECTED"
INCONCLUSIVE = "INCONCLUSIVE"


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


def _correlation_sum(rho: DensityMatrix, sets: list[GsicSet]) -> float:
    """sum_j Tr((P_j (x) Q_j (x) ...) rho), contracted one party at a time.

    The first party is one GEMM of its operator matrix with pair_axes(rho);
    each later party multiplies and sums over its own pair, outcome by outcome.
    """
    dd = rho.local_dim ** 2
    x = sets[0].operators.reshape(dd, dd) @ pair_axes(rho)
    for g in sets[1:]:
        x = np.matmul(g.operators.reshape(dd, 1, dd), x.reshape(dd, dd, -1))
    return float(require_real(x.sum(), IMAG_TOL, "correlation sum"))


def j_bipartite(rho: DensityMatrix, p: GsicSet, q: GsicSet) -> float:
    """Matched-outcome correlation sum of two equal-purity measurements.

    Costs O(d**6) for the GEMM over p, then O(d**4) for q.
    """
    check_measurements(rho, [p, q])
    if not abs(p.a - q.a) <= PURITY_MATCH_TOL:
        raise ValueError(
            f"the two sets must share the purity parameter, got "
            f"{p.a} and {q.a}")
    return _correlation_sum(rho, [p, q])


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


def _report(rho: DensityMatrix, p: GsicSet, q: GsicSet,
            error_bound: float) -> DetectionReport:
    """Bipartite report, flagged when the margin exceeds error_bound plus
    the deviation of rho."""
    j = j_bipartite(rho, p, q)
    bound = bipartite_bound(p.dim, p.a)
    margin = j - bound
    flagged = margin > error_bound + rho.deviation
    verdict = ENTANGLED_DETECTED if flagged else INCONCLUSIVE
    return DetectionReport(state_label=rho.label, dim=p.dim, parties=2,
                           t=p.t, a=p.a, j_value=j, bound=bound,
                           margin=margin, verdict=verdict)


def detect_bipartite(rho: DensityMatrix, p: GsicSet, q: GsicSet) -> DetectionReport:
    """Evaluate the bipartite test and wrap the outcome in a report.

    The state is flagged only when J - bound exceeds E =
    margin_error_bound(p, q) plus rho.deviation: the worst-case error of
    that difference from rounding, from the sets' deviations and from
    the state's own.  So a flag never rests on rounding or on what an
    input tolerance admits, and a state on the bound reads INCONCLUSIVE.
    """
    return _report(rho, p, q, margin_error_bound(p, q))


def j_multipartite(rho: DensityMatrix, sets: list[GsicSet]) -> float:
    """Matched-outcome correlation sum with one measurement per party.

    Costs O(d**(2N + 2)) for the first party, O(d**(2N)) for each further one.
    """
    n = rho.parties
    if n < 2:
        raise ValueError(f"need at least two parties, got {n}")
    check_measurements(rho, sets)
    return _correlation_sum(rho, sets)


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


def _belldiag_c(d: int, c: float) -> DensityMatrix:
    """Weight c on the identity Bell label, the rest spread uniformly."""
    table = np.full((d, d), (1.0 - c) / (d * d - 1.0))
    table[0, 0] = c
    return _bell_mixture(table, f"belldiag-d{d}-c{table.max():g}")


# family -> dimension -> (grid start, state factory); every grid ends at 1
SCAN_FAMILIES = {
    "isotropic": lambda d: (0.0, lambda x: isotropic(d, x)),
    "belldiag-c": lambda d: (1.0 / (d * d), lambda c: _belldiag_c(d, c)),
    "diagmix": lambda d: (0.0, lambda x: diagonal_mixture(d, x)),
}


class FamilyScan(NamedTuple):
    grid: np.ndarray
    reports: list[DetectionReport]
    threshold: float  # NaN when the grid shows no resolved crossing
    guaranteed: float  # threshold above which the family type is always flagged


def scan_family(family: str, p: GsicSet, steps: int) -> FamilyScan:
    """Test a one-parameter state family on a grid and locate its crossing.

    Families: "isotropic" (mixing weight alpha on [0, 1]), "belldiag-c"
    (identity-label weight c on [1/d**2, 1], rest uniform) and "diagmix"
    (dominant weight a1 on [0, 1]).  Each state is affine in its
    parameter and J is linear in rho, so the margin J - bound is affine
    and the crossing is exact by linear interpolation between the two
    grid points that bracket the sign change.  Every family's fidelity
    rises with its parameter.  With E = margin_error_bound(p, conj(p)),
    computed once, the crossing counts as resolved only when every grid
    step raises the margin by more than 2E: each margin is off by at most
    E, the family's weights summing to 1 to within a few eps, so only
    such a rise is certainly real.  Otherwise the crossing is NaN, as it
    is when the grid never crosses the bound.  Each report is flagged as
    in detect_bipartite.  The paired set is conj(p).
    """
    if steps < 10:
        raise ValueError(f"need at least 10 grid steps, got {steps}")
    if p.t <= 0:
        raise ValueError(f"scan needs a positive mixing parameter, got {p.t}")
    if family not in SCAN_FAMILIES:
        raise ValueError(f"unknown scan family {family!r}")
    d = p.dim
    start, make = SCAN_FAMILIES[family](d)
    q = conjugate_gsic(p)
    grid = np.linspace(start, 1.0, steps)
    error_bound = margin_error_bound(p, q)
    reports = [_report(make(float(x)), p, q, error_bound) for x in grid]
    m = np.array([r.margin for r in reports])
    threshold = float("nan")
    crossed = np.flatnonzero((m[:-1] <= 0.0) & (m[1:] > 0.0))
    if np.all(np.diff(m) > 2.0 * error_bound) and crossed.size:
        i = crossed[0]
        threshold = float(grid[i] - m[i] * (grid[i + 1] - grid[i])
                          / (m[i + 1] - m[i]))
    # worst case over every state of the family type at the purity of p
    guaranteed = (1.0 / (d + 1.0) if family == "isotropic"
                  else (1.0 + 1.0 / (p.a * d * d)) / (d + 1.0))
    return FamilyScan(grid=grid, reports=reports, threshold=threshold,
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
