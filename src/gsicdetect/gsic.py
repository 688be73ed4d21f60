"""Symmetric informationally complete measurements with tunable purity.

A set of d**2 positive operators P_j summing to the identity is built
from an orthonormal traceless Hermitian basis {F_a} and one mixing
parameter t:

    P_j     = I/d**2 + t * (F - d*(d+1)*F_j)    for j < d**2 - 1
    P_last  = I/d**2 + t * (d+1) * F

where F is the sum of all generators.  Every member has trace 1/d, the
pairwise traces are uniform, and the common purity is

    a = 1/d**3 + t**2 * (d-1) * (d+1)**3

which sweeps from the fully degenerate value 1/d**3 at t = 0 up to at
most 1/d**2, the rank-one limit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (CAP_EIG_SLACK, IMAG_TOL, VALIDATION_TOL,
                     InfeasibleParameterError, check_measurements,
                     hermiticity_deviation, purity_range_deviation,
                     require_real)
from .operator_basis import (OperatorBasis, ValidationOutcome,
                             hilbert_schmidt_gram)
from .states import (DensityMatrix, decode_complex, decode_int, encode_complex,
                     pair_axes)


@dataclass(frozen=True)
class GsicSet:
    """A symmetric informationally complete measurement.

    operators has shape (d**2, d, d); a is the common purity Tr(P_j**2)
    and t the mixing parameter the set was built with.
    """

    dim: int
    t: float
    a: float
    operators: np.ndarray
    basis_id: str


class FeasibleT(NamedTuple):
    t: float
    cap: str  # "positivity" or "a-max"


def purity_from_t(d: int, t: float) -> float:
    """Common purity of the measurement built at mixing parameter t."""
    return 1.0 / d**3 + t * t * (d - 1.0) * (d + 1.0) ** 3


def _operators(basis: OperatorBasis, t: float) -> np.ndarray:
    d = basis.dim
    f_sum = basis.basis_sum
    eye = np.eye(d, dtype=complex) / d**2
    ops = np.empty((d * d, d, d), dtype=complex)
    ops[:-1] = eye + t * (f_sum - d * (d + 1.0) * basis.generators)
    ops[-1] = eye + t * (d + 1.0) * f_sum
    return ops


def construct_gsic(basis: OperatorBasis, t: float) -> GsicSet:
    """Build the measurement at mixing parameter t.

    The set is returned only if validate_gsic passes it, whatever basis
    it came from.  Raises InfeasibleParameterError when some operator
    acquires an eigenvalue below -VALIDATION_TOL/d**2 (a relative
    overshoot eps of the cap gives -eps/d**2), carrying the operator
    index and eigenvalue; ValueError for any other failed check.
    """
    if not np.isfinite(t):
        raise ValueError(f"mixing parameter must be finite, got {t}")
    if t < 0:
        raise ValueError(f"mixing parameter must be nonnegative, got {t}")
    g = GsicSet(dim=basis.dim, t=float(t), a=purity_from_t(basis.dim, t),
                operators=_operators(basis, t), basis_id=basis.basis_id)
    return _require_valid(g, f"t = {t}")


def feasible_t(basis: OperatorBasis) -> FeasibleT:
    """Largest usable mixing parameter and the constraint that caps it.

    The positivity of every operator bounds t from above, and so does
    the purity ceiling a <= 1/d**2.  Whichever bound binds first wins.
    Since P_j = I/d**2 + t*M_j with M_j independent of t, the smallest
    eigenvalue of P_j is exactly 1/d**2 + t*lambda_min(M_j), so the
    positivity cap is 1/(d**2 |min_j lambda_min(M_j)|) in closed form.
    """
    d = basis.dim
    t_purity = (d * (d + 1.0)) ** -1.5
    directions = _operators(basis, 1.0) - np.eye(d) / d**2
    lam = float(np.linalg.eigvalsh(directions)[:, 0].min())
    if 1.0 / d**2 + t_purity * lam >= -CAP_EIG_SLACK:
        return FeasibleT(t=t_purity, cap="a-max")
    return FeasibleT(t=1.0 / (d * d * abs(lam)), cap="positivity")


def max_feasible_t(basis: OperatorBasis) -> float:
    """Largest t for which every operator stays PSD and a <= 1/d**2."""
    return feasible_t(basis).t


def conjugate_gsic(g: GsicSet) -> GsicSet:
    """Entrywise complex conjugate of a measurement.

    The conjugate set has the same trace statistics and the same purity,
    and is the canonical partner in the two-sided entanglement tests.
    """
    return GsicSet(dim=g.dim, t=g.t, a=g.a, operators=g.operators.conj(),
                   basis_id=g.basis_id + ":conj")


def validate_gsic(g: GsicSet, tol: float = VALIDATION_TOL) -> ValidationOutcome:
    """Check the defining properties of a measurement set.

    Deviations reported: hermiticity, completeness (sum to identity),
    operator traces against 1/d, common purity against a, pairwise
    traces against (1 - d*a)/(d*(d**2 - 1)), the PSD floor as
    d**2 * max(0, -lambda_min), on the 1/d**2 scale of the operators'
    eigenvalues, the admissible purity range, and a against
    purity_from_t(d, t), which is infinite unless t is finite and
    nonnegative.
    """
    ops = np.asarray(g.operators)
    d = g.dim
    want = (d * d, d, d)
    if ops.shape != want:
        raise ValueError(f"operator array has shape {ops.shape}, expected {want}")
    herm = hermiticity_deviation(ops)
    completeness = float(np.abs(ops.sum(axis=0) - np.eye(d)).max())
    traces = np.einsum("aii->a", ops)
    op_trace = float(np.abs(traces - 1.0 / d).max())
    gram = hilbert_schmidt_gram(ops).real
    purity = float(np.abs(np.diag(gram) - g.a).max())
    off = gram - (1.0 - d * g.a) / (d * (d * d - 1.0))
    np.fill_diagonal(off, 0.0)
    cross = float(np.abs(off).max())
    min_eig = float(np.linalg.eigvalsh(ops)[:, 0].min())
    psd = d * d * max(0.0, -min_eig)
    t_purity = abs(purity_from_t(d, g.t) - g.a) if g.t >= 0 else np.inf
    deviations = {
        "hermiticity": herm,
        "completeness": completeness,
        "operator_trace": op_trace,
        "purity": purity,
        "cross_trace": cross,
        "psd": psd,
        "a_range": purity_range_deviation(d, g.a),
        "t_purity": t_purity,
    }
    return ValidationOutcome(deviations=deviations, tolerance=tol)


def _require_valid(g: GsicSet, what: str) -> GsicSet:
    """g if validate_gsic passes it; the one gate for every set returned.

    A failed psd check raises InfeasibleParameterError with the index and
    eigenvalue of the worst operator; any other failure raises ValueError
    naming the largest deviation, a NaN counting as the largest.
    """
    outcome = validate_gsic(g)
    if outcome.passed:
        return g
    dev = outcome.deviations
    if not dev["psd"] <= outcome.tolerance:
        smallest = np.linalg.eigvalsh(g.operators)[:, 0]
        worst = int(np.argmin(smallest))
        raise InfeasibleParameterError(
            f"{what} is infeasible: operator {worst} of {g.dim ** 2} has "
            f"eigenvalue {smallest[worst]:.3e}",
            index=worst, eigenvalue=float(smallest[worst]))
    worst = max(dev, key=lambda k: np.nan_to_num(dev[k], nan=np.inf))
    raise ValueError(f"{what} fails validation: {worst} deviates by "
                     f"{dev[worst]:.3e}")


def index_of_coincidence(rho: DensityMatrix, g: GsicSet) -> float:
    """Sum over outcomes of Tr(P_j rho)**2, from one O(d**4) product, checked real."""
    check_measurements(rho, [g])
    ops = g.operators.reshape(g.dim ** 2, -1)
    probs = require_real(ops @ pair_axes(rho), IMAG_TOL, "probabilities")
    return float(np.sum(probs * probs))


def write_gsic(g: GsicSet, path: str | Path) -> None:
    """Serialize a measurement set to JSON."""
    ops = np.asarray(g.operators)
    payload = {"d": g.dim, "t": g.t, "a": g.a, "basis_id": g.basis_id,
               "operators": encode_complex(ops.reshape(len(ops), -1))}
    Path(path).write_text(json.dumps(payload))


def read_gsic(path: str | Path) -> GsicSet:
    """Load a measurement set from JSON; it must pass validate_gsic."""
    payload = json.loads(Path(path).read_text())
    try:
        d = decode_int(payload["d"])
        t = float(payload["t"])
        a = float(payload["a"])
        basis_id = str(payload["basis_id"])
        ops = decode_complex(payload["operators"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed measurement file {path}: {exc}") from exc
    if ops.shape != (d * d, d * d):
        raise ValueError(
            f"measurement file {path} holds {ops.shape} entries, "
            f"expected ({d * d}, {d * d})")
    g = GsicSet(dim=d, t=t, a=a, operators=ops.reshape(d * d, d, d),
                basis_id=basis_id)
    return _require_valid(g, f"measurement file {path}")
