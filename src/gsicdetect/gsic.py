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

import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (CAP_EIG_SLACK, IMAG_TOL, VALIDATION_TOL,
                     InfeasibleParameterError, check_measurements,
                     hermiticity_deviation, purity_range_deviation,
                     require_real)
from .operator_basis import (OperatorBasis, ValidationOutcome,
                             hilbert_schmidt_gram)
from .states import (DensityMatrix, _lowest_eigenvalue, _read_head,
                     _read_raw, _write_raw, decode_float, decode_int,
                     pair_axes)


@dataclass(frozen=True, eq=False)
class GsicSet:
    """A symmetric informationally complete measurement.

    operators has shape (d**2, d, d); a is the common purity Tr(P_j**2)
    and t the mixing parameter the set was built with.  deviation is the
    largest deviation validate_gsic found when construct_gsic or read_gsic
    returned the set; a set made directly is taken as exact.  Sets
    compare and hash by identity, which is how criteria keys the witness
    of a tuple of sets.
    """

    dim: int
    t: float
    a: float
    operators: np.ndarray
    basis_id: str
    deviation: float = 0.0

    @cached_property
    def centred(self) -> np.ndarray:
        """(d**2, d**2) matrix whose row j is X_j = P_j - I/d**2, row-major.

        Computed on first use and kept: replace() and conjugate_gsic()
        return new sets, which compute their own.
        """
        d = self.dim
        x = np.array(self.operators, dtype=complex).reshape(d * d, d * d)
        x[:, ::d + 1] -= 1.0 / (d * d)
        return x

    @cached_property
    def centred_norms(self) -> np.ndarray:
        """Entrywise 1-norms ||X_j||_1 of the rows of centred."""
        return np.abs(self.centred).sum(axis=1)


class FeasibleT(NamedTuple):
    t: float
    cap: str  # "positivity" or "a-max"


def _purity_excess(d: int, t: float) -> float:
    """a - 1/d**3 = Tr X_j**2 of the measurement built at mixing parameter t."""
    return t * t * (d - 1.0) * (d + 1.0) ** 3


def purity_from_t(d: int, t: float) -> float:
    """Common purity of the measurement built at mixing parameter t."""
    return 1.0 / d**3 + _purity_excess(d, t)


def _operators(basis: OperatorBasis, t: float) -> np.ndarray:
    d = basis.dim
    f_sum = basis.basis_sum
    if not np.isfinite(f_sum).all():
        raise ValueError("basis has non-finite entries")
    eye = np.eye(d, dtype=complex) / d**2
    ops = np.empty((d * d, d, d), dtype=complex)
    # In place, in the order c*F_j, F - that, t*that, I/d**2 + that, on
    # which the operators, and so the files, depend bit for bit.
    np.multiply(d * (d + 1.0), basis.generators, out=ops[:-1])
    np.subtract(f_sum, ops[:-1], out=ops[:-1])
    ops[:-1] *= t
    ops[:-1] += eye
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
    Only the one smallest eigenvalue of the stack is needed: it comes from
    _lowest_eigenvalue with floor +inf, bit for bit the batched eigvalsh
    minimum.  eigvalsh solves the PROOF_CHUNK directions of lowest
    Gershgorin bound, one batched Cholesky factor per slab of PROOF_SLAB
    shifted copies, written over them, proves the others above their
    minimum, and eigvalsh takes only those it cannot prove.  A basis with
    a NaN or an infinite entry raises ValueError.
    """
    d = basis.dim
    t_purity = (d * (d + 1.0)) ** -1.5
    directions = _operators(basis, 1.0)
    directions -= np.eye(d) / d**2
    lam = _lowest_eigenvalue(directions, np.inf)
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
    return replace(g, operators=g.operators.conj(),
                   basis_id=g.basis_id + ":conj")


def validate_gsic(g: GsicSet, tol: float = VALIDATION_TOL) -> ValidationOutcome:
    """Check the defining properties of a measurement set.

    Deviations reported: hermiticity, completeness (sum to identity),
    operator traces against 1/d, common purity against a, pairwise
    traces against (1 - d*a)/(d*(d**2 - 1)), the PSD floor as
    d**2 * max(0, -lambda_min), on the 1/d**2 scale of the operators'
    eigenvalues, the admissible purity range, and a against
    purity_from_t(d, t), which is infinite unless t is finite and
    nonnegative.  The PSD floor reads only min(0, lambda_min), from
    _lowest_eigenvalue with floor 0, the prover that feasible_t and
    from_matrix read theirs from: one batched Cholesky factor per slab
    of PROOF_SLAB shifted copies proves them positive definite, and
    eigvalsh runs only on the operators whose proof fails, as on the one
    singular operator at the cap; the value is bit for bit that of a
    batched eigvalsh.  A stack with a NaN or infinite entry, which the
    prover does not take, gets a NaN PSD floor.
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
    gram = hilbert_schmidt_gram(ops)
    purity = float(np.abs(np.diag(gram) - g.a).max())
    # in place on the real Gram matrix, with no copy of it: max(g.max(),
    # -g.min()) is np.abs(g).max(), NaN included, up to the sign of a
    # zero, which abs clears
    gram -= (1.0 - d * g.a) / (d * (d * d - 1.0))
    np.fill_diagonal(gram, 0.0)
    cross = abs(float(max(gram.max(), -gram.min())))
    # a NaN or infinite entry leaves the completeness residual non-finite,
    # and so does nothing else but an overflow of the sum
    psd = (d * d * max(0.0, -_lowest_eigenvalue(ops, 0.0))
           if math.isfinite(completeness) else np.nan)
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
    """g, with its largest deviation, if validate_gsic passes it.

    The one gate for every set returned.  A psd deviation above the
    tolerance raises InfeasibleParameterError with the index and
    eigenvalue of the worst operator; any other failure, a NaN psd
    deviation of a non-finite stack included, raises ValueError naming
    the largest deviation, a NaN counting as the largest.
    """
    outcome = validate_gsic(g)
    if outcome.passed:
        return replace(g, deviation=max(outcome.deviations.values()))
    dev = outcome.deviations
    if dev["psd"] > outcome.tolerance:
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
    """Serialize a measurement set to a file.

    A head {"encoding", "d", "t", "a", "basis_id"}, then the (d**2, d, d)
    operators' raw bytes (_write_raw).
    """
    _write_raw(path, {"d": g.dim, "t": g.t, "a": g.a, "basis_id": g.basis_id},
               g.operators)


def read_gsic(path: str | Path) -> GsicSet:
    """Load a measurement set from a file; it must pass validate_gsic.

    The file must be raw (_read_head), with exactly d**4 entries after
    its head (_read_raw).  d must be an integer >= 2, and t and a JSON
    numbers (decode_float).  A malformed file raises ValueError; a set
    above the cap on t, InfeasibleParameterError.
    """
    try:
        with open(path, "rb") as f:
            head = _read_head(f)
            d = decode_int(head["d"], 2)
            t = decode_float(head["t"])
            a = decode_float(head["a"])
            basis_id = str(head["basis_id"])
            ops = _read_raw(f, d**4)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed measurement file {path}: {exc}") from exc
    g = GsicSet(dim=d, t=t, a=a, operators=ops.reshape(d * d, d, d),
                basis_id=basis_id)
    return _require_valid(g, f"measurement file {path}")
