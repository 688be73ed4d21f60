"""Independent cross-checks for the detection machinery.

Both routines deliberately avoid the optimized code paths: the
correlation sum is reassembled from explicit Kronecker products, and
entanglement is certified through the partial-transpose spectrum.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import IMAG_TOL, PSD_TOL, check_measurements, require_real
from .gsic import GsicSet
from .states import DensityMatrix, _min_eigenvalue, partial_transpose


class PptResult(NamedTuple):
    min_eigenvalue: float
    npt: bool


def ppt_test(rho: DensityMatrix) -> PptResult:
    """Partial-transpose check of a bipartite state.

    npt is True when the partially transposed matrix has an eigenvalue
    below -PSD_TOL, which certifies entanglement.  The spectrum is taken
    block by block on the matrix's zero pattern (states._min_eigenvalue),
    which is exact: reordering rows and columns alike keeps the spectrum,
    and a block-diagonal one is the union of its blocks'.  A Bell mixture
    rho splits into d sectors of the labels (b - a) mod d of its kets
    |a, b>, and its partial transpose into d sectors of (a + b) mod d, so
    the check costs d blocks of O(d**3) there and one O(d**6) solve on a
    dense state.  It reads only the partial transpose, not any witness
    or measurement.
    """
    if rho.parties != 2:
        raise ValueError(f"need a two-party state, got {rho.parties} parties")
    min_eig = _min_eigenvalue(partial_transpose(rho, 1))
    return PptResult(min_eigenvalue=min_eig, npt=min_eig < -PSD_TOL)


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
