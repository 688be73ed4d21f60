"""Independent cross-checks for the detection machinery.

Both routines deliberately avoid the optimized code paths: the
correlation sum is reassembled from explicit Kronecker products, and
entanglement is certified through the partial-transpose spectrum.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import NumericIntegrityError
from .gsic import GsicSet
from .states import DensityMatrix, partial_transpose

NPT_TOL = 1e-10


class PptResult(NamedTuple):
    min_eigenvalue: float
    npt: bool


def ppt_test(rho: DensityMatrix) -> PptResult:
    """Partial-transpose check of a bipartite state.

    npt is True when the partially transposed matrix has an eigenvalue
    below -1e-10, which certifies entanglement.
    """
    if rho.parties != 2:
        raise ValueError(f"need a two-party state, got {rho.parties} parties")
    spectrum = np.linalg.eigvalsh(partial_transpose(rho, 1))
    min_eig = float(spectrum[0].real)
    return PptResult(min_eigenvalue=min_eig, npt=min_eig < -NPT_TOL)


def brute_force_j(rho: DensityMatrix, sets: list[GsicSet]) -> float:
    """Correlation sum via explicit Kronecker products.

    Slow reference implementation used to cross-check the contraction
    kernel behind j_bipartite and j_multipartite.
    """
    n = rho.parties
    if len(sets) != n:
        raise ValueError(f"state has {n} parties but {len(sets)} sets were given")
    d = rho.local_dim
    for g in sets:
        if g.dim != d:
            raise ValueError(
                f"measurement dimension {g.dim} does not match the state "
                f"dimension {d}")
    total = 0j
    for j in range(d * d):
        op = reduce(np.kron, [g.operators[j] for g in sets])
        total += np.trace(op @ rho.matrix)
    if abs(total.imag) > 1e-8:
        raise NumericIntegrityError(
            f"correlation sum has imaginary residue {total.imag:.3e}")
    return float(total.real)
