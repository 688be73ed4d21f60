"""Symmetric informationally complete measurements and entanglement tests.

The package builds one-parameter families of symmetric informationally
complete measurements in any finite dimension, validates their defining
trace statistics, and uses matched-outcome correlation sums to certify
entanglement of bipartite and multipartite states.
"""

from .criteria import (DetectionReport, ENTANGLED_DETECTED, INCONCLUSIVE,
                       bipartite_bound, correlation_matrix, detect_bipartite,
                       isotropic_threshold_scan, j_bipartite, j_multipartite,
                       multipartite_bound, scan_family, trace_t_bound)
from .errors import InfeasibleParameterError, NumericIntegrityError
from .gsic import (FeasibleT, GsicSet, conjugate_gsic, construct_gsic,
                   feasible_t, index_of_coincidence, max_feasible_t,
                   purity_from_t, read_gsic, validate_gsic, write_gsic)
from .operator_basis import (OperatorBasis, ValidationOutcome,
                             gell_mann_basis, verify_basis)
from .oracle import PptResult, brute_force_j, ppt_test
from .states import (DensityMatrix, bell_diagonal, diagonal_mixture,
                     isotropic, max_entangled, partial_transpose,
                     random_separable, read_state, tensor, weyl_operator,
                     write_state)

__all__ = [
    "DensityMatrix",
    "DetectionReport",
    "ENTANGLED_DETECTED",
    "FeasibleT",
    "GsicSet",
    "INCONCLUSIVE",
    "InfeasibleParameterError",
    "NumericIntegrityError",
    "OperatorBasis",
    "PptResult",
    "ValidationOutcome",
    "bell_diagonal",
    "bipartite_bound",
    "brute_force_j",
    "conjugate_gsic",
    "construct_gsic",
    "correlation_matrix",
    "detect_bipartite",
    "diagonal_mixture",
    "feasible_t",
    "gell_mann_basis",
    "index_of_coincidence",
    "isotropic",
    "isotropic_threshold_scan",
    "j_bipartite",
    "j_multipartite",
    "max_entangled",
    "max_feasible_t",
    "multipartite_bound",
    "partial_transpose",
    "ppt_test",
    "purity_from_t",
    "random_separable",
    "scan_family",
    "read_gsic",
    "read_state",
    "tensor",
    "trace_t_bound",
    "validate_gsic",
    "verify_basis",
    "weyl_operator",
    "write_gsic",
    "write_state",
]

__version__ = "0.1.0"
