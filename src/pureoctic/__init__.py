"""Exact Galois-group machinery for pure octic polynomials X^8 + c over Q.

The classifier decides between five outcomes from the square class of c
alone; a splitting-field engine realizes the order-16 case explicitly with
its full subgroup/subfield lattice; Hilbert symbols and ternary quadratic
forms decide the quaternion and triquadratic embedding criteria; and a
mod-p factorization census independently checks every verdict.
"""

from .arith import Rational, SquareClass, factor, is_square, legendre, squarefree_part
from .binomial import GaloisTag, classify_octic
from .groups import (
    FinGroup,
    Perm,
    closure,
    fingerprint,
    hol_c8_model,
    identify,
    pauli_matrix_group,
)
from .oracle import census, consistent, factor_mod_p, group_cycle_types
from .qforms import (
    Place,
    TernaryForm,
    brauer_condition,
    equivalent,
    hilbert,
    pauli_embeddable,
    sl_search,
    witt_embeddable,
)
from .splitting import FieldElt, SplittingField, witt_T, witt_beta_rho

__version__ = "0.1.0"

__all__ = [
    "FieldElt", "FinGroup", "GaloisTag", "Perm", "Place",
    "Rational", "SplittingField", "SquareClass", "TernaryForm",
    "brauer_condition", "census", "classify_octic", "closure", "consistent",
    "equivalent", "factor", "factor_mod_p", "fingerprint",
    "group_cycle_types", "hilbert", "hol_c8_model", "identify", "is_square",
    "legendre", "pauli_embeddable", "pauli_matrix_group", "sl_search",
    "squarefree_part", "witt_T", "witt_beta_rho", "witt_embeddable",
]
