"""Exact tensor product calculus for unitary groups.

Decomposes finite tensor products of irreducible representations through
the multiplier calculus, realizes intertwining operators as polynomial
invariants in paired Z/W variables, and extracts Clebsch-Gordan
coefficients through the Fock pairing.
"""

from .errors import CalculusError
from .cg_coefficients import (
    cg_coefficient,
    cg_coefficient_embedded,
    cg_table,
    tilde_map,
    verify_equivariance,
)
from .contragredient import (
    highest_weight_vector,
    lowest_weight_vector_check,
    negate_signature,
    reversal,
)
from .fock_pairing import pair, pair_truncated, truncate_columns
from .invariants import (
    ExponentMatrix,
    InvariantBasis,
    TensorProblem,
    diagonal_right_action,
    diophantine_solutions,
    generator,
    invariant_basis,
    monomial,
    unipotent_constraints,
)
from .polynomials import MultiPoly, Var, act_cols, act_rows, apply_diff, wvar, zvar
from .signatures import Signature, SignedSpectrum, normalize, sig
from .weyl_calculus import (
    compound_multiplier,
    multiplicity,
    simple_multiplier,
    stabilization_index,
    stable_decompose,
    tensor_decompose,
)

__all__ = [
    "CalculusError",
    "ExponentMatrix",
    "InvariantBasis",
    "MultiPoly",
    "Signature",
    "SignedSpectrum",
    "TensorProblem",
    "Var",
    "act_cols",
    "act_rows",
    "apply_diff",
    "cg_coefficient",
    "cg_coefficient_embedded",
    "cg_table",
    "compound_multiplier",
    "diagonal_right_action",
    "diophantine_solutions",
    "generator",
    "highest_weight_vector",
    "invariant_basis",
    "lowest_weight_vector_check",
    "monomial",
    "multiplicity",
    "negate_signature",
    "normalize",
    "pair",
    "pair_truncated",
    "reversal",
    "sig",
    "simple_multiplier",
    "stabilization_index",
    "stable_decompose",
    "tensor_decompose",
    "tilde_map",
    "truncate_columns",
    "unipotent_constraints",
    "verify_equivariance",
    "wvar",
    "zvar",
]

__version__ = "0.1.0"
