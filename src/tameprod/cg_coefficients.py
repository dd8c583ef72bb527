"""Embedded target states and Clebsch-Gordan coefficients.

An invariant I pairs the tensor product of the factor modules (in the Z
rows) against the dual model of the target (in the W rows).  Contracting
I against a dual state f* through the W half of the Fock pairing gives
the embedded copy f~ of the corresponding target state inside the Z
variables; pairing f~ against products of factor states reads off the
Clebsch-Gordan coefficients.
"""

from __future__ import annotations

import math
from itertools import product

from .errors import RowAllocationViolation, SpanViolation
from .fock_pairing import pair, pair_truncated
from .linalg import solve_dict_system
from .polynomials import MultiPoly, act_cols, apply_diff


def tilde_map(invariant: MultiPoly, f_star: MultiPoly) -> MultiPoly:
    """Embedded state f~ = I(Z, D_W) f* |_{W=0}.

    The invariant may be expanded at any rank covering f*'s columns;
    higher columns differentiate f* to zero on their own.
    """
    res = apply_diff(invariant, f_star, over=frozenset({"W"}))
    return res.drop_vars(lambda v: v.matrix == "W")


def _check_factor_states(problem, factor_states):
    """factor_states[i] lists states of factor i, which must live in its Z rows."""
    if len(factor_states) != len(problem.factors):
        raise RowAllocationViolation(
            f"expected {len(problem.factors)} factor states, got {len(factor_states)}"
        )
    for i, states in enumerate(factor_states):
        lo = problem.row_offsets[i]
        hi = lo + problem.row_alloc[i]
        for state in states:
            for v in state.variables():
                if v.matrix != "Z" or not lo < v.row <= hi:
                    raise RowAllocationViolation(
                        f"state {i} uses {v}, outside Z rows {lo + 1}..{hi}"
                    )


def _check_dual(problem, f_star):
    for v in f_star.variables():
        if v.matrix != "W" or v.row > problem.q:
            raise RowAllocationViolation(f"dual state uses {v}, outside W rows 1..{problem.q}")


def _check_states(problem, factor_states, f_star):
    _check_factor_states(problem, [[s] for s in factor_states])
    _check_dual(problem, f_star)


def cg_coefficient(problem, invariant: MultiPoly, factor_states, f_star: MultiPoly):
    """<I | (state_1 ... state_r) f*>, the Clebsch-Gordan coefficient.

    Computed directly through the truncated Fock pairing; equal to
    <f~ | state_1 ... state_r> with f~ = tilde_map(invariant, f*).
    """
    _check_states(problem, factor_states, f_star)
    prod = f_star
    for s in factor_states:
        prod = prod * s
    return pair_truncated(invariant, prod)


def cg_coefficient_embedded(invariant: MultiPoly, factor_states, f_star: MultiPoly):
    """The same coefficient through the embedded state (consistency route)."""
    ftilde = tilde_map(invariant, f_star)
    prod = MultiPoly.const(1)
    for s in factor_states:
        prod = prod * s
    return pair(ftilde, prod)


def cg_table(basis, factor_states, f_star: MultiPoly):
    """Clebsch-Gordan coefficients of every basis invariant on every pick
    of one state per factor, read off one embedded state per invariant.

    factor_states[i] lists the states of factor i.  Returns one list per
    basis element, its values in the order of product(*factor_states);
    each equals cg_coefficient on the same states.
    """
    problem = basis.problem
    _check_factor_states(problem, factor_states)
    _check_dual(problem, f_star)
    # <f~ | s_1 ... s_r> = sum over one term per state of the product of
    # their coefficients, times f~'s coefficient on the merged monomial,
    # times its factorial norm.  Factors own disjoint Z rows, so the sorted
    # union of the terms' (variable, exponent) pairs is that monomial.
    cells = []
    for pick in product(*factor_states):
        weights = []
        for terms in product(*(s.terms.items() for s in pick)):
            mono = tuple(sorted(x for m, _ in terms for x in m))
            norm = math.prod(math.factorial(e) for _, e in mono)
            weights.append((mono, norm * math.prod(c for _, c in terms)))
        cells.append(weights)
    # f~ only uses the columns of f*, so expanding there suffices
    k = max(1, problem.q, f_star.max_col())
    table = []
    for element in basis.iter_elements(k):
        ftilde = tilde_map(element, f_star).terms
        table.append([sum(ftilde.get(m, 0) * w for m, w in cell) for cell in cells])
    return table


def verify_equivariance(invariant: MultiPoly, f_star_basis, g) -> bool:
    """Check the intertwining law of the tilde map for one group element.

    In labeled coordinates: tilde_map(I, f*)(Z.g) == tilde_map(I, f*(W.g))
    for every f* in the basis; the moved dual state must stay inside the
    span of the basis (SpanViolation otherwise).
    """
    basis_dicts = [fs.terms for fs in f_star_basis]
    ok = True
    for fs in f_star_basis:
        moved = act_cols(fs, g, matrix="W")
        if solve_dict_system(basis_dicts, moved.terms) is None:
            raise SpanViolation("transformed dual state leaves the given span")
        lhs = act_cols(tilde_map(invariant, fs), g, matrix="Z")
        rhs = tilde_map(invariant, moved)
        if lhs != rhs:
            ok = False
    return ok
