"""Embedded target states and Clebsch-Gordan coefficients.

An invariant I pairs the tensor product of the factor modules (in the Z
rows) against the dual model of the target (in the W rows).  Contracting
I against a dual state f* through the W half of the Fock pairing gives
the embedded copy f~ of the corresponding target state inside the Z
variables; pairing f~ against products of factor states reads off the
Clebsch-Gordan coefficients.

Tables never expand an invariant.  The contraction is linear in I, and for
one generator monomial P^ell it is read off the exponent matrix
(tilde_monomial): the W^beta coefficient of P^ell factors over the W rows,
each row a sum over small tables of Z exponents weighted by multinomials.
The direct route (cg_coefficient) pairs the expanded invariant instead and
shares no expansion code with the tables, so each checks the other.
"""

from __future__ import annotations

import math
from itertools import product

from .errors import RowAllocationViolation, SpanViolation
from .fock_pairing import pair
from .linalg import solve_dict_system
from .polynomials import MultiPoly, _dict_mul, act_cols, apply_diff, zvar
from .signatures import tables


def tilde_map(invariant: MultiPoly, f_star: MultiPoly) -> MultiPoly:
    """Embedded state f~ = I(Z, D_W) f* |_{W=0}.

    The invariant may be expanded at any rank covering f*'s columns;
    higher columns differentiate f* to zero on their own.
    """
    res = apply_diff(invariant, f_star, over=frozenset({"W"}))
    return res.drop_vars(lambda v: v.matrix == "W")


def tilde_monomial(ell, f_star_terms: dict) -> dict:
    """tilde_map(P^ell, f*).terms for the generator monomial P^ell, read off
    the exponent matrix ell without expanding P^ell.

    f_star_terms are the terms of a dual state in the W variables.  Each
    term c W^beta contributes c beta! times the W^beta coefficient of P^ell,
    which factors over the W rows b.  Row b is the product over a of
    P[a,b]^ell[a][b] = (sum_t Z[a,t] W[b,t])^ell[a][b]; its part in
    W[b,.]^beta[b] sums over tables n[a][t] with row sums ell[a][b] and
    column sums beta[b][t] the Z monomial prod Z[a,t]^n[a][t], weighted by
    prod_a multinomial(ell[a][b]; n[a][.]).  Only f*'s own columns appear,
    so no rank is needed; a term whose W row degrees are not the column
    sums of ell contributes nothing.
    """
    # column b of ell as its nonzero (Z row, degree) pairs, and its sum
    cols = [
        tuple((a, d) for a, d in enumerate(col, start=1) if d) for col in zip(*ell.rows)
    ]
    degrees = [sum(d for _, d in col) for col in cols]
    rows: dict = {}
    out: dict = {}
    for mono, c in f_star_terms.items():
        beta = [[] for _ in cols]
        weight = c
        for v, e in mono:
            if v.row > len(cols):
                break
            beta[v.row - 1].append((v.col, e))
            weight *= math.factorial(e)
        else:
            if [sum(e for _, e in row) for row in beta] != degrees:
                continue
            terms = {(): weight}
            for col, row in zip(cols, beta):
                if col:
                    key = (col, tuple(row))
                    if key not in rows:
                        rows[key] = _row_contraction(col, row)
                    terms = _dict_mul(terms, rows[key])
            for m, x in terms.items():
                out[m] = out.get(m, 0) + x
    return {m: x for m, x in out.items() if x}


def _row_contraction(col, row) -> dict:
    """prod_a P[a,b]^d over col = ((a, d), ...), cut to the W row b monomial
    with exponents row = ((t, e), ...) in columns t, as {Z monomial: weight}.

    Each table n[a][t] of signatures.tables with row sums the d and column
    sums the e gives the monomial prod Z[a,t]^n[a][t], weighted by
    prod_a multinomial(d; n[a][.]).  Distinct tables give distinct
    monomials, built in sorted order (rows, then columns, ascending).
    """
    zs = [[zvar(a, t) for t, _ in row] for a, _ in col]
    top = math.prod(math.factorial(d) for _, d in col)
    out = {}
    for n in tables([d for _, d in col], [e for _, e in row]):
        mono = []
        bottom = 1
        for vs, counts in zip(zs, n):
            for v, x in zip(vs, counts):
                if x:
                    bottom *= math.factorial(x)
                    mono.append((v, x))
        out[tuple(mono)] = top // bottom
    return out


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


def cg_coefficient(problem, invariant: MultiPoly, factor_states, f_star: MultiPoly):
    """<I | (state_1 ... state_r) f*>, the Clebsch-Gordan coefficient.

    Computed directly through the Fock pairing of the expanded invariant;
    equal to <f~ | state_1 ... state_r> with f~ = tilde_map(invariant, f*).
    The invariant may be expanded at any rank covering the states' columns:
    a term using a higher column meets no term of the product.
    """
    _check_factor_states(problem, [[s] for s in factor_states])
    _check_dual(problem, f_star)
    prod = f_star
    for s in factor_states:
        prod = prod * s
    return pair(invariant, prod)


def cg_coefficient_embedded(invariant: MultiPoly, factor_states, f_star: MultiPoly):
    """The same coefficient through the embedded state (consistency route)."""
    ftilde = tilde_map(invariant, f_star)
    prod = MultiPoly.const(1)
    for s in factor_states:
        prod = prod * s
    return pair(ftilde, prod)


def cg_table(basis, factor_states, f_star: MultiPoly):
    """Clebsch-Gordan coefficients of every basis invariant on every pick
    of one state per factor, read off the contraction of the basis with f*.

    factor_states[i] lists the states of factor i.  Returns one list per
    basis element, its values in the order of product(*factor_states);
    each equals cg_coefficient on the same states.  No invariant is
    expanded: each basis vector's embedded state f~ is the sum of its
    coefficients times tilde_monomial of their P-monomials, each computed
    once per call.
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
    contracted: dict = {}
    table = []
    for vec in basis.vectors:
        ftilde: dict = {}
        for c, ell in zip(vec, basis.monomials):
            if c:
                if ell not in contracted:
                    contracted[ell] = tilde_monomial(ell, f_star.terms)
                for m, x in contracted[ell].items():
                    ftilde[m] = ftilde.get(m, 0) + c * x
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
