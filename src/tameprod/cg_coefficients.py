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
A table (cg_table) works through one PackedDual: Z monomials are ints
with one bit field per Z[a,t] in f*'s columns, so multiplying two is one
addition, and each row contraction, keyed by a column of ell and a W row
of f*, is computed once for the whole table.  The direct route
(cg_coefficient) pairs the expanded invariant instead and shares no
expansion code with the tables, so each checks the other.
"""

from __future__ import annotations

import math
from itertools import product

from .errors import RowAllocationViolation, SelfCheckError, SpanViolation
from .fock_pairing import pair
from .linalg import rank, solve_dict_system
from .polynomials import MultiPoly, act_cols, apply_diff
from .signatures import tables


def tilde_map(invariant: MultiPoly, f_star: MultiPoly) -> MultiPoly:
    """Embedded state f~ = I(Z, D_W) f* |_{W=0}.

    The invariant may be expanded at any rank covering f*'s columns;
    higher columns differentiate f* to zero on their own.
    """
    res = apply_diff(invariant, f_star, over=frozenset({"W"}))
    return res.drop_vars(lambda v: v.matrix == "W")


class PackedDual:
    """A dual state f* made ready for contraction, with the packed layout
    of the Z monomials it can meet.

    The embedded state f~ lives in f*'s columns t = 1..ncols and in Z rows
    a = 1..nrows, and no exponent in it exceeds deg f*: the Z exponents in
    column t of a term add up to the degree of column t in the f* term it
    came from.  So a Z monomial packs into one int, with slot
    s = (a - 1) * ncols + (t - 1) holding the exponent of Z[a,t] in the
    field of `width` = bit_length(deg f*) + 1 bits at bit s * width
    (Monagan & Pearce, CASC 2007).  An exponent uses the field's low
    width - 1 bits, up to `top` = 2^(width-1) - 1 >= deg f*; the field's
    high bit is a guard.  The product of two packed monomials is their
    sum: two exponents of at most `top` add up to less than 2^width, so a
    sum never carries into the next slot, and one past `top` sets the
    guard bit, which `check` reads.

    f*'s terms are split by W row and grouped by their W row degrees, and
    `rows` keeps every row contraction computed through this object, so a
    table computes each one once.
    """

    __slots__ = ("ncols", "width", "top", "outside", "by_degrees", "rows")

    def __init__(self, f_star_terms: dict, nrows: int):
        self.ncols = max((v.col for mono in f_star_terms for v, _ in mono), default=0)
        degree = max((sum(e for _, e in mono) for mono in f_star_terms), default=0)
        self.width = degree.bit_length() + 1
        self.top = (1 << (self.width - 1)) - 1
        fields = sum(self.top << (s * self.width) for s in range(nrows * self.ncols))
        # every bit that no exponent of at most `top` in a slot may set
        self.outside = ~fields
        # W row degrees of a term, trailing zeros cut -> [(its rows, weight)]
        # with weight c beta!, its rows as ((column, exponent), ...) per W row
        self.by_degrees: dict = {}
        for mono, c in f_star_terms.items():
            betas = [() for _ in range(max((v.row for v, _ in mono), default=0))]
            weight = c
            for v, e in mono:
                betas[v.row - 1] += ((v.col, e),)
                weight *= math.factorial(e)
            degrees = tuple(sum(e for _, e in row) for row in betas)
            self.by_degrees.setdefault(degrees, []).append((betas, weight))
        self.rows: dict = {}

    def pack(self, mono):
        """A sorted ((Z var, exponent), ...) monomial as (packed int, its
        factorial norm), or None when it cannot meet f~: a column beyond
        f*'s or an exponent beyond the field."""
        packed = 0
        norm = 1
        for v, e in mono:
            if v.col > self.ncols or e > self.top:
                return None
            packed += e << (((v.row - 1) * self.ncols + v.col - 1) * self.width)
            norm *= math.factorial(e)
        return packed, norm

    def check(self, packed_monomials, what):
        """SelfCheckError unless every exponent fits its field: no guard bit
        set and no slot past the last Z row."""
        for m in packed_monomials:
            if m & self.outside:
                raise SelfCheckError(
                    f"an exponent of {what} exceeds the packed field of {self.width} bits"
                )


def tilde_monomial(ell, dual: PackedDual) -> dict:
    """tilde_map(P^ell, f*).terms for the generator monomial P^ell, read off
    the exponent matrix ell without expanding P^ell, keyed by the Z
    monomials packed in dual's layout.

    Each term c W^beta of f* contributes c beta! times the W^beta
    coefficient of P^ell, which factors over the W rows b.  Row b is the
    product over a of P[a,b]^ell[a][b] = (sum_t Z[a,t] W[b,t])^ell[a][b];
    its part in W[b,.]^beta[b] is the row contraction of column b of ell
    with row b of beta (_row_contraction), kept in dual.rows for every
    later P-monomial, and the rows multiply by adding packed monomials.
    Only f*'s own columns appear, so no rank is needed; a term whose W row
    degrees are not the column sums of ell contributes nothing.
    """
    # column b of ell as its nonzero (Z row, degree) pairs
    cols = [
        tuple((a, d) for a, d in enumerate(col, start=1) if d) for col in zip(*ell.rows)
    ]
    degrees = [sum(d for _, d in col) for col in cols]
    while degrees and not degrees[-1]:
        degrees.pop()
    rows = dual.rows
    out: dict = {}
    for betas, weight in dual.by_degrees.get(tuple(degrees), ()):
        terms = {0: 1}
        for col, row in zip(cols, betas):
            if col:
                key = (col, row)
                if key not in rows:
                    rows[key] = _row_contraction(col, row, dual)
                merged: dict = {}
                for m2, x2 in rows[key].items():
                    for m1, x1 in terms.items():
                        m = m1 + m2
                        merged[m] = merged.get(m, 0) + x1 * x2
                terms = merged
        for m, x in terms.items():
            out[m] = out.get(m, 0) + weight * x
    out = {m: x for m, x in out.items() if x}
    dual.check(out, "an embedded state")
    return out


def _row_contraction(col, row, dual: PackedDual) -> dict:
    """prod_a P[a,b]^d over col = ((a, d), ...), cut to the W row b monomial
    with exponents row = ((t, e), ...) in columns t, as {packed Z
    monomial: weight} in dual's layout.

    Each table n[a][t] of signatures.tables with row sums the d and column
    sums the e gives the monomial prod Z[a,t]^n[a][t], weighted by
    prod_a multinomial(d; n[a][.]).  Distinct tables give distinct
    monomials.
    """
    shifts = [
        [((a - 1) * dual.ncols + t - 1) * dual.width for t, _ in row] for a, _ in col
    ]
    top = math.prod(math.factorial(d) for _, d in col)
    out = {}
    for n in tables([d for _, d in col], [e for _, e in row]):
        mono = 0
        bottom = 1
        for ss, counts in zip(shifts, n):
            for s, x in zip(ss, counts):
                if x:
                    bottom *= math.factorial(x)
                    mono += x << s
        out[mono] = top // bottom
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
    once per call, through one PackedDual, so that each row contraction
    is computed once per call as well.  f~ and the picks' monomials are
    packed ints in its layout.

    Raises SelfCheckError unless the embedded states are independent, one
    per basis vector, or all zero (f* has no part of the target's type):
    an intertwiner is fixed by the image of one nonzero vector of an
    irreducible.  On the full grid of weight states that the CLI passes,
    this is the rank of the table.
    """
    problem = basis.problem
    _check_factor_states(problem, factor_states)
    _check_dual(problem, f_star)
    dual = PackedDual(f_star.terms, problem.p)
    # <f~ | s_1 ... s_r> = sum over one term per state of the product of
    # their coefficients, times f~'s coefficient on the merged monomial,
    # times its factorial norm.  Factors own disjoint Z rows, so the merged
    # monomial is the sum of the packed terms and its norm is the product
    # of theirs.  A term that cannot meet f~ is dropped before packing.
    cells = [[(0, 1)]]
    for states in factor_states:
        packed = []
        for s in states:
            terms = []
            for mono, c in s.terms.items():
                term = dual.pack(mono)
                if term is not None:
                    terms.append((term[0], term[1] * c))
            packed.append(terms)
        cells = [
            [(m1 + m2, w1 * w2) for m1, w1 in cell for m2, w2 in terms]
            for cell in cells
            for terms in packed
        ]
    dual.check((m for cell in cells for m, _ in cell), "a factor state")
    contracted: dict = {}
    ftildes = []
    for vec in basis.vectors:
        ftilde: dict = {}
        for c, ell in zip(vec, basis.monomials):
            if c:
                if ell not in contracted:
                    contracted[ell] = tilde_monomial(ell, dual)
                for m, x in contracted[ell].items():
                    ftilde[m] = ftilde.get(m, 0) + c * x
        ftildes.append(ftilde)
    if any(any(ft.values()) for ft in ftildes):
        if rank(ftildes) != basis.dimension:
            raise SelfCheckError(
                f"the {basis.dimension} embedded states of the basis are not independent"
            )
    return [[sum(ft.get(m, 0) * w for m, w in cell) for cell in cells] for ft in ftildes]


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
