"""Dual (contragredient) labels realized by index reversal.

The dual of the representation labeled m is labeled by the negated,
reversed tuple; its lowest-weight model in the W variables is obtained
from the usual highest-weight vector by the double reversal of rows and
columns, which on labeled entries reduces to renaming Z[i,j] -> W[i,j].
"""

from __future__ import annotations

from itertools import permutations

from .linalg import perm_sign
from .polynomials import MultiPoly, Var, zvar
from .signatures import Signature, check_polynomial, normalize


def reversal(k: int):
    return [[int(i + j == k - 1) for j in range(k)] for i in range(k)]


def _leading_minor(n: int) -> MultiPoly:
    """Determinant of the Z submatrix on rows and columns 1..n."""
    terms: dict = {}
    for sigma in permutations(range(n)):
        mono = tuple(sorted((zvar(i + 1, sigma[i] + 1), 1) for i in range(n)))
        terms[mono] = terms.get(mono, 0) + perm_sign(sigma)
    return MultiPoly(terms)


def highest_weight_vector(m: Signature) -> MultiPoly:
    """Product of powers of leading principal minors realizing weight m.

    Uses Z rows and columns 1..len(m); the i-th leading minor enters with
    exponent m_i - m_{i+1}.
    """
    check_polynomial((m,))
    l = m.length
    poly = MultiPoly.const(1)
    for i in range(1, l + 1):
        e = m.entries[i - 1] - (m.entries[i] if i < l else 0)
        if e:
            poly = poly * (_leading_minor(i) ** e)
    return poly


def lowest_weight_vector_check(m: Signature, q: int) -> MultiPoly:
    """Lowest-weight model of the dual of m inside the W variables.

    The double reversal (rows and columns) cancels on labeled entries,
    so this is the highest-weight vector with Z renamed to W.
    """
    check_polynomial((m,), q)
    f = highest_weight_vector(m)
    return f.rename_vars(lambda v: Var("W", v.row, v.col))


def negate_signature(m: Signature) -> Signature:
    """Label of the dual: entries negated and reversed."""
    return normalize(sorted((-e for e in m.entries), reverse=True))
