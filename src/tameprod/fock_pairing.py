"""The Fock pairing <f1, f2> = f1(D) f2 |_0, computed combinatorially.

On monomials <x^a, x^b> = delta_{a,b} * prod_i a_i!; the pairing is
bilinear and the monomials form an orthogonal basis.
"""

from __future__ import annotations

from math import factorial

from .polynomials import MultiPoly


def pair(f1: MultiPoly, f2: MultiPoly):
    """Exact rational value of the Fock pairing."""
    a, b = f1.terms, f2.terms
    if len(a) > len(b):
        a, b = b, a
    total = 0
    for mono, c1 in a.items():
        c2 = b.get(mono)
        if c2:
            norm = 1
            for _, e in mono:
                norm *= factorial(e)
            total += c1 * c2 * norm
    return total


def truncate_columns(p: MultiPoly, k: int) -> MultiPoly:
    """Drop every term of p that uses a column index above k."""
    return MultiPoly({m: c for m, c in p.terms.items() if all(v.col <= k for v, _ in m)})


def pair_truncated(p: MultiPoly, f: MultiPoly):
    """Pairing of a projective-limit element p against f.

    Columns of p above the maximal column of f differentiate f to zero, so
    p needs no truncation: pair only sums monomials present in both
    arguments, and no monomial of f uses a column above f.max_col().  The
    value is independent of the rank p was expanded at, provided it covers
    f's columns.
    """
    return pair(p, f)
