"""Brute-force Schur polynomial engine used to cross-check the multiplier
calculus.

Deliberately independent of weyl_calculus: polynomials here are plain
exponent-tuple dicts built by tableau enumeration, and decomposed by Weyl
straightening.  A product of Schur polynomials is folded one factor at a
time (Brauer-Klimyk): the spectrum so far, read as the polynomial
sum c x^lambda, times the next Schur polynomial straightens to the spectrum
with that factor added, so the full product polynomial is never built.
The fold starts from the largest factor's lambda, by degree and then
length, which needs no tableaux; every other factor's tableaux grow with
its entries.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import NotSymmetric, SelfCheckError
from .linalg import perm_sign
from .signatures import Signature, SignedSpectrum, check_polynomial


def _tableau_weights(shape, k):
    """Yield the content vector (length k) of each semistandard tableau."""
    if not shape:
        yield (0,) * k
        return

    def fill(r, prev, weight):
        if r == len(shape):
            yield weight
            return
        length = shape[r]

        def rec(j, last, row, w):
            if j == length:
                yield from fill(r + 1, row, w)
                return
            lo = max(last, (prev[j] + 1) if r else 1)
            for v in range(lo, k + 1):
                w2 = list(w)
                w2[v - 1] += 1
                yield from rec(j + 1, v, row + (v,), tuple(w2))

        yield from rec(0, 1, (), weight)

    yield from fill(0, (), (0,) * k)


@lru_cache(maxsize=2048)
def _schur_items(entries: tuple, k: int):
    counts: dict[tuple, int] = {}
    for w in _tableau_weights(entries, k):
        counts[w] = counts.get(w, 0) + 1
    return tuple(counts.items())


def schur_poly(m: Signature, k: int) -> dict:
    """Schur polynomial of m in k variables as {exponent tuple: coeff}."""
    check_polynomial((m,), k)
    return dict(_schur_items(m.entries, k))


def poly_mul(p: dict, q: dict) -> dict:
    out: dict[tuple, int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _straighten(p: dict, k: int) -> dict:
    """Straighten every term of p: {padded lambda: coeff}, zeros dropped.

    A term c x^e with distinct e + rho, rho = (k-1, ..., 0), adds sign * c
    to lambda = sort_desc(e + rho) - rho, where sign is that of the sort;
    a term with a repeated entry antisymmetrizes to zero.
    """
    rho = range(k - 1, -1, -1)
    out: dict[tuple, int] = {}
    for e, c in p.items():
        v = [a + r for a, r in zip(e, rho)]
        if len(set(v)) == len(v):
            lam = tuple(a - r for a, r in zip(sorted(v, reverse=True), rho))
            # perm_sign sorts ascending; negating v gives the descending sort
            out[lam] = out.get(lam, 0) + perm_sign([-a for a in v]) * c
    return {lam: c for lam, c in out.items() if c}


def schur_decompose(p: dict, k: int) -> SignedSpectrum:
    """Expand a symmetric polynomial in the Schur basis by straightening.

    For symmetric p, p * a_rho is the antisymmetrization of p * x^rho, so
    the Schur coefficients are the straightened terms of p.
    """
    p = {e: c for e, c in p.items() if c}
    # adjacent swaps generate S_k, so these checks find every asymmetry
    for e, c in p.items():
        if min(e, default=0) < 0:
            raise NotSymmetric(f"negative exponent in {e}")
        for i in range(len(e) - 1):
            if p.get(e[:i] + (e[i + 1], e[i]) + e[i + 2 :], 0) != c:
                raise NotSymmetric(f"swapping entries {i}, {i + 1} of {e} changes its coefficient")
    return SignedSpectrum(_straighten(p, k))


def schur_product_decompose(factors, k: int) -> SignedSpectrum:
    """Decompose a product of Schur polynomials at rank k (the oracle).

    Multiplying by a symmetric polynomial commutes with antisymmetrization,
    so s_lambda * s_mu * a_rho = A(x^(lambda + rho) * s_mu): each step
    straightens the spectrum so far times one Schur polynomial, with no
    symmetry check.  After every factor's rank and then every factor's sign
    is checked, the fold starts from the padded lambda of the largest factor
    (by degree and then length, the first of ties), so that factor's
    tableaux are never enumerated.  Every step's spectrum is a
    character, so a negative multiplicity raises SelfCheckError.
    """
    factors = list(factors)
    check_polynomial(factors, k)
    if not factors:
        return SignedSpectrum({(0,) * k: 1})
    first, *rest = sorted(factors, key=lambda m: (-m.degree, -m.length))
    spec = {first.pad(k): 1}
    for m in rest:
        spec = _straighten(poly_mul(spec, schur_poly(m, k)), k)
        for lam, c in spec.items():
            if c < 0:
                raise SelfCheckError(f"negative multiplicity {c} of {lam} after the factor {m}")
    return SignedSpectrum(spec)
