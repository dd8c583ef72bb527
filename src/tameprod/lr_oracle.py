"""Brute-force Schur polynomial engine used to cross-check the multiplier
calculus.

Deliberately independent of weyl_calculus: polynomials here are plain
exponent-tuple dicts built by tableau enumeration, and products are
decomposed by repeated leading-term subtraction.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import NotDominant, NotSymmetric, RankTooSmall, SelfCheckError
from .signatures import Signature, SignedSpectrum


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
    if k < m.length:
        raise RankTooSmall(f"k={k} below length of {m}")
    if m.entries and m.entries[-1] < 0:
        raise NotDominant(f"Schur polynomials need nonnegative signatures, got {m}")
    return dict(_schur_items(m.entries, k))


def poly_mul(p: dict, q: dict) -> dict:
    out: dict[tuple, int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def schur_decompose(p: dict, k: int) -> SignedSpectrum:
    """Expand a symmetric polynomial in the Schur basis by lex subtraction."""
    work = {e: c for e, c in p.items() if c}
    out: dict[Signature, int] = {}
    guard = 0
    while work:
        guard += 1
        if guard >= 1_000_000:
            raise SelfCheckError("schur_decompose failed to terminate")
        lead = max(work)
        t = lead
        while t and t[-1] == 0:
            t = t[:-1]
        if (t and t[-1] < 0) or any(a < b for a, b in zip(t, t[1:])):
            raise NotSymmetric(f"leading exponent {lead} is not a partition")
        s = Signature(t)
        c = work[lead]
        out[s] = out.get(s, 0) + c
        for e, cc in _schur_items(s.entries, k):
            new = work.get(e, 0) - c * cc
            if new:
                work[e] = new
            elif e in work:
                del work[e]
    return SignedSpectrum(out)


def schur_product_decompose(factors, k: int) -> SignedSpectrum:
    """Decompose a product of Schur polynomials at rank k (the oracle)."""
    prod = {(0,) * k: 1}
    for m in factors:
        prod = poly_mul(prod, schur_poly(m, k))
    return schur_decompose(prod, k)
