"""Shared helpers for the test suite."""

from math import prod

from tameprod.linalg import identity, matmul
# weight_monomials is re-exported: the tests import it from here
from tameprod.polynomials import MultiPoly, weight_monomials, wvar, zvar
from tameprod.signatures import normalize


def random_signature(rng, max_entry=4, max_len=2, allow_empty=False):
    length = rng.randint(0 if allow_empty else 1, max_len)
    entries = sorted((rng.randint(1, max_entry) for _ in range(length)), reverse=True)
    return normalize(entries)


def weyl_dimension(f, k):
    """Dimension of the U(k) representation f, by Weyl's formula."""
    e = f.pad(k)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    return prod(e[i] - e[j] + j - i for i, j in pairs) // prod(j - i for i, j in pairs)


def random_unimodular(n, rng, shears=6, span=3):
    """Product of integer elementary shears: unimodular with modest entries.

    Below n = 2 there is no shear, and the identity is returned.
    """
    m = identity(n)
    if n < 2:
        return m
    for _ in range(shears):
        a, b = rng.sample(range(n), 2)
        e = identity(n)
        e[a][b] = rng.randint(-span, span)
        m = matmul(m, e)
    return m


def random_poly(rng, nvars=3, nterms=3, max_exp=3, max_coeff=5, rows=2, cols=2):
    """Small random polynomial in mixed Z/W variables with int coefficients."""
    pool = [zvar(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
    pool += [wvar(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        chosen = rng.sample(pool, rng.randint(1, min(nvars, len(pool))))
        mono = tuple(sorted((v, rng.randint(1, max_exp)) for v in chosen))
        c = rng.randint(-max_coeff, max_coeff)
        if c:
            terms[mono] = terms.get(mono, 0) + c
    return MultiPoly(terms)
