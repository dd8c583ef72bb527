"""Tensor product decomposition via simple and determinant multipliers.

A simple multiplier of order a adds a total of a boxes to a signature,
at most s_i = beta_i - beta_{i+1} of them in row i+1 (the first row takes
any number).  A compound multiplier for a signature alpha is the l x l
determinant with (i, j) entry the simple multiplier of order
alpha_i - i + j (simple multipliers commute).  It is expanded row by row
over sets of used columns (Laplace expansion, Macdonald I.3): row i
extends each set S by a column c not in S, with sign (-1)^#{s in S: s > c},
so at most 2^l signed spectra are kept instead of l! permutation chains,
and cancellation happens at each merge.  The determinant is linear in the
spectrum it acts on, so it is applied to a whole spectrum keyed by plain
entry tuples at once.  A horizontal strip starts at most one new row, so
each simple multiplier is enumerated once per order, signature and whether
a new row may start (k above the signature's length), and shared by every
determinant at every rank.

A product is folded from the factor whose determinant would cost most: that
factor is the start spectrum, and each later factor's determinant acts on
the whole running spectrum of entry tuples.  A determinant of l rows keeps
up to 2^l column subsets and runs simple multipliers of orders near its
entries, whose terms cancel only at its last row, so its cost is estimated
as 2^l * prod(a_i + 1): long factors and large entries both cost nothing in
the start spectrum and much in a determinant.  Signatures are built once,
at the return.

The stabilization index takes one fold, at the bound k = sum of the factor
lengths, where the sorted row union of the factors occurs exactly once (the
self-check).  Below the bound the spectrum at rank k is that stable spectrum
cut to signatures of length <= k, since s_lambda(x_1..x_k) = 0 when
l(lambda) > k; so the index is read off as its longest signature.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import EmptyProduct, SelfCheckError
from .signatures import Signature, SignedSpectrum, check_polynomial, compositions


@lru_cache(maxsize=32768)
def _apply_simple(order, beta: tuple, grow: bool) -> tuple[tuple, ...]:
    """The entry tuples (trailing zeros trimmed) produced by one simple
    multiplier on the entry tuple beta, each once; a new row may start only
    if grow."""
    if order < 0:
        return ()
    b = beta + (0,) if grow else beta
    caps = ((order,) + tuple(x - y for x, y in zip(b, b[1:])))[: len(b)]
    strips = (tuple([x + v for x, v in zip(b, nu)]) for nu in compositions(order, caps))
    # beta's entries are positive, so only the started row can be zero
    return tuple(t[:-1] if grow and not t[-1] else t for t in strips)


def simple_multiplier(order: int, beta: Signature, k: int) -> SignedSpectrum:
    """Spectrum of the order-a simple multiplier applied to beta at rank k."""
    check_polynomial((beta,), k)
    strips = _apply_simple(order, beta.entries, beta.length < k)
    return SignedSpectrum.from_entries(dict.fromkeys(strips, 1))


def _determinant(a: tuple, spectrum: dict, k: int) -> dict:
    """The Jacobi-Trudi determinant of the entry tuple a applied to a
    {entry tuple: multiplicity} spectrum at rank k, by used-column Laplace
    expansion; raises SelfCheckError on a negative multiplicity."""
    l = len(a)
    # used-column bitmask -> {entry tuple: signed multiplicity}
    states: dict[int, dict[tuple, int]] = {0: spectrum}
    for i in range(l):
        nxt: dict[int, dict[tuple, int]] = {}
        for used, spec in states.items():
            for c in range(l):
                order = a[i] - i + c
                if used >> c & 1 or order < 0:
                    continue
                sign = -1 if (used >> (c + 1)).bit_count() & 1 else 1
                acc = nxt.setdefault(used | 1 << c, {})
                for s, m in spec.items():
                    m *= sign
                    for out in _apply_simple(order, s, len(s) < k):
                        acc[out] = acc.get(out, 0) + m
        states = {}
        for used, acc in nxt.items():
            spec = {s: m for s, m in acc.items() if m}
            if spec:
                states[used] = spec
    total = states.get((1 << l) - 1, {})
    if any(m < 0 for m in total.values()):
        raise SelfCheckError(f"negative multiplicity in the determinant of {a} at k={k}")
    return total


@lru_cache(maxsize=16384)
def compound_multiplier(alpha: Signature, beta: Signature, k: int) -> SignedSpectrum:
    """Decomposition of the product of alpha and beta at rank k."""
    check_polynomial((alpha, beta), k)
    return SignedSpectrum.from_entries(_determinant(alpha.entries, {beta.entries: 1}, k))


def _determinant_cost(f: Signature) -> int:
    """The estimate 2^l * prod(a_i + 1) of the work of f's determinant."""
    cost = 1 << f.length
    for a in f.entries:
        cost *= a + 1
    return cost


def tensor_decompose(factors, k: int) -> SignedSpectrum:
    """Fold of Jacobi-Trudi determinants over the factors at rank k, from the
    factor of the costliest determinant (a stable sort, so ties keep their
    order): its entries go into the start spectrum, and each later
    determinant acts on the whole running spectrum of entry tuples."""
    factors = list(factors)
    if not factors:
        raise EmptyProduct("no factors given")
    check_polynomial(factors, k)
    first, *rest = sorted(factors, key=_determinant_cost, reverse=True)
    running = {first.entries: 1}
    for alpha in rest:
        running = _determinant(alpha.entries, running, k)
    return SignedSpectrum.from_entries(running)


def stabilization_index(factors) -> int:
    """Least k at which the spectrum stops changing: the longest signature
    in the spectrum at the bound k = sum of lengths, below which the
    spectrum is that one cut to lengths <= k."""
    factors = list(factors)
    spec = tensor_decompose(factors, sum(f.length for f in factors))
    union = Signature(tuple(sorted((x for f in factors for x in f.entries), reverse=True)))
    if spec[union] != 1:
        raise SelfCheckError(f"row union {union} has multiplicity {spec[union]}, not 1")
    return max(s.length for s in spec)


def stable_decompose(factors) -> SignedSpectrum:
    """Decomposition at the stabilization index: the rank-free spectrum."""
    return tensor_decompose(factors, stabilization_index(factors))


def multiplicity(factors, target: Signature) -> int:
    """Multiplicity of target in the stable decomposition of the product."""
    return stable_decompose(factors)[target]
