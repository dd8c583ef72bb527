"""Tensor product decomposition via simple and determinant multipliers.

A simple multiplier of order a adds a total of a boxes to a signature,
at most s_i = beta_i - beta_{i+1} of them in row i+1 (the first row takes
any number).  A compound multiplier for a signature alpha is the l x l
determinant with (i, j) entry the simple multiplier of order
alpha_i - i + j, expanded over permutations with sign and applied
factor by factor (simple multipliers commute).  A horizontal strip starts
at most one new row, so each simple multiplier is enumerated once per order,
signature and whether a new row may start (k above the signature's length),
and shared by every compound multiplier at every rank.

The stabilization index takes one fold, at the bound k = sum of the factor
lengths, where the sorted row union of the factors occurs exactly once (the
self-check).  Below the bound the spectrum at rank k is that stable spectrum
cut to signatures of length <= k, since s_lambda(x_1..x_k) = 0 when
l(lambda) > k; so the index is read off as its longest signature.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from .errors import EmptyProduct, NotDominant, RankTooSmall, SelfCheckError
from .linalg import perm_sign
from .signatures import Signature, SignedSpectrum, compositions


def _trimmed(entries) -> Signature:
    t = tuple(entries)
    while t and t[-1] == 0:
        t = t[:-1]
    return Signature(t)


@lru_cache(maxsize=32768)
def _apply_simple(order, beta: Signature, grow: bool) -> tuple[Signature, ...]:
    """The signatures produced by one simple multiplier (each once); a new
    row may start only if grow."""
    if order < 0:
        return ()
    b = beta.entries + (0,) if grow else beta.entries
    caps = ((order,) + tuple(x - y for x, y in zip(b, b[1:])))[: len(b)]
    return tuple(_trimmed(x + v for x, v in zip(b, nu)) for nu in compositions(order, caps))


def simple_multiplier(order: int, beta: Signature, k: int) -> SignedSpectrum:
    """Spectrum of the order-a simple multiplier applied to beta at rank k."""
    if k < beta.length:
        raise RankTooSmall(f"k={k} below length of {beta}")
    return SignedSpectrum(dict.fromkeys(_apply_simple(order, beta, beta.length < k), 1))


@lru_cache(maxsize=16384)
def compound_multiplier(alpha: Signature, beta: Signature, k: int) -> SignedSpectrum:
    """Decomposition of the product of alpha and beta at rank k."""
    if k < beta.length or k < alpha.length:
        raise RankTooSmall(f"k={k} below length of a factor")
    if (alpha.entries and alpha.entries[-1] < 0) or (beta.entries and beta.entries[-1] < 0):
        raise NotDominant("multipliers are defined for nonnegative signatures")
    l = alpha.length
    a = alpha.entries
    total: dict[Signature, int] = {}
    for sigma in permutations(range(l)):
        orders = [a[i] - i + sigma[i] for i in range(l)]
        if any(o < 0 for o in orders):
            continue
        sign = perm_sign(sigma)
        spec = {beta: 1}
        for order in orders:
            nxt: dict[Signature, int] = {}
            for s, m in spec.items():
                for out in _apply_simple(order, s, s.length < k):
                    nxt[out] = nxt.get(out, 0) + m
            spec = nxt
            if not spec:
                break
        for s, m in spec.items():
            total[s] = total.get(s, 0) + sign * m
    result = SignedSpectrum(total)
    if not result.is_nonnegative():
        raise SelfCheckError(f"negative multiplicity in {alpha} x {beta} at k={k}")
    return result


def tensor_decompose(factors, k: int) -> SignedSpectrum:
    """Left fold of compound multipliers over the factor list at rank k."""
    factors = list(factors)
    if not factors:
        raise EmptyProduct("no factors given")
    for f in factors:
        if k < f.length:
            raise RankTooSmall(f"k={k} below length of {f}")
    running = SignedSpectrum({factors[0]: 1})
    for alpha in factors[1:]:
        acc: dict[Signature, int] = {}
        for s, m in running.items():
            for s2, m2 in compound_multiplier(alpha, s, k).items():
                acc[s2] = acc.get(s2, 0) + m * m2
        running = SignedSpectrum(acc)
    return running


def stabilization_index(factors) -> int:
    """Least k at which the spectrum stops changing: the longest signature
    in the spectrum at the bound k = sum of lengths, below which the
    spectrum is that one cut to lengths <= k."""
    factors = list(factors)
    if not factors:
        raise EmptyProduct("no factors given")
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
