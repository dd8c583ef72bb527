"""Reference mathematics for the benchmark, written apart from tameprod.

Nothing here imports the package under test.  Signatures are plain
tuples of positive, weakly decreasing ints; polynomials are dicts from a
monomial (a sorted tuple of ((matrix, row, col), exponent) pairs) to an
int or Fraction coefficient.  The workload generators use these routines
to size their inputs and the checkers use them as the second route.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product
from math import factorial, gcd


# ---------------------------------------------------------------- signatures


def weyl_dim(lam, n: int) -> int:
    """Dimension of the U(n) module with highest weight lam (Weyl's formula)."""
    if len(lam) > n:
        return 0
    l = list(lam) + [0] * (n - len(lam))
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= l[i] - l[j] + j - i
            den *= j - i
    return num // den


def _strips(shape, count, prev_rows, first):
    """Shapes reached by adding `count` boxes of one label to `shape`.

    The boxes form a horizontal strip, and the reverse reading word stays a
    lattice word: for every row r, the boxes of this label in rows 1..r are
    at most the boxes of the previous label in rows 1..r-1 (prev_rows holds
    those per row; `first` lifts the condition for label 1).  Yields
    (new_shape, per-row counts of this label).
    """
    rows = len(shape)
    cum_prev = [0]
    for r in range(rows + 1):
        cum_prev.append(cum_prev[-1] + (prev_rows[r] if r < len(prev_rows) else 0))

    def rec(r, left, placed, counts):
        if r > rows:
            if left == 0:
                yield counts
            return
        cap = left if r == 0 else shape[r - 1] - (shape[r] if r < rows else 0)
        if not first:
            cap = min(cap, cum_prev[r] - placed)
        for c in range(min(cap, left), -1, -1):
            yield from rec(r + 1, left - c, placed + c, counts + (c,))

    for counts in rec(0, count, 0, ()):
        new = [(shape[r] if r < rows else 0) + counts[r] for r in range(rows + 1)]
        while new and new[-1] == 0:
            new.pop()
        yield tuple(new), counts


@lru_cache(maxsize=None)
def lr_product(mu, beta) -> dict:
    """Stable decomposition of mu x beta by counting Littlewood-Richardson
    tableaux of shape lambda/mu and content beta.  Cached: do not mutate."""
    states = {(tuple(mu), ()): 1}
    for label, count in enumerate(beta):
        nxt: dict = {}
        for (shape, prev), m in states.items():
            for new, counts in _strips(shape, count, prev, label == 0):
                key = (new, counts)
                nxt[key] = nxt.get(key, 0) + m
        states = nxt
    out: dict = {}
    for (shape, _), m in states.items():
        out[shape] = out.get(shape, 0) + m
    return out


def lr_spectrum(factors) -> dict:
    """Stable decomposition of a product of signatures: {signature: mult}."""
    spec = {tuple(factors[0]): 1}
    for beta in factors[1:]:
        nxt: dict = {}
        for lam, m in spec.items():
            for nu, c in lr_product(lam, beta).items():
                nxt[nu] = nxt.get(nu, 0) + m * c
        spec = nxt
    return spec


def lr_successors(mu, beta):
    """Every lambda with a positive coefficient in mu x beta, sorted."""
    return sorted(lr_product(mu, beta))


# ------------------------------------------------------ exponent matrices


def contingency_tables(row_sums, col_sums):
    """All nonnegative integer matrices with the given row and column sums."""
    tables = [((), tuple(col_sums))]
    for total in row_sums:
        tables = [
            (rows + (row,), tuple(a - b for a, b in zip(room, row)))
            for rows, room in tables
            for row in _rows(total, room)
        ]
    return [rows for rows, room in tables if not any(room)]


def count_tables(row_sums, col_sums) -> int:
    """Number of contingency tables, by dynamic programming over rows."""
    return _count_tables(tuple(sorted(row_sums)), tuple(sorted(col_sums)))


@lru_cache(maxsize=None)
def _count_tables(row_sums, col_sums) -> int:
    if sum(row_sums) != sum(col_sums):
        return 0
    ways = {tuple(col_sums): 1}
    for total in row_sums:
        nxt: dict = {}
        for room, w in ways.items():
            for row in _rows(total, room):
                key = tuple(a - b for a, b in zip(room, row))
                nxt[key] = nxt.get(key, 0) + w
        ways = nxt
    return ways.get((0,) * len(col_sums), 0)


@lru_cache(maxsize=None)
def _rows(total, room):
    if len(room) == 1:
        return ((total,),) if total <= room[0] else ()
    return tuple(
        (v,) + rest
        for v in range(min(total, room[0]) + 1)
        for rest in _rows(total - v, room[1:])
    )


_P_TERM = re.compile(r"P\[(\d+),(\d+)\](?:\^(\d+))?")


def parse_p_label(label: str, p: int, q: int):
    """'P[1,2]*P[3,1]^2' -> p x q exponent matrix (tuple of row tuples)."""
    rows = [[0] * q for _ in range(p)]
    if label != "1":
        for part in label.split("*"):
            m = _P_TERM.fullmatch(part)
            if m is None:
                raise ValueError(f"bad P-monomial label {label!r}")
            a, b, e = int(m[1]), int(m[2]), int(m[3] or 1)
            rows[a - 1][b - 1] += e
    return tuple(tuple(r) for r in rows)


def raising_images(ell, row_blocks, q):
    """First-order images of the P-monomial ell under every raising operator.

    Z rows are grouped in blocks (one per factor), W rows in one block of
    size q.  The raising operator that feeds row `lo` into row `hi` (hi
    above lo, same block) sends P[lo,c] to P[hi,c] in the Z case and
    P[a,lo] to P[a,hi] in the W case.  Yields (operator, image, coeff).
    """
    p = len(ell)
    start = 0
    for size in row_blocks:
        for hi in range(start, start + size):
            for lo in range(hi + 1, start + size):
                for c in range(q):
                    e = ell[lo][c]
                    if e:
                        img = [list(r) for r in ell]
                        img[lo][c] -= 1
                        img[hi][c] += 1
                        yield ("Z", lo, hi), tuple(map(tuple, img)), e
        start += size
    for hi in range(q):
        for lo in range(hi + 1, q):
            for a in range(p):
                e = ell[a][lo]
                if e:
                    img = [list(r) for r in ell]
                    img[a][lo] -= 1
                    img[a][hi] += 1
                    yield ("W", lo, hi), tuple(map(tuple, img)), e


def rank(rows) -> int:
    """Rank over the rationals, by fraction-free elimination."""
    work = [list(r) for r in rows if any(r)]
    r = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        pr = work[r]
        for i in range(r + 1, len(work)):
            f = work[i][col]
            if f:
                work[i] = [pr[col] * x - f * y for x, y in zip(work[i], pr)]
        r += 1
    return r


def is_primitive(vec) -> bool:
    """Coprime integer entries with a positive first nonzero entry."""
    nz = [x for x in vec if x]
    if not nz or any(not isinstance(x, int) for x in vec):
        return False
    g = 0
    for x in nz:
        g = gcd(g, x)
    return g == 1 and nz[0] > 0


# ------------------------------------------------------------- polynomials


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            merged = dict(m1)
            for v, e in m2:
                merged[v] = merged.get(v, 0) + e
            m = tuple(sorted(merged.items()))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def expand_invariant(vector, matrices, k: int) -> dict:
    """sum_j vector[j] * prod P[a,b]^e at rank k, P[a,b] = sum_t Z[a,t] W[b,t]."""
    total: dict = {}
    for coeff, ell in zip(vector, matrices):
        if not coeff:
            continue
        poly = {(): coeff}
        for a, row in enumerate(ell, start=1):
            for b, e in enumerate(row, start=1):
                gen = {
                    tuple(sorted(((("Z", a, t), 1), (("W", b, t), 1)))): 1
                    for t in range(1, k + 1)
                }
                for _ in range(e):
                    poly = poly_mul(poly, gen)
        for m, c in poly.items():
            total[m] = total.get(m, 0) + c
    return {m: c for m, c in total.items() if c}


def _inversions(perm) -> int:
    return sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])


def dual_lowest_weight(target) -> dict:
    """prod_i det(W[1..i, 1..i])^(m_i - m_{i+1}): the dual target state."""
    poly = {(): 1}
    l = len(target)
    for i in range(1, l + 1):
        e = target[i - 1] - (target[i] if i < l else 0)
        minor: dict = {}
        for sigma in permutations(range(i)):
            m = tuple(sorted((("W", r + 1, sigma[r] + 1), 1) for r in range(i)))
            minor[m] = minor.get(m, 0) + (-1) ** _inversions(sigma)
        for _ in range(e):
            poly = poly_mul(poly, minor)
    return poly


def mono_norm(mono) -> int:
    out = 1
    for _, e in mono:
        out *= factorial(e)
    return out


def embedded_state(invariant: dict, dual: dict) -> dict:
    """Contract the W half of the invariant against the dual state.

    Monomials are orthogonal under the Fock pairing with norm prod e!, so
    the coefficient of a Z monomial z^a is sum_b I[z^a w^b] dual[w^b] b!.
    """
    out: dict = {}
    for mono, c in invariant.items():
        zpart = tuple(t for t in mono if t[0][0] == "Z")
        wpart = tuple(t for t in mono if t[0][0] == "W")
        d = dual.get(wpart)
        if d:
            out[zpart] = out.get(zpart, 0) + c * d * mono_norm(wpart)
    return {m: c for m, c in out.items() if c}


def row_degree_monomials(row_degrees, row_offset: int, ncols: int):
    """Every Z monomial with the given row degrees in columns 1..ncols."""
    per_row = []
    for j, deg in enumerate(row_degrees, start=1):
        per_row.append(
            [
                tuple(((("Z", row_offset + j, c), combo.count(c)) for c in sorted(set(combo))))
                for combo in combinations_with_replacement(range(1, ncols + 1), deg)
            ]
        )
    return [tuple(sorted(sum(pick, ()))) for pick in product(*per_row)]


_VAR_TERM = re.compile(r"([ZW])\[(\d+),(\d+)\](?:\^(\d+))?")


def parse_monomial(label: str):
    """'Z[1,1]^2*Z[2,1]' -> monomial tuple; coefficient must be 1."""
    mono: dict = {}
    for part in label.split("*"):
        m = _VAR_TERM.fullmatch(part)
        if m is None:
            raise ValueError(f"bad monomial label {label!r}")
        v = (m[1], int(m[2]), int(m[3]))
        mono[v] = mono.get(v, 0) + int(m[4] or 1)
    return tuple(sorted(mono.items()))


def column_content(mono, matrix: str, ncols: int):
    out = [0] * ncols
    for (mat, _, col), e in mono:
        if mat == matrix:
            out[col - 1] += e
    return tuple(out)

