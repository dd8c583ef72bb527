"""Small exact linear algebra helpers over the rationals.

rref, rank, nullspace_primitive, solve_dict_system and invert share one
sparse, fraction-free Gauss-Jordan elimination over the integers; each row
is kept primitive by its gcd, as in the one-step form of Bareiss (Math.
Comp. 22, 1968), so no Fraction arithmetic happens inside it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatch


def demote(x):
    """Turn integral Fractions back into ints (keeps arithmetic fast)."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a, b):
    n, m = len(a), len(b[0]) if b else 0
    inner = len(b)
    return [
        [sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(m)]
        for i in range(n)
    ]


def transpose(a):
    return [list(col) for col in zip(*a)]


def invert(matrix):
    """Exact inverse of a square matrix (entries int or Fraction), read
    off the reduced row echelon form of [matrix | I]."""
    n = len(matrix)
    rows, pivots = rref([[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(matrix)])
    if pivots[:n] != list(range(n)):
        raise DimensionMismatch("matrix is singular")
    return [[demote(x) for x in row[n:]] for row in rows]


def contragredient_matrix(g):
    """(g^T)^{-1}, exactly."""
    return transpose(invert(g))


def column_shears(g):
    """Factor an invertible square g by elementary column shears.

    Returns (shears, diagonal) with g.C1...Cm = diag(diagonal), where each
    shear (p, c, t) is Ck = I + t.E[p][c], adding t times column p to
    column c (0-based).  Row by row, Euclid's algorithm on the entries
    right of the diagonal leaves one of them nonzero; two shears move it
    onto the diagonal.  The entries below the diagonal are then cleared.
    Every Euclid step t is an integer, and for an integer g of determinant
    +-1 every pivot is +-1, so all of its shears are integral.
    """
    n = len(g)
    if any(len(row) != n for row in g):
        raise DimensionMismatch("matrix is not square")
    m = [list(row) for row in g]
    shears = []

    def shear(p, c, t):
        for row in m:
            if row[p]:
                row[c] += t * row[p]
        shears.append((p, c, t))

    for i, row in enumerate(m):
        while True:
            live = [j for j in range(i, n) if row[j]]
            if not live:
                raise DimensionMismatch("matrix is singular")
            if len(live) == 1:
                break
            p = min(live, key=lambda j: abs(row[j]))
            for c in live:
                if c != p:
                    shear(p, c, -(row[c] // row[p]))
        (p,) = live
        if p != i:
            shear(p, i, 1)
            shear(i, p, -1)
    for j in range(1, n):
        for c in range(j):
            if m[j][c]:
                shear(j, c, demote(-Fraction(m[j][c]) / m[j][j]))
    return shears, [demote(m[i][i]) for i in range(n)]


def perm_sign(p) -> int:
    """Sign of a permutation given as a sequence of distinct integers."""
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return -1 if inv % 2 else 1


def _integer_rows(matrix):
    """Distinct nonzero rows as primitive {col: int} dicts, leading entry > 0.

    Rows are sequences or {int column: entry} mappings.  Each is cleared of
    denominators by their lcm and divided by the gcd of its entries, so rows
    that are rational multiples of each other coincide and are kept once.
    """
    seen = {}
    for row in matrix:
        items = sorted(row.items()) if hasattr(row, "items") else enumerate(row)
        entries = {c: x for c, x in items if x}
        if not entries:
            continue
        den = lcm(*(x.denominator for x in entries.values()))
        ints = {c: x.numerator * (den // x.denominator) for c, x in entries.items()}
        ints = _primitive(ints)
        if next(iter(ints.values())) < 0:
            ints = {c: -x for c, x in ints.items()}
        seen.setdefault(tuple(ints.items()), ints)
    return list(seen.values())


def _primitive(row):
    g = gcd(*row.values())
    return row if g == 1 else {c: x // g for c, x in row.items()}


def _eliminate(row, pivot_row, col):
    """a*row - b*pivot_row with column col cancelled, made primitive."""
    g = gcd(row[col], pivot_row[col])
    a, b = pivot_row[col] // g, row[col] // g
    out = {c: a * x for c, x in row.items()} if a != 1 else dict(row)
    for c, x in pivot_row.items():
        y = out.get(c, 0) - b * x
        if y:
            out[c] = y
        else:
            del out[c]
    return _primitive(out) if out else out


def _reduced_echelon(matrix):
    """Sparse fraction-free Gauss-Jordan elimination over the integers.

    Returns {pivot column: row}, each row a primitive {col: int} dict with
    a positive entry in its pivot column, which is its leading column, and
    zeros in every other pivot column.  Row i of the reduced row echelon
    form of `matrix` is the i-th of these rows (by pivot column) divided by
    its pivot entry.
    """
    pivots = {}
    for row in _integer_rows(matrix):
        # pivot rows are zero in each other's pivot columns, so clearing one
        # pivot column brings in no other and a single pass clears them all
        for pc in [c for c in row if c in pivots]:
            row = _eliminate(row, pivots[pc], pc)
        if not row:
            continue
        col = min(row)
        if row[col] < 0:
            row = {c: -x for c, x in row.items()}
        for c, other in pivots.items():
            if col in other:
                pivots[c] = _eliminate(other, row, col)
        pivots[col] = row
    return dict(sorted(pivots.items()))


def rref(matrix):
    """Reduced row echelon form; returns (rows, pivot_columns).

    Rows are lists of Fractions with 1 in their pivot column.
    """
    echelon = _reduced_echelon(matrix)
    if not echelon:
        return [], []
    ncols = len(matrix[0])
    rows = [
        [Fraction(row.get(c, 0), row[pc]) for c in range(ncols)]
        for pc, row in echelon.items()
    ]
    return rows, list(echelon)


def rank(matrix) -> int:
    """Rank of a matrix whose rows are sequences or {column: entry} mappings."""
    return len(_reduced_echelon(matrix))


def nullspace_primitive(matrix, ncols: int):
    """Basis of the nullspace as primitive integer vectors.

    Each vector has coprime entries and positive first nonzero entry;
    `matrix` may be empty (nullspace is all of Q^ncols).  There is one
    vector per free column, in increasing order of that column.
    """
    echelon = _reduced_echelon(matrix)
    by_free = {}
    for pc, row in echelon.items():
        for c, x in row.items():
            if c != pc:
                by_free.setdefault(c, []).append((pc, x, row[pc]))
    basis = []
    for fc in range(ncols):
        if fc in echelon:
            continue
        entries = by_free.get(fc, [])
        scale = lcm(*(p for _, _, p in entries))
        vec = [0] * ncols
        vec[fc] = scale
        for pc, x, p in entries:
            vec[pc] = -x * (scale // p)
        g = gcd(*vec)
        lead = next(x for x in vec if x)
        if lead < 0:
            g = -g
        basis.append(tuple(x // g for x in vec))
    return basis


def solve_dict_system(basis_dicts, target_dict):
    """Solve sum_i x_i * basis_i == target in coordinates given by dict keys.

    Returns the coefficient list, or None if the target is not in the span.
    """
    keys = set(target_dict)
    for d in basis_dicts:
        keys |= set(d)
    keys = sorted(keys)
    n = len(basis_dicts)
    aug = [
        [d.get(key, 0) for d in basis_dicts] + [target_dict.get(key, 0)]
        for key in keys
    ]
    rows, pivots = rref(aug)
    sol = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        if pc == n:
            return None  # inconsistent
        sol[pc] = rows[r][n]
    # verify (handles free columns set to zero)
    for key in keys:
        total = sum(sol[i] * basis_dicts[i].get(key, 0) for i in range(n))
        if total != target_dict.get(key, 0):
            return None
    return sol
