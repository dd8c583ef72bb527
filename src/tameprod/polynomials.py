"""Exact multivariate polynomials in matrix-indexed variables.

Variables live in two formal matrices Z (factor rows) and W (target rows);
coefficients are Python ints or fractions.Fraction, never floats.  The
stacked-row convention used by act_rows puts the Z rows first and the W
rows below in reversed order, matching the block the group acts on.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import product
from math import factorial
from typing import NamedTuple

from .errors import DimensionMismatch
from .linalg import demote
from .signatures import compositions


class Var(NamedTuple):
    matrix: str
    row: int
    col: int

    def __str__(self):
        return f"{self.matrix}[{self.row},{self.col}]"


def zvar(row: int, col: int) -> Var:
    return Var("Z", row, col)


def wvar(row: int, col: int) -> Var:
    return Var("W", row, col)


def _mono_mul(m1, m2):
    """Merge two sorted ((var, exp), ...) tuples, adding exponents."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def _dict_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    if len(a) > len(b):
        a, b = b, a
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return out


def _clean(terms: dict) -> dict:
    return {m: c for m, c in terms.items() if c}


class MultiPoly:
    """Polynomial as {sorted ((Var, exp), ...) tuple: rational coefficient}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = _clean(terms) if terms else {}

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "MultiPoly":
        return cls({(): c})

    @classmethod
    def variable(cls, v: Var, exp: int = 1) -> "MultiPoly":
        if exp < 0:
            raise ValueError("negative exponent")
        if exp == 0:
            return cls.const(1)
        return cls({((v, exp),): 1})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self.terms
            return self.terms == {(): other}
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return MultiPoly({m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return MultiPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return MultiPoly.zero()
            return MultiPoly({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return MultiPoly(_dict_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValueError("negative exponent")
        result = {(): 1}
        base = self.terms
        e = exp
        while e:
            if e & 1:
                result = _dict_mul(result, base)
            e >>= 1
            if e:
                base = _dict_mul(base, base)
        return MultiPoly(result)

    def variables(self):
        seen = set()
        for m in self.terms:
            for v, _ in m:
                seen.add(v)
        return seen

    def max_col(self, matrix: str | None = None) -> int:
        best = 0
        for m in self.terms:
            for v, _ in m:
                if matrix is None or v.matrix == matrix:
                    if v.col > best:
                        best = v.col
        return best

    def constant_term(self):
        return self.terms.get((), 0)

    def substitute(self, mapping: dict) -> "MultiPoly":
        """Simultaneous substitution Var -> MultiPoly (others unchanged)."""
        if not mapping or not self.terms:
            return self
        cache: dict = {}

        def pw(v, e):
            key = (v, e)
            r = cache.get(key)
            if r is None:
                base = mapping.get(v)
                if base is None:
                    r = {((v, e),): 1}
                else:
                    r = (base ** e).terms
                cache[key] = r
            return r

        total: dict = {}
        for mono, c in self.terms.items():
            acc = {(): c}
            for v, e in mono:
                acc = _dict_mul(acc, pw(v, e))
            for m2, c2 in acc.items():
                total[m2] = total.get(m2, 0) + c2
        return MultiPoly(total)

    def differentiate(self, v: Var) -> "MultiPoly":
        out: dict = {}
        for mono, c in self.terms.items():
            for idx, (vv, e) in enumerate(mono):
                if vv == v:
                    if e == 1:
                        m = mono[:idx] + mono[idx + 1:]
                    else:
                        m = mono[:idx] + ((vv, e - 1),) + mono[idx + 1:]
                    out[m] = out.get(m, 0) + c * e
                    break
        return MultiPoly(out)

    def drop_vars(self, pred) -> "MultiPoly":
        """Set to zero every variable matching pred (drop terms using them)."""
        out: dict = {}
        for mono, c in self.terms.items():
            if not any(pred(v) for v, _ in mono):
                out[mono] = out.get(mono, 0) + c
        return MultiPoly(out)

    def rename_vars(self, fn) -> "MultiPoly":
        out: dict = {}
        for mono, c in self.terms.items():
            m = tuple(sorted((fn(v), e) for v, e in mono))
            out[m] = out.get(m, 0) + c
        return MultiPoly(out)

    def _sorted_for_display(self):
        def mono_key(m):
            disp = tuple(
                (0 if v.matrix == "Z" else 1, v.matrix, v.row, v.col, -e) for v, e in m
            )
            return (-sum(e for _, e in m), disp)

        return sorted(self.terms.items(), key=lambda t: mono_key(t[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self._sorted_for_display():
            factors = [
                (str(v) if e == 1 else f"{v}^{e}")
                for v, e in sorted(mono, key=lambda t: (t[0].matrix != "Z", t[0]))
            ]
            body = "*".join(factors)
            if not factors:
                piece = str(c)
            elif c == 1:
                piece = body
            elif c == -1:
                piece = "-" + body
            else:
                piece = f"{c}*{body}"
            parts.append(piece)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    __repr__ = __str__


def weight_monomials(matrix: str, row_degrees, cmax: int, row_offset: int = 0):
    """All monomials in one matrix whose row row_offset+j has degree
    row_degrees[j-1], in columns 1..cmax; returned as single-term MultiPoly
    objects, the last row varying fastest, each row's exponent vectors in
    descending lexicographic order (so row monomials join already sorted)."""
    per_row = [
        [
            tuple((Var(matrix, row, c), e) for c, e in enumerate(exps, start=1) if e)
            for exps in reversed(list(compositions(deg, (deg,) * cmax)))
        ]
        for row, deg in enumerate(row_degrees, start=row_offset + 1)
    ]
    return [MultiPoly({sum(pick, ()): 1}) for pick in product(*per_row)]


def apply_diff(p: MultiPoly, f: MultiPoly, over=frozenset({"Z", "W"})) -> MultiPoly:
    """Apply p to f, reading p's variables in `over` as partial derivatives.

    Variables of p outside `over` multiply through; variables of f that
    survive differentiation are kept (compose with drop_vars to evaluate
    them at zero).
    """
    out: dict = {}
    fterms = f.terms
    for mono_p, cp in p.terms.items():
        dpart = [(v, e) for v, e in mono_p if v.matrix in over]
        mpart = tuple((v, e) for v, e in mono_p if v.matrix not in over)
        for mono_f, cf in fterms.items():
            coeff = cp * cf
            fd = dict(mono_f)
            ok = True
            for v, e in dpart:
                b = fd.get(v, 0)
                if b < e:
                    ok = False
                    break
                coeff *= factorial(b) // factorial(b - e)
                if b == e:
                    del fd[v]
                else:
                    fd[v] = b - e
            if not ok:
                continue
            mono = _mono_mul(mpart, tuple(sorted(fd.items())))
            out[mono] = out.get(mono, 0) + coeff
    return MultiPoly(out)


def _polarization(terms: dict, p: int, c: int) -> dict:
    """D applied to terms, for D = sum_r Z[r,p] d/dZ[r,c] - W[r,c] d/dW[r,p]."""
    out: dict = {}
    for mono, coeff in terms.items():
        for idx, (v, e) in enumerate(mono):
            matrix, row, col = v
            if col == c and matrix == "Z":
                gain, x = Var("Z", row, p), coeff * e
            elif col == p and matrix == "W":
                gain, x = Var("W", row, c), -coeff * e
            else:
                continue
            m = mono[:idx] + (((v, e - 1),) if e > 1 else ()) + mono[idx + 1:]
            at = bisect_left(m, (gain,))
            if at < len(m) and m[at][0] == gain:
                m = m[:at] + ((gain, m[at][1] + 1),) + m[at + 1:]
            else:
                m = m[:at] + ((gain, 1),) + m[at:]
            out[m] = out.get(m, 0) + x
    return _clean(out)


def shear_cols(f: MultiPoly, p: int, c: int, s) -> MultiPoly:
    """f(Z.S, W.S^-T) for the shear S = I + s.E[p][c] (columns 1-based).

    Z column c gains s times Z column p and W column p loses s times W
    column c.  That substitution is exp(s.D) for the polarization D of
    _polarization, which lowers the degree of Z column c plus W column p by
    one, so the series sum_n s^n/n! D^n f ends within deg f + 1 terms; an f
    that D kills comes back after one pass.
    """
    if p == c:
        raise DimensionMismatch("a shear needs two distinct columns")
    total = dict(f.terms)
    term = f.terms
    n = 0
    while True:
        term = _polarization(term, p, c)
        if not term:
            return MultiPoly(total)
        n += 1
        for m, x in term.items():
            # s^n/n! D^n f is (s/n) times D of the previous term; it is
            # integral whenever f and s are
            term[m] = x = demote(Fraction(x * s, n))
            total[m] = total.get(m, 0) + x


def scale_cols(f: MultiPoly, d) -> MultiPoly:
    """f(Z.D, W.D^-1) for D = diag(d): each term is scaled by the product
    of d[c]^(degree of Z column c - degree of W column c)."""
    if all(x == 1 for x in d):
        return f
    out: dict = {}
    for mono, coeff in f.terms.items():
        weight: dict = {}
        for v, e in mono:
            if v.matrix == "Z":
                weight[v.col] = weight.get(v.col, 0) + e
            elif v.matrix == "W":
                weight[v.col] = weight.get(v.col, 0) - e
        for col, e in weight.items():
            coeff *= Fraction(d[col - 1]) ** e
        out[mono] = demote(coeff)
    return MultiPoly(out)


def act_rows(g, f: MultiPoly, z_rows: int, w_rows: int = 0) -> MultiPoly:
    """Left action of an n x n matrix g on the stacked rows of (Z; W).

    Stacked row i is Z row i for i <= z_rows; below that the W rows appear
    in reversed order, so stacked row i is W row n + 1 - i.
    """
    n = z_rows + w_rows
    if len(g) != n or any(len(row) != n for row in g):
        raise DimensionMismatch(f"matrix is not {n}x{n}")

    def unstack(i):
        return ("Z", i) if i <= z_rows else ("W", n + 1 - i)

    def stack(v):
        if v.matrix == "Z":
            if not 1 <= v.row <= z_rows:
                raise DimensionMismatch(f"{v} outside the {z_rows} Z rows")
            return v.row
        if not 1 <= v.row <= w_rows:
            raise DimensionMismatch(f"{v} outside the {w_rows} W rows")
        return n + 1 - v.row

    mapping = {}
    for v in f.variables():
        i = stack(v)
        terms: dict = {}
        for j in range(1, n + 1):
            c = g[i - 1][j - 1]
            if c:
                mat, row = unstack(j)
                terms[((Var(mat, row, v.col), 1),)] = c
        mapping[v] = MultiPoly(terms)
    return f.substitute(mapping)


def act_cols(f: MultiPoly, g, matrix: str = "Z") -> MultiPoly:
    """Right action on one block: each column of `matrix` becomes M.g's."""
    k = len(g)
    if any(len(row) != k for row in g):
        raise DimensionMismatch("matrix is not square")
    mapping = {}
    for v in f.variables():
        if v.matrix != matrix:
            continue
        if v.col > k:
            raise DimensionMismatch(f"{v} has column above {k}")
        terms: dict = {}
        for u in range(1, k + 1):
            c = g[u - 1][v.col - 1]
            if c:
                terms[((Var(matrix, v.row, u), 1),)] = c
        mapping[v] = MultiPoly(terms)
    return f.substitute(mapping)
