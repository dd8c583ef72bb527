import random
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_unimodular
from tameprod.errors import DimensionMismatch
from tameprod.linalg import (
    column_shears,
    identity,
    invert,
    matmul,
    nullspace_primitive,
    perm_sign,
    rank,
    rref,
    solve_dict_system,
)

ENTRY = st.one_of(
    st.just(0),
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)
NONZERO = st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(bool)


@st.composite
def matrices(draw, max_rows=7, max_cols=6):
    """(rows, ncols): possibly empty, with rows of int and Fraction entries."""
    ncols = draw(st.integers(1, max_cols))
    row = st.one_of(
        st.lists(ENTRY, min_size=ncols, max_size=ncols),
        st.just([0] * ncols),
    )
    return draw(st.lists(row, max_size=max_rows)), ncols


def dot(row, vec):
    return sum(x * y for x, y in zip(row, vec))


class TestNullspace:
    def test_empty_matrix(self):
        assert nullspace_primitive([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert rank([]) == 0
        assert rref([]) == ([], [])

    def test_all_zero_matrix(self):
        zero = [[0, 0], [Fraction(0), 0]]
        assert nullspace_primitive(zero, 2) == [(1, 0), (0, 1)]
        assert rank(zero) == 0
        assert rref(zero) == ([], [])

    def test_clears_denominators(self):
        rows = [[Fraction(1, 2), Fraction(-1, 3), 0]]
        assert nullspace_primitive(rows, 3) == [(2, 3, 0), (0, 0, 1)]

    @given(matrices())
    @settings(max_examples=150, deadline=None)
    def test_vectors_killed_primitive_positive(self, case):
        rows, ncols = case
        basis = nullspace_primitive(rows, ncols)
        assert len(basis) + rank(rows) == ncols
        for vec in basis:
            assert len(vec) == ncols
            assert all(type(x) is int for x in vec)
            assert all(dot(row, vec) == 0 for row in rows)
            assert gcd(*vec) == 1
            assert next(x for x in vec if x) > 0


class TestRref:
    @given(matrices())
    @settings(max_examples=150, deadline=None)
    def test_reduced_form(self, case):
        rows, ncols = case
        reduced, pivots = rref(rows)
        assert pivots == sorted(set(pivots))
        assert len(reduced) == len(pivots) == rank(rows)
        for i, (row, pc) in enumerate(zip(reduced, pivots)):
            assert len(row) == ncols
            assert not any(row[:pc])
            for j, other in enumerate(pivots):
                assert row[other] == (1 if i == j else 0)
        # the input rows lie in the span of the reduced rows
        for row in rows:
            combo = [sum(row[pc] * r[c] for pc, r in zip(pivots, reduced)) for c in range(ncols)]
            assert combo == list(row)

    @given(matrices(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_invariant_under_row_operations(self, case, data):
        rows, ncols = case
        expected = rref(rows)
        shuffled = data.draw(st.permutations(rows))
        if rows:
            shuffled += data.draw(st.lists(st.sampled_from(rows), max_size=3))
        assert rref(shuffled) == expected
        if not rows:
            return
        i = data.draw(st.integers(0, len(rows) - 1))
        scale = data.draw(NONZERO)
        scaled = [list(r) for r in rows]
        scaled[i] = [scale * x for x in scaled[i]]
        assert rref(scaled) == expected
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        combo = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)]
        assert rref(rows + [combo]) == expected


class TestSolveDictSystem:
    @given(matrices(max_rows=4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_recovers_combination(self, case, data):
        rows, ncols = case
        basis = [{f"e{j}": x for j, x in enumerate(r) if x} for r in rows]
        coeffs = data.draw(st.lists(NONZERO, min_size=len(rows), max_size=len(rows)))
        target = {}
        for c, d in zip(coeffs, basis):
            for key, x in d.items():
                target[key] = target.get(key, 0) + c * x
        target = {key: x for key, x in target.items() if x}
        sol = solve_dict_system(basis, target)
        assert sol is not None
        for j in range(ncols):
            assert sum(s * d.get(f"e{j}", 0) for s, d in zip(sol, basis)) == target.get(f"e{j}", 0)
        if rank(rows) == len(rows):
            assert sol == coeffs
        target["outside"] = 1
        assert solve_dict_system(basis, target) is None


class TestMappingRows:
    def test_equal_dense_route(self):
        # {column: entry} rows, as cg_table passes its embedded states, give
        # the rank and nullspace of the dense rows they stand for, whatever
        # their insertion order, explicit zeros or column keys
        rng = random.Random(23)
        entries = [0, 0, 1, -2, 3, Fraction(1, 2), Fraction(-5, 3), Fraction(4, 6)]
        for _ in range(300):
            ncols = rng.randint(1, 6)
            dense = [[rng.choice(entries) for _ in range(ncols)] for _ in range(rng.randint(0, 6))]
            dense.insert(rng.randint(0, len(dense)), [0] * ncols)
            mapped = []
            for row in dense:
                items = [(c, x) for c, x in enumerate(row) if x or rng.random() < 0.3]
                rng.shuffle(items)
                mapped.append(dict(items))
            assert rank(mapped) == rank(dense)
            assert nullspace_primitive(mapped, ncols) == nullspace_primitive(dense, ncols)
            # sparse large keys in the columns' order, like packed monomials
            keys = sorted(rng.sample(range(1 << 40), ncols))
            packed = [{keys[c]: x for c, x in row.items()} for row in mapped]
            assert rank(packed) == rank(dense)

    def test_zero_key_and_empty_rows(self):
        assert rank([{}, {0: 0}]) == 0
        assert rank([{0: Fraction(1, 2)}, {0: 3}, {7: 1}]) == 2
        assert nullspace_primitive([{0: Fraction(1, 2)}, {}], 2) == [(0, 1)]


class TestMatmul:
    @pytest.mark.parametrize("n", range(0, 4))
    def test_identity(self, n):
        a = [[i - 2 * j for j in range(n)] for i in range(n)]
        # n = 0 is matmul([], []) == []
        assert matmul(a, identity(n)) == matmul(identity(n), a) == a


def shear_matrix(n, p, c, t):
    e = identity(n)
    e[p][c] = t
    return e


class TestColumnShears:
    @given(st.integers(1, 4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_factors_to_diagonal(self, n, data):
        row = st.lists(ENTRY, min_size=n, max_size=n)
        g = data.draw(st.lists(row, min_size=n, max_size=n))
        if rank(g) < n:
            with pytest.raises(DimensionMismatch):
                column_shears(g)
            return
        shears, diagonal = column_shears(g)
        product = g
        for p, c, t in shears:
            assert p != c
            product = matmul(product, shear_matrix(n, p, c, t))
        assert product == [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]

    def test_unimodular_shears_are_integral(self):
        g = matmul([[2, 1, 0], [1, 1, 0], [0, 0, 1]], [[1, 0, 0], [3, 1, 0], [-2, 5, -1]])
        shears, diagonal = column_shears(g)
        assert all(type(t) is int for _, _, t in shears)
        assert all(d in (1, -1) for d in diagonal)

    def test_diagonal_needs_no_shears(self):
        assert column_shears([[2, 0], [0, 3]]) == ([], [2, 3])
        assert column_shears([]) == ([], [])

    @pytest.mark.parametrize("g", [[[0]], [[1, 2], [2, 4]], [[0, 0], [0, 1]], [[1, 0], [1]]])
    def test_singular_or_not_square(self, g):
        with pytest.raises(DimensionMismatch):
            column_shears(g)


class TestInvert:
    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("fractions", [False, True])
    def test_inverse(self, n, fractions):
        # an upper unitriangular times a lower triangular with nonzero diagonal
        diag = [Fraction(i + 2, 3) if fractions else -(i + 1) for i in range(n)]
        upper = [[(i + 2 * j) % 5 - 2 if i < j else int(i == j) for j in range(n)] for i in range(n)]
        lower = [[(3 * i + j) % 4 - 1 if i > j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            lower[i][i] = diag[i]
        g = matmul(upper, lower)
        assert matmul(g, invert(g)) == identity(n)
        assert matmul(invert(g), g) == identity(n)

    def test_empty(self):
        assert invert([]) == identity(0) == []

    def test_integral_entries_are_ints(self):
        inv = invert([[2, 1], [1, 1]])
        assert inv == [[1, -1], [-1, 2]]
        assert all(type(x) is int for row in inv for x in row)
        inv = invert([[Fraction(1, 2), 0], [0, 2]])
        assert inv == [[2, 0], [0, Fraction(1, 2)]]
        assert [type(x) for row in inv for x in row] == [int, int, int, Fraction]

    @pytest.mark.parametrize(
        "g",
        [[[0]], [[1, 2], [2, 4]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]], [[0, 0], [0, 1]]],
    )
    def test_singular(self, g):
        with pytest.raises(DimensionMismatch):
            invert(g)


def cycle_sign(p):
    """Sign of the permutation i -> p[i] of range(n), from its cycle lengths."""
    sign, seen = 1, set()
    for i in range(len(p)):
        length, j = 0, i
        while j not in seen:
            seen.add(j)
            j = p[j]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


class TestPermSign:
    @pytest.mark.parametrize("n", range(0, 6))
    def test_every_permutation(self, n):
        for p in permutations(range(n)):
            assert perm_sign(p) == cycle_sign(p)

    @given(st.lists(st.integers(-50, 50), unique=True, max_size=8))
    def test_distinct_integers(self, seq):
        # the sign of a sequence is that of the permutation ranking it
        order = sorted(seq)
        assert perm_sign(seq) == cycle_sign([order.index(x) for x in seq])


class TestRandomUnimodular:
    def test_small_ranks_are_identity(self):
        rng = random.Random(3)
        assert random_unimodular(0, rng) == identity(0) == []
        assert random_unimodular(1, rng) == identity(1) == [[1]]
