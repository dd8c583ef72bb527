import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_poly, random_unimodular
from tameprod.errors import DimensionMismatch
from tameprod.linalg import matmul
from tameprod.polynomials import (
    MultiPoly,
    Var,
    act_cols,
    act_rows,
    apply_diff,
    scale_cols,
    shear_cols,
    weight_monomials,
    wvar,
    zvar,
)

Z11, Z12, Z21, Z22 = zvar(1, 1), zvar(1, 2), zvar(2, 1), zvar(2, 2)
W11, W21 = wvar(1, 1), wvar(2, 1)


def v(x, e=1):
    return MultiPoly.variable(x, e)


class TestArithmetic:
    def test_add_cancel(self):
        assert v(Z11) - v(Z11) == 0
        assert not (v(Z11) - v(Z11))

    def test_scalar_ops(self):
        p = 2 * v(Z11) + 3
        assert p.constant_term() == 3
        assert (p - 3) == 2 * v(Z11)

    def test_product(self):
        p = (v(Z11) + v(W11)) * (v(Z11) - v(W11))
        assert p == v(Z11, 2) - v(W11, 2)

    def test_pow(self):
        p = v(Z11) + 1
        assert p ** 3 == v(Z11, 3) + 3 * v(Z11, 2) + 3 * v(Z11) + 1
        assert p ** 0 == 1

    def test_fraction_coefficients(self):
        p = Fraction(1, 2) * v(Z11)
        assert (p + p) == v(Z11)

    @given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_ring_axioms(self, s1, s2, s3):
        f = random_poly(random.Random(s1))
        g = random_poly(random.Random(s2))
        h = random_poly(random.Random(s3))
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f
        assert f * (g * h) == (f * g) * h


class TestSubstitute:
    def test_simple(self):
        p = v(Z11, 2)
        q = p.substitute({Z11: v(Z21) + 1})
        assert q == v(Z21, 2) + 2 * v(Z21) + 1

    def test_simultaneous(self):
        p = v(Z11) * v(Z21)
        q = p.substitute({Z11: v(Z21), Z21: v(Z11)})
        assert q == p

    def test_untouched_vars_kept(self):
        p = v(Z11) * v(W11)
        assert p.substitute({Z11: 2 * v(Z12)}) == 2 * v(Z12) * v(W11)


class TestCalculus:
    def test_differentiate(self):
        p = v(Z11, 3) * v(W11)
        assert p.differentiate(Z11) == 3 * v(Z11, 2) * v(W11)
        assert p.differentiate(Z12) == 0

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_leibniz(self, s1, s2):
        f = random_poly(random.Random(s1))
        g = random_poly(random.Random(s2))
        x = Z11
        lhs = (f * g).differentiate(x)
        rhs = f.differentiate(x) * g + f * g.differentiate(x)
        assert lhs == rhs

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_partials_commute(self, seed):
        f = random_poly(random.Random(seed))
        assert f.differentiate(Z11).differentiate(W11) == f.differentiate(W11).differentiate(Z11)

    def test_apply_diff_matches_iterated_derivative(self):
        rng = random.Random(5)
        for _ in range(30):
            f = random_poly(rng)
            p = v(Z11, 2) * v(W11)
            expected = f.differentiate(Z11).differentiate(Z11).differentiate(W11)
            assert apply_diff(p, f) == expected

    def test_apply_diff_respects_over(self):
        p = v(Z11) * v(W11)
        f = v(Z11) * v(W11)
        # only W differentiates; Z11 of p multiplies through
        assert apply_diff(p, f, over=frozenset({"W"})) == v(Z11, 2)


class TestActRows:
    def test_z_only_rows(self):
        g = [[0, 1], [1, 0]]
        f = v(Z11) + 2 * v(Z21)
        assert act_rows(g, f, 2) == v(Z21) + 2 * v(Z11)

    def test_stacked_w_reversal(self):
        # stacked rows: Z1, then W2, W1; g moves stacked row 2 (= W row 2)
        g = [[1, 0, 0], [0, 2, 0], [0, 0, 1]]
        f = v(W21)
        assert act_rows(g, f, 1, 2) == 2 * v(W21)
        assert act_rows(g, v(W11), 1, 2) == v(W11)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            act_rows([[1]], v(Z11) + v(Z21), 2)
        with pytest.raises(DimensionMismatch):
            act_rows([[1, 0], [0, 1]], v(Z21), 1, 1)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_composition(self, seed):
        rng = random.Random(seed)
        zr, wr = 2, 1
        n = zr + wr
        g = random_unimodular(n, rng)
        h = random_unimodular(n, rng)
        f = random_poly(rng, rows=1, cols=2) + v(Z21) * v(W11)
        lhs = act_rows(g, act_rows(h, f, zr, wr), zr, wr)
        rhs = act_rows(matmul(h, g), f, zr, wr)
        assert lhs == rhs

    def test_identity(self):
        f = v(Z11) * v(W11) + 3 * v(Z21, 2)
        assert act_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]], f, 2, 1) == f


class TestActCols:
    def test_single_block(self):
        g = [[1, 1], [0, 1]]
        # col 2 becomes col1 + col2
        assert act_cols(v(Z12), g) == v(Z11) + v(Z12)
        assert act_cols(v(Z11), g) == v(Z11)

    def test_other_matrix_untouched(self):
        g = [[2]]
        f = v(Z11) * v(W11)
        assert act_cols(f, g, matrix="Z") == 2 * f

    def test_col_out_of_range(self):
        with pytest.raises(DimensionMismatch):
            act_cols(v(Z12), [[1]])

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_composition(self, seed):
        rng = random.Random(seed)
        g = random_unimodular(2, rng)
        h = random_unimodular(2, rng)
        f = random_poly(rng, rows=2, cols=2)
        lhs = act_cols(act_cols(f, g, "W"), h, "W")
        rhs = act_cols(f, matmul(h, g), "W")
        assert lhs == rhs


class TestShearAndScaleCols:
    def test_shear_moves_z_and_w_together(self):
        # Z col 2 += 3 Z col 1 and W col 1 -= 3 W col 2
        W12 = wvar(1, 2)
        assert shear_cols(v(Z12), 1, 2, 3) == v(Z12) + 3 * v(Z11)
        assert shear_cols(v(W11), 1, 2, 3) == v(W11) - 3 * v(W12)
        assert shear_cols(v(Z11) * v(W12), 1, 2, 3) == v(Z11) * v(W12)
        # the pairing Z11 W11 + Z12 W12 is invariant
        pairing = v(Z11) * v(W11) + v(Z12) * v(W12)
        assert shear_cols(pairing, 1, 2, Fraction(-5, 2)) == pairing

    def test_series_ends_at_the_degree(self):
        f = v(Z12, 4)
        assert shear_cols(f, 1, 2, 2) == (v(Z12) + 2 * v(Z11)) ** 4
        assert shear_cols(f, 1, 2, Fraction(1, 3)) == (v(Z12) + Fraction(1, 3) * v(Z11)) ** 4

    def test_shear_needs_two_columns(self):
        with pytest.raises(DimensionMismatch):
            shear_cols(v(Z11), 1, 1, 2)

    def test_scale(self):
        f = v(Z11, 2) * v(W21) + v(Z12) * v(wvar(1, 2), 3)
        assert scale_cols(f, [2, -1]) == 2 * v(Z11, 2) * v(W21) + v(Z12) * v(wvar(1, 2), 3)
        assert scale_cols(f, [Fraction(1, 2), 3]) == (
            Fraction(1, 2) * v(Z11, 2) * v(W21) + Fraction(1, 9) * v(Z12) * v(wvar(1, 2), 3)
        )
        assert scale_cols(f, [1, 1]) is f


class TestSerialization:
    def test_str_deterministic(self):
        p = v(Z11, 2) * v(W21) - 3 * v(W11)
        assert str(p) == "Z[1,1]^2*W[2,1] - 3*W[1,1]"

    def test_str_zero_and_constants(self):
        assert str(MultiPoly.zero()) == "0"
        assert str(MultiPoly.const(Fraction(-3, 2))) == "-3/2"

    def test_max_col_and_degree(self):
        p = v(Z12) * v(W21, 3)
        assert p.max_col() == 2
        assert p.max_col("W") == 1
        assert [sum(e for _, e in m) for m in p.terms] == [4]


class TestWeightMonomials:
    def test_multirow_factor(self):
        monos = weight_monomials("Z", (2, 1), 3, row_offset=2)
        # C(4,2) degree-2 monomials in row 3 times C(3,1) in row 4
        assert len(monos) == len(set(monos)) == 18
        for m in monos:
            assert len(m.terms) == 1
            (mono, coeff), = m.terms.items()
            assert coeff == 1
            degrees = {}
            for var, e in mono:
                assert var.matrix == "Z" and 1 <= var.col <= 3
                degrees[var.row] = degrees.get(var.row, 0) + e
            assert degrees == {3: 2, 4: 1}

    @pytest.mark.parametrize("matrix", ["Z", "W"])
    @pytest.mark.parametrize(
        "row_degrees, cmax, row_offset",
        [
            ((2, 0, 1), 3, 0),  # a zero-degree row between two others
            ((3, 2), 1, 0),
            ((0, 0), 0, 0),
            ((0, 1), 0, 0),
            ((1, 2), 2, 3),
        ],
    )
    def test_order(self, matrix, row_degrees, cmax, row_offset):
        # brute force: every exponent vector of a row with the row's degree,
        # the vectors of each row in descending order, the last row varying
        # fastest; the cgc table lists its states in this order
        per_row = [
            sorted((e for e in product(range(deg + 1), repeat=cmax) if sum(e) == deg), reverse=True)
            for deg in row_degrees
        ]
        expected = [
            {
                tuple(sorted(
                    (Var(matrix, row_offset + j, c), x)
                    for j, exps in enumerate(pick, start=1)
                    for c, x in enumerate(exps, start=1)
                    if x
                )): 1
            }
            for pick in product(*per_row)
        ]
        got = weight_monomials(matrix, row_degrees, cmax, row_offset)
        assert [m.terms for m in got] == expected
