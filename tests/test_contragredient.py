import random
from fractions import Fraction

import pytest

from conftest import random_signature
from tameprod.contragredient import (
    highest_weight_vector,
    lowest_weight_vector_check,
    negate_signature,
    reversal,
)
from tameprod.errors import NotDominant, RankTooSmall
from tameprod.invariants import diagonal_right_action
from tameprod.linalg import matmul, transpose
from tameprod.polynomials import MultiPoly, act_cols, act_rows, wvar, zvar
from tameprod.signatures import sig


def v(x, e=1):
    return MultiPoly.variable(x, e)


class TestReversal:
    def test_involution_and_symmetric(self):
        for k in (1, 2, 3, 5):
            s = reversal(k)
            ident = [[int(i == j) for j in range(k)] for i in range(k)]
            assert matmul(s, s) == ident
            assert transpose(s) == s

    def test_entries(self):
        assert reversal(3) == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]


class TestHighestWeightVector:
    def test_single_row(self):
        assert highest_weight_vector(sig(3)) == v(zvar(1, 1), 3)

    def test_two_rows(self):
        det = v(zvar(1, 1)) * v(zvar(2, 2)) - v(zvar(1, 2)) * v(zvar(2, 1))
        expected = v(zvar(1, 1), 6) * det
        assert highest_weight_vector(sig(7, 1)) == expected

    def test_negative_label_rejected(self):
        with pytest.raises(NotDominant):
            highest_weight_vector(sig(-1))
        with pytest.raises(NotDominant):
            lowest_weight_vector_check(sig(-1), 1)

    def test_diagonal_weight(self):
        # row action by diag(d) scales by prod d_i^{m_i}
        m = sig(3, 1)
        f = highest_weight_vector(m)
        d = [[2, 0], [0, 3]]
        assert act_rows(d, f, 2) == (2 ** 3) * (3 ** 1) * f

    def test_fixed_under_lower_unipotent_rows(self):
        rng = random.Random(1)
        for _ in range(10):
            m = random_signature(rng, max_entry=3, max_len=3)
            l = m.length
            if l < 2:
                continue
            g = [[int(i == j) for j in range(l)] for i in range(l)]
            i, j = sorted(rng.sample(range(l), 2))
            g[j][i] = rng.randint(-2, 2)  # row j += c * row i, j > i
            f = highest_weight_vector(m)
            assert act_rows(g, f, l) == f


class TestLowestWeightVector:
    def test_worked_example(self):
        # w11^6 * det [[w22, w21], [w12, w11]]
        det = v(wvar(2, 2)) * v(wvar(1, 1)) - v(wvar(2, 1)) * v(wvar(1, 2))
        expected = v(wvar(1, 1), 6) * det
        assert lowest_weight_vector_check(sig(7, 1), 2) == expected

    def test_needs_enough_rows(self):
        with pytest.raises(RankTooSmall):
            lowest_weight_vector_check(sig(2, 1), 1)

    def test_dual_diagonal_character(self):
        # right action by diag(d) scales the dual model by prod d_i^{-m_i}
        m = sig(7, 1)
        f = lowest_weight_vector_check(m, 2)
        d = [[2, 0], [0, 3]]
        scaled = diagonal_right_action(f, d)
        assert scaled == Fraction(1, 2 ** 7 * 3 ** 1) * f

    def test_fixed_under_upper_unipotent_columns(self):
        f = lowest_weight_vector_check(sig(7, 1), 2)
        for c in (-2, 1, 3):
            u = [[1, c], [0, 1]]
            assert act_cols(f, u, matrix="W") == f

    def test_unipotent_right_action_fixes(self):
        # Eq-style check: the contragredient action of a lower unipotent
        # fixes the lowest weight model
        f = lowest_weight_vector_check(sig(7, 1), 2)
        for c in (-1, 2):
            zeta = [[1, 0], [c, 1]]
            assert diagonal_right_action(f, zeta) == f


class TestNegateSignature:
    def test_examples(self):
        assert negate_signature(sig(7, 1)) == sig(-1, -7)
        assert negate_signature(sig()) == sig()
        assert negate_signature(sig(2, 2)) == sig(-2, -2)

    def test_involution(self):
        rng = random.Random(2)
        for _ in range(20):
            m = random_signature(rng, max_entry=5, max_len=4, allow_empty=True)
            assert negate_signature(negate_signature(m)) == m
