import random
from fractions import Fraction
from itertools import product as iproduct
from math import prod

import pytest

from conftest import random_signature, weight_monomials
from tameprod.cg_coefficients import (
    cg_coefficient,
    cg_coefficient_embedded,
    cg_table,
    tilde_map,
    tilde_monomial,
    verify_equivariance,
)
from tameprod.contragredient import lowest_weight_vector_check
from tameprod.errors import RowAllocationViolation, SpanViolation
from tameprod.invariants import (
    TensorProblem,
    diophantine_solutions,
    generator,
    invariant_basis,
    monomial,
)
from tameprod.linalg import rank
from tameprod.polynomials import MultiPoly, wvar, zvar
from tameprod.signatures import sig
from tameprod.weyl_calculus import stable_decompose


def v(x, e=1):
    return MultiPoly.variable(x, e)


def worked():
    prob = TensorProblem.build([sig(1), sig(2), sig(2), sig(3)], sig(7, 1))
    basis = invariant_basis(prob)
    f_star = lowest_weight_vector_check(sig(7, 1), 2)
    return prob, basis, f_star


def factor_states(prob):
    return [
        weight_monomials("Z", f.entries, max(1, prob.q), row_offset=off)
        for f, off in zip(prob.factors, prob.row_offsets)
    ]


def factor_state_grid(prob):
    return list(iproduct(*factor_states(prob)))


class TestTildeMap:
    def test_rank_one(self):
        assert tilde_map(generator(1, 1, 1), v(wvar(1, 1))) == v(zvar(1, 1))

    def test_low_degree_invariant_gives_zero(self):
        assert tilde_map(generator(1, 1, 1), v(wvar(1, 1), 2)) == 0

    def test_worked_embedded_state(self):
        prob, basis, f_star = worked()
        ft = tilde_map(basis.element(0), f_star)
        assert ft
        assert {sum(e for _, e in m) for m in ft.terms} == {8}
        assert all(x.matrix == "Z" and 1 <= x.row <= 4 for x in ft.variables())

    def test_rank_independent(self):
        prob, basis, f_star = worked()
        assert tilde_map(basis.element(0, 2), f_star) == tilde_map(basis.element(0, 3), f_star)

    def test_linear_in_invariant(self):
        prob, basis, f_star = worked()
        a, b = basis.element(0), basis.element(1)
        assert tilde_map(a + 2 * b, f_star) == tilde_map(a, f_star) + 2 * tilde_map(b, f_star)


def contraction_matches_expansion(prob, f_stars, k):
    """tilde_monomial equals tilde_map of the P-monomial expanded at rank k
    on every exponent matrix of the problem and every dual state; returns
    how many P-monomials gave a nonzero state, per dual state."""
    nonzero = [0] * len(f_stars)
    for ell in diophantine_solutions(prob):
        expanded = monomial(prob, ell, k)
        for i, f_star in enumerate(f_stars):
            got = tilde_monomial(ell, f_star.terms)
            assert got == tilde_map(expanded, f_star).terms
            nonzero[i] += bool(got)
    return nonzero


def wrong_degrees(target):
    """W row degrees of the target's weight, one unit moved down a row (or
    added, for one row): a dual state of these degrees pairs with nothing."""
    e = list(target.entries)
    if len(e) >= 2:
        e[0] -= 1
        e[-1] += 1
    else:
        e[0] += 1
    return e


def rational_combination(rng, monos):
    return sum(
        (Fraction(rng.randint(1, 3), rng.randint(1, 3)) * m for m in monos), MultiPoly.zero()
    )


class TestTildeMonomial:
    def test_matches_expansion_on_random_problems(self):
        # 2-3 factors with entries <= 2 and <= 2 rows, targets from the
        # stable spectrum; P-monomials expanded at rank k = q + 1
        rng = random.Random(20261019)
        done = 0
        while done < 12:
            factors = [random_signature(rng, 2, 2) for _ in range(rng.randint(2, 3))]
            spectrum = sorted(stable_decompose(factors).items(), key=lambda t: t[0].entries)
            target = rng.choice(spectrum)[0]
            if sum(target.entries) > 5:
                continue
            prob = TensorProblem.build(factors, target)
            k = prob.q + 1
            lowest = lowest_weight_vector_check(target, prob.q)
            # a few weight monomials at rank k, one of them using column k
            monos = weight_monomials("W", target.entries, k)
            picked = rng.sample(monos, min(5, len(monos)))
            picked.append(rng.choice([m for m in monos if m.max_col() == k]))
            wrong = weight_monomials("W", wrong_degrees(target), k)
            f_stars = [
                lowest,
                rational_combination(rng, picked),
                rational_combination(rng, rng.sample(wrong, min(4, len(wrong)))),
            ]
            lowest_count, combo_count, wrong_count = contraction_matches_expansion(
                prob, f_stars, k
            )
            assert lowest_count > 0 and combo_count > 0 and wrong_count == 0
            done += 1

    def test_trivial_target(self):
        prob = TensorProblem.build([sig()], sig())
        assert len(diophantine_solutions(prob)) == 1
        f_stars = [MultiPoly.const(Fraction(2, 3)), v(wvar(1, 1))]
        assert contraction_matches_expansion(prob, f_stars, 1) == [1, 0]

    def test_one_factor(self):
        prob = TensorProblem.build([sig(2, 1)], sig(2, 1))
        lowest = lowest_weight_vector_check(sig(2, 1), 2)
        wrong = rational_combination(random.Random(3), weight_monomials("W", (1, 2), 3))
        assert contraction_matches_expansion(prob, [lowest, wrong], 3) == [2, 0]

    def test_worked_example(self):
        prob, basis, f_star = worked()
        assert contraction_matches_expansion(prob, [f_star], 2)[0] > 0


class TestCgCoefficient:
    def test_two_routes_agree_on_grid(self):
        prob, basis, f_star = worked()
        grid = factor_state_grid(prob)
        assert len(grid) == 72
        for i in range(basis.dimension):
            inv = basis.element(i)
            ft = tilde_map(inv, f_star)
            from tameprod.fock_pairing import pair

            for states in grid:
                direct = cg_coefficient(prob, inv, list(states), f_star)
                embedded = cg_coefficient_embedded(inv, list(states), f_star)
                assert direct == embedded

    def test_cg_matrix_rank(self):
        prob, basis, f_star = worked()
        grid = factor_state_grid(prob)
        mat = [
            [cg_coefficient(prob, basis.element(i), list(states), f_star) for states in grid]
            for i in range(basis.dimension)
        ]
        assert rank(mat) == 3

    def test_frozen_nonzero_sample(self):
        # states with Z column weight (7,1): the value is nonzero for the
        # third basis vector (frozen from the independent embedded route)
        prob, basis, f_star = worked()
        states = [
            v(zvar(1, 1)),
            v(zvar(2, 1), 2),
            v(zvar(3, 1), 2),
            v(zvar(4, 1), 2) * v(zvar(4, 2)),
        ]
        values = [
            cg_coefficient(prob, basis.element(i), states, f_star) for i in range(3)
        ]
        assert values == [
            cg_coefficient_embedded(basis.element(i), states, f_star) for i in range(3)
        ]
        assert any(values)
        assert values[2] == -46080

    def test_column_orthogonal_sample_is_zero(self):
        # all-column-1 states have Z column weight (8,0); contraction with
        # f_star lives in column weight (7,1), so the pairing vanishes
        prob, basis, f_star = worked()
        states = [
            v(zvar(1, 1)),
            v(zvar(2, 1), 2),
            v(zvar(3, 1), 2),
            v(zvar(4, 1), 3),
        ]
        alt = v(wvar(1, 1), 7) * v(wvar(2, 2)) - v(wvar(1, 1), 6) * v(wvar(2, 1))
        for i in range(3):
            inv = basis.element(i)
            for fs in (f_star, alt):
                a = cg_coefficient(prob, inv, states, fs)
                assert a == cg_coefficient_embedded(inv, states, fs)
                assert a == 0

    def test_linearity(self):
        prob, basis, f_star = worked()
        states = [
            v(zvar(1, 1)),
            v(zvar(2, 1), 2),
            v(zvar(3, 1), 2),
            v(zvar(4, 1), 2) * v(zvar(4, 2)),
        ]
        a, b = basis.element(1), basis.element(2)
        va = cg_coefficient(prob, a, states, f_star)
        vb = cg_coefficient(prob, b, states, f_star)
        assert cg_coefficient(prob, a + 3 * b, states, f_star) == va + 3 * vb
        doubled = [2 * states[0]] + states[1:]
        assert cg_coefficient(prob, a, doubled, f_star) == 2 * va

    def test_row_allocation_violation(self):
        prob, basis, f_star = worked()
        bad = [
            v(zvar(2, 1)),  # row 2 belongs to the second factor
            v(zvar(2, 1), 2),
            v(zvar(3, 1), 2),
            v(zvar(4, 1), 3),
        ]
        with pytest.raises(RowAllocationViolation):
            cg_coefficient(prob, basis.element(0), bad, f_star)
        with pytest.raises(RowAllocationViolation):
            cg_coefficient(prob, basis.element(0), bad[1:], f_star)


def assert_table_matches_direct(prob, factor_states):
    """Every cell of cg_table equals cg_coefficient on the same states."""
    basis = invariant_basis(prob)
    f_star = lowest_weight_vector_check(prob.target, prob.q)
    table = cg_table(basis, factor_states, f_star)
    picks = list(iproduct(*factor_states))
    assert len(table) == basis.dimension
    for i, values in enumerate(table):
        inv = basis.element(i)
        assert values == [cg_coefficient(prob, inv, list(p), f_star) for p in picks]
    return table


class TestCgTable:
    def test_matches_direct_route_on_random_problems(self):
        # 2-3 factors with entries <= 2 and <= 2 rows, targets drawn from
        # the stable (Littlewood-Richardson) spectrum of the product; the
        # table has full rank, one independent row per invariant.  The two
        # routes share no expansion code: cg_table contracts exponent
        # matrices (tilde_monomial), cg_coefficient pairs the invariant
        # expanded by basis.element
        rng = random.Random(20261018)
        dimensions = []
        while len(dimensions) < 30:
            factors = [random_signature(rng, 2, 2) for _ in range(rng.randint(2, 3))]
            spectrum = sorted(stable_decompose(factors).items(), key=lambda t: t[0].entries)
            prob = TensorProblem.build(factors, rng.choice(spectrum)[0])
            per_factor = factor_states(prob)
            if prod(map(len, per_factor)) > 700:
                continue
            table = assert_table_matches_direct(prob, per_factor)
            assert rank(table) == len(table) > 0
            dimensions.append(len(table))
        assert max(dimensions) >= 2

    def test_combined_states(self):
        # states that are combinations of weight monomials, with rational
        # coefficients: each cell is the product of the state coefficients
        prob = TensorProblem.build([sig(2, 1), sig(1)], sig(2, 1, 1))
        rng = random.Random(7)
        per_factor = []
        for f, off in zip(prob.factors, prob.row_offsets):
            monos = weight_monomials("Z", f.entries, prob.q, row_offset=off)
            per_factor.append(
                [
                    sum(
                        (Fraction(rng.randint(-3, 3), rng.randint(1, 2)) * m for m in monos),
                        MultiPoly.zero(),
                    )
                    for _ in range(3)
                ]
            )
        table = assert_table_matches_direct(prob, per_factor)
        assert any(any(row) for row in table)

    def test_one_factor(self):
        prob = TensorProblem.build([sig(2, 1)], sig(2, 1))
        table = assert_table_matches_direct(prob, [weight_monomials("Z", (2, 1), 2)])
        assert len(table) == 1 and any(table[0])

    def test_multiplicity_zero_gives_empty_table(self):
        prob = TensorProblem.build([sig(2), sig(1)], sig(1, 1, 1))
        assert assert_table_matches_direct(prob, factor_states(prob)) == []

    def test_worked_grid(self):
        prob, basis, f_star = worked()
        table = cg_table(basis, factor_states(prob), f_star)
        assert rank(table) == 3
        states = [
            v(zvar(1, 1)),
            v(zvar(2, 1), 2),
            v(zvar(3, 1), 2),
            v(zvar(4, 1), 2) * v(zvar(4, 2)),
        ]
        assert [row[0] for row in cg_table(basis, [[s] for s in states], f_star)] == [0, 0, -46080]

    def test_row_allocation_violation(self):
        prob, basis, f_star = worked()
        states = [[v(zvar(1, 1))], [v(zvar(2, 1), 2)], [v(zvar(3, 1), 2)], [v(zvar(4, 1), 3)]]
        assert cg_table(basis, states, f_star) == [[0], [0], [0]]
        with pytest.raises(RowAllocationViolation, match="state 0 uses Z\\[2,1\\]"):
            cg_table(basis, [[v(zvar(1, 1)), v(zvar(2, 1))], *states[1:]], f_star)
        with pytest.raises(RowAllocationViolation, match="expected 4 factor states, got 3"):
            cg_table(basis, states[1:], f_star)
        with pytest.raises(RowAllocationViolation, match="dual state"):
            cg_table(basis, states, v(wvar(3, 1)))


class TestEquivariance:
    def stable_span(self):
        return weight_monomials("W", (7, 1), 2)

    def test_holds_for_rational_g(self):
        prob, basis, f_star = worked()
        span = self.stable_span()
        gs = [
            [[1, 1], [0, 1]],
            [[2, 1], [1, 1]],
            [[0, 1], [1, 0]],
            [[Fraction(1, 2), 1], [1, 3]],
        ]
        for g in gs:
            for i in range(basis.dimension):
                assert verify_equivariance(basis.element(i), span, g)

    def test_span_violation(self):
        prob, basis, f_star = worked()
        with pytest.raises(SpanViolation):
            verify_equivariance(basis.element(0), [f_star], [[2, 1], [1, 1]])

    def test_lowest_weight_line_stable_under_upper(self):
        prob, basis, f_star = worked()
        # upper unipotent fixes the lowest-weight line, so the singleton
        # span is legitimate there
        assert verify_equivariance(basis.element(0), [f_star], [[1, 2], [0, 1]])
