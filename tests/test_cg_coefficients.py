import random
from fractions import Fraction
from itertools import product as iproduct
from math import prod

import pytest

from conftest import random_signature, weight_monomials
from tameprod import cg_coefficients
from tameprod.cg_coefficients import (
    PackedDual,
    cg_coefficient,
    cg_coefficient_embedded,
    cg_table,
    tilde_map,
    tilde_monomial,
    verify_equivariance,
)
from tameprod.contragredient import lowest_weight_vector_check
from tameprod.errors import RowAllocationViolation, SelfCheckError, SpanViolation
from tameprod.invariants import (
    InvariantBasis,
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


def unpack(terms, dual):
    """Packed {Z monomial: x}, in dual's layout, back to the sorted
    ((Z var, exponent), ...) monomials of MultiPoly terms."""
    field = (1 << dual.width) - 1
    out = {}
    for m, x in terms.items():
        mono = []
        slot = 0
        while m:
            if m & field:
                a, t = divmod(slot, dual.ncols)
                mono.append((zvar(a + 1, t + 1), m & field))
            m >>= dual.width
            slot += 1
        out[tuple(mono)] = x
    return out


def contraction_matches_expansion(prob, f_stars, k):
    """tilde_monomial equals tilde_map of the P-monomial expanded at rank k
    on every exponent matrix of the problem and every dual state; returns
    how many P-monomials gave a nonzero state, per dual state."""
    nonzero = [0] * len(f_stars)
    duals = [PackedDual(f_star.terms, prob.p) for f_star in f_stars]
    for ell in diophantine_solutions(prob):
        expanded = monomial(prob, ell, k)
        for i, f_star in enumerate(f_stars):
            got = unpack(tilde_monomial(ell, duals[i]), duals[i])
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
    """Every cell of cg_table equals cg_coefficient on the same states, the
    invariants expanded at the largest column of the states."""
    basis = invariant_basis(prob)
    f_star = lowest_weight_vector_check(prob.target, prob.q)
    k = max([1] + [x.col for states in factor_states for s in states for x in s.variables()])
    table = cg_table(basis, factor_states, f_star)
    picks = list(iproduct(*factor_states))
    assert len(table) == basis.dimension
    for i, values in enumerate(table):
        inv = basis.element(i, k)
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


class TestPackedDual:
    def test_layout(self):
        # f* of degree 7 in columns 1..2: fields of bit_length(7) + 1 = 4 bits
        dual = PackedDual({((wvar(1, 1), 6), (wvar(1, 2), 1)): 1}, 2)
        assert (dual.ncols, dual.width, dual.top) == (2, 4, 7)
        assert dual.pack(((zvar(1, 2), 1), (zvar(2, 1), 3))) == (1 << 4 | 3 << 8, 6)

    def test_top_exponent_does_not_carry(self):
        # the largest exponent a field holds fills every slot without
        # reaching its neighbour; the sum of two such monomials still stays
        # in its slots but sets their guard bits, which the check reads
        dual = PackedDual({((wvar(1, 1), 6), (wvar(1, 2), 1)): 1}, 2)
        top = (1 << (7).bit_length()) - 1
        mono = tuple((zvar(a, t), top) for a in (1, 2) for t in (1, 2))
        packed, norm = dual.pack(mono)
        assert unpack({packed: 1}, dual) == {mono: 1}
        assert norm == prod([5040] * 4)
        dual.check([packed], "a test monomial")
        doubled = tuple((v, 2 * top) for v, _ in mono)
        assert unpack({packed + packed: 1}, dual) == {doubled: 1}
        with pytest.raises(SelfCheckError, match="exceeds the packed field of 4 bits"):
            dual.check([packed + packed], "a test monomial")

    def test_unmeetable_terms_are_not_packed(self):
        # a column beyond f*'s, or an exponent beyond the field, would land
        # in another slot; f~ has neither, so such a term is dropped
        dual = PackedDual({((wvar(1, 1), 6), (wvar(1, 2), 1)): 1}, 2)
        assert dual.pack(((zvar(1, 3), 1),)) is None
        assert dual.pack(((zvar(1, 1), 8),)) is None
        with pytest.raises(SelfCheckError, match="exceeds the packed field"):
            dual.check([dual.pack(((zvar(3, 1), 1),))[0]], "a test monomial")

    def test_trivial_dual(self):
        # f* = 1 for ()x()->(): degree 0, no columns, no slots
        dual = PackedDual({(): 1}, 0)
        assert (dual.ncols, dual.width, dual.top) == (0, 1, 0)
        assert dual.pack(()) == (0, 1)
        assert dual.pack(((zvar(1, 1), 1),)) is None
        dual.check([0], "the constant")


class TestCgTableChecks:
    def test_each_row_contraction_once(self, monkeypatch):
        # one table computes each (column of ell, W row of f*) contraction
        # once, however many P-monomials and basis vectors share it
        keys = []
        row_contraction = cg_coefficients._row_contraction

        def counting(col, row, dual):
            keys.append((col, row))
            return row_contraction(col, row, dual)

        monkeypatch.setattr(cg_coefficients, "_row_contraction", counting)
        prob = TensorProblem.build([sig(2, 1), sig(2, 1)], sig(3, 2, 1))
        basis = invariant_basis(prob)
        f_star = lowest_weight_vector_check(prob.target, prob.q)
        table = cg_table(basis, factor_states(prob), f_star)
        assert len(table) == 2 and len(table[0]) == 324
        assert keys and len(keys) == len(set(keys))

    def test_duplicated_vector_raises(self):
        prob, basis, f_star = worked()
        states = factor_states(prob)
        v0, v1 = basis.vectors[0], basis.vectors[1]
        for vectors in ([v0, v0], [v0, v1, [2 * x - 3 * y for x, y in zip(v0, v1)]]):
            bad = InvariantBasis(prob, basis.monomials, vectors)
            with pytest.raises(SelfCheckError, match="not independent"):
                cg_table(bad, states, f_star)

    def test_dual_of_another_type_gives_zeros(self):
        # W[1,1]^7 W[2,1] has column weight (8,0), so it lies in the (8)
        # part of the W polynomials and meets no invariant of target (7,1):
        # every embedded state is zero, and the table is zero, not an error
        prob, basis, f_star = worked()
        other = v(wvar(1, 1), 7) * v(wvar(2, 1))
        states = [s[:2] for s in factor_states(prob)]
        assert cg_table(basis, states, other) == [[0] * 16] * 3
        for i in range(basis.dimension):
            inv = basis.element(i)
            assert not any(cg_coefficient(prob, inv, list(p), other) for p in iproduct(*states))


class TestWideDifferential:
    def test_random_problems_with_a_column_beyond_the_dual(self):
        # 2-3 factors with entries <= 2 and <= 2 rows, half of the draws
        # with an empty factor put in; the states use one column more than
        # f*, and each cell with that column reads 0 on both routes
        rng = random.Random(20261020)
        dimensions = []
        while len(dimensions) < 30:
            factors = [random_signature(rng, 2, 2) for _ in range(rng.randint(2, 3))]
            if rng.random() < 0.5:
                factors.insert(rng.randint(0, len(factors)), sig())
            spectrum = sorted(stable_decompose(factors).items(), key=lambda t: t[0].entries)
            prob = TensorProblem.build(factors, rng.choice(spectrum)[0])
            kx = max(1, prob.q)
            states = [
                weight_monomials("Z", f.entries, kx + 1, row_offset=off)
                for f, off in zip(prob.factors, prob.row_offsets)
            ]
            if prod(map(len, states)) > 400:
                continue
            table = assert_table_matches_direct(prob, states)
            beyond = [
                j
                for j, pick in enumerate(iproduct(*states))
                if any(x.col > kx for s in pick for x in s.variables())
            ]
            assert all(row[j] == 0 for row in table for j in beyond)
            dimensions.append(len(table))
        assert max(dimensions) >= 2

    def test_empty_factors_and_target(self):
        prob = TensorProblem.build([sig(), sig()], sig())
        table = assert_table_matches_direct(prob, [[MultiPoly.const(1)]] * 2)
        assert table == [[1]]
        prob = TensorProblem.build([sig(2), sig()], sig(2))
        table = assert_table_matches_direct(prob, factor_states(prob))
        assert len(table) == 1 and any(table[0])

    def test_exponents_at_the_field_top(self):
        # deg f* = 7 gives 4-bit fields holding exponents up to 7, and the
        # embedded state of ()x(7) -> (7) is a multiple of Z[1,1]^7
        prob = TensorProblem.build([sig(), sig(7)], sig(7))
        states = [[MultiPoly.const(1)], weight_monomials("Z", (7,), 2)]
        table = assert_table_matches_direct(prob, states)
        basis = invariant_basis(prob)
        dual = PackedDual(lowest_weight_vector_check(prob.target, prob.q).terms, prob.p)
        assert dual.top == 7
        (ell,) = [m for c, m in zip(basis.vectors[0], basis.monomials) if c]
        assert list(unpack(tilde_monomial(ell, dual), dual)) == [((zvar(1, 1), 7),)]
        assert table[0][0] != 0 and not any(table[0][1:])

    def test_unmeetable_state_terms_do_not_alias(self):
        # Z[1,3] would sit in Z[2,1]'s slot, making Z[1,2] Z[1,3] look like
        # Z[1,2] Z[2,1], a monomial of f~; Z[1,1]^9 overflows a 3-bit field
        # into Z[2,1]'s, making it look like Z[1,1] Z[2,1]
        prob = TensorProblem.build([sig(1, 1)], sig(1, 1))
        stray = v(zvar(1, 2)) * v(zvar(1, 3))
        table = assert_table_matches_direct(
            prob, [[stray, v(zvar(1, 2)) * v(zvar(2, 1))]]
        )
        assert table[0][0] == 0 and table[0][1] != 0
        prob = TensorProblem.build([sig(1), sig(1)], sig(2))
        table = assert_table_matches_direct(
            prob, [[v(zvar(1, 1), 9), v(zvar(1, 1))], [MultiPoly.const(1), v(zvar(2, 1))]]
        )
        assert table[0][:3] == [0, 0, 0] and table[0][3] != 0


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
