import random
from fractions import Fraction

import pytest

from conftest import random_signature, random_unimodular
from tameprod.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotDominant,
    SelfCheckError,
    WeightMismatch,
)
from tameprod.invariants import (
    ExponentMatrix,
    TensorProblem,
    _polarize,
    diagonal_right_action,
    diophantine_solutions,
    generator,
    invariant_basis,
    monomial,
    unipotent_constraints,
    unipotent_generators,
)
from tameprod.linalg import (
    contragredient_matrix,
    identity,
    invert,
    matmul,
    nullspace_primitive,
    rref,
)
from tameprod.lr_oracle import schur_product_decompose
from tameprod.polynomials import MultiPoly, act_cols, act_rows, wvar, zvar
from tameprod.signatures import normalize, sig
from tameprod.weyl_calculus import multiplicity, stable_decompose


def v(x, e=1):
    return MultiPoly.variable(x, e)


def worked_problem():
    return TensorProblem.build([sig(1), sig(2), sig(2), sig(3)], sig(7, 1))


# exponent matrices of the worked example, in the paper's numbering
P1 = ExponentMatrix(((1, 0), (1, 1), (2, 0), (3, 0)))
P2 = ExponentMatrix(((1, 0), (2, 0), (1, 1), (3, 0)))
P3 = ExponentMatrix(((1, 0), (2, 0), (2, 0), (2, 1)))
P4 = ExponentMatrix(((0, 1), (2, 0), (2, 0), (3, 0)))


class TestGenerator:
    def test_rank_one(self):
        assert generator(1, 1, 1) == v(zvar(1, 1)) * v(wvar(1, 1))

    def test_rank_two(self):
        expected = v(zvar(2, 1)) * v(wvar(1, 1)) + v(zvar(2, 2)) * v(wvar(1, 2))
        assert generator(2, 1, 2) == expected

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            generator(0, 1, 2)
        prob = worked_problem()
        with pytest.raises(IndexOutOfRange):
            prob.generator(5, 1, 2)
        with pytest.raises(IndexOutOfRange):
            prob.generator(1, 3, 2)

    def test_truncation_is_prefix(self):
        from tameprod.fock_pairing import truncate_columns

        assert truncate_columns(generator(1, 2, 5), 3) == generator(1, 2, 3)

    def test_invariant_under_right_action(self):
        rng = random.Random(4)
        for k in (2, 3):
            p = generator(1, 1, k) * generator(2, 1, k)
            for _ in range(5):
                g = random_unimodular(k, rng)
                assert diagonal_right_action(p, g) == p


class TestTensorProblem:
    def test_worked_layout(self):
        prob = worked_problem()
        assert prob.p == 4
        assert prob.q == 2
        assert prob.n == 6
        assert prob.mu == (1, 2, 2, 3, 7, 1)
        assert prob.row_alloc == (1, 1, 1, 1)
        assert prob.row_offsets == (0, 1, 2, 3)

    def test_multirow_layout(self):
        prob = TensorProblem.build([sig(2, 1), sig(1)], sig(2, 2))
        assert prob.row_alloc == (2, 1)
        assert prob.row_offsets == (0, 2)

    def test_negative_rejected(self):
        with pytest.raises(NotDominant):
            TensorProblem.build([sig(-1)], sig(1))
        with pytest.raises(NotDominant):
            TensorProblem.build([sig(1)], sig(-1))


class TestDiophantine:
    def test_worked_example(self):
        sols = diophantine_solutions(worked_problem())
        assert len(sols) == 4
        assert set(sols) == {P1, P2, P3, P4}

    def test_sorted_ascending(self):
        sols = diophantine_solutions(worked_problem())
        flat = [sum(s.rows, ()) for s in sols]
        assert flat == sorted(flat)

    def test_degree_mismatch_empty(self):
        prob = TensorProblem.build([sig(1)], sig(2))
        assert diophantine_solutions(prob) == []

    def test_single_factor_identity(self):
        prob = TensorProblem.build([sig(1)], sig(1))
        assert diophantine_solutions(prob) == [ExponentMatrix(((1,),))]

    def test_sums(self):
        for s in diophantine_solutions(worked_problem()):
            assert s.row_sums() == (1, 2, 2, 3)
            assert s.col_sums() == (7, 1)


class TestUnipotentConstraints:
    def test_worked_constraint(self):
        prob = worked_problem()
        sols = diophantine_solutions(prob)
        rows = unipotent_constraints(prob, sols)
        # the single shear identifies all four images: C1+C2+C3+C4 = 0
        assert rows == [[1, 1, 1, 1]]

    def test_generators_worked(self):
        gens = list(unipotent_generators(worked_problem()))
        assert gens == [("W", 2, 1)]

    def test_generators_multirow(self):
        prob = TensorProblem.build([sig(2, 1), sig(1)], sig(2, 2))
        gens = list(unipotent_generators(prob))
        assert ("Z", 2, 1) in gens
        assert ("W", 2, 1) in gens
        assert len(gens) == 2
        # one simple-root shear per adjacent pair of rows in each block
        prob = TensorProblem.build([sig(3, 2, 1), sig(1)], sig(4, 2, 1))
        assert list(unipotent_generators(prob)) == [
            ("Z", 2, 1), ("Z", 3, 2), ("W", 2, 1), ("W", 3, 2)
        ]

    def test_weight_mismatch(self):
        prob = worked_problem()
        bad = ExponentMatrix(((1, 0), (2, 0), (2, 0), (3, 0)))
        with pytest.raises(WeightMismatch):
            unipotent_constraints(prob, [P1, bad])
        # one weight, but not the problem's: wrong shape, wrong column sums
        # (8,0,0), and rows of unequal length
        for alone in (
            ExponentMatrix(((1,),)),
            ExponentMatrix(((1, 0, 0), (2, 0, 0), (2, 0, 0), (3, 0, 0))),
            ExponentMatrix(((1, 0), (1, 1), (2, 0), (3, 0, 0))),
        ):
            with pytest.raises(WeightMismatch):
                unipotent_constraints(prob, [alone])

    def test_matches_expanded_polarization(self):
        # first-order shear action computed on expanded polynomials must
        # agree with the exponent-matrix rule
        prob = worked_problem()
        k = 2
        for gen in [("W", 2, 1), ("Z", 3, 2), ("Z", 2, 4)]:
            kind, a, b = gen
            for ell in (P1, P2, P3, P4):
                poly = monomial(prob, ell, k)
                if kind == "Z":
                    deriv = MultiPoly.zero()
                    for c in range(1, k + 1):
                        deriv = deriv + v(zvar(b, c)) * poly.differentiate(zvar(a, c))
                else:
                    deriv = MultiPoly.zero()
                    for c in range(1, k + 1):
                        deriv = deriv + v(wvar(b, c)) * poly.differentiate(wvar(a, c))
                expected = MultiPoly.zero()
                for image, coeff in _polarize(ell.rows, gen):
                    expected = expected + coeff * monomial(prob, ExponentMatrix(image), k)
                assert deriv == expected


def all_pairs_constraints(problem, solutions):
    """The constraint rows from every negative root, not only the simple
    ones: every a > b in each factor block and every w1 > w2 in the target
    block, each image keyed and sorted as unipotent_constraints does."""
    gens = []
    for off, l in zip(problem.row_offsets, problem.row_alloc):
        gens += [("Z", off + a, off + b) for b in range(1, l + 1) for a in range(b + 1, l + 1)]
    q = problem.q
    gens += [("W", w1, w2) for w2 in range(1, q + 1) for w1 in range(w2 + 1, q + 1)]
    rows = []
    for gen in gens:
        images = {}
        for j, sol in enumerate(solutions):
            for image, coeff in _polarize(sol.rows, gen):
                images.setdefault(image, [0] * len(solutions))[j] += coeff
        rows += [images[m] for m in sorted(images)]
    return rows


class TestSimpleRootsSuffice:
    def test_same_nullspace_as_all_pairs(self):
        # the adjacent shears generate the others by commutators, so the
        # all-pairs rows add equations but cut out the same nullspace
        rng = random.Random(20261019)
        seen = []
        while len(seen) < 16:
            factors = [
                random_signature(rng, max_entry=3, max_len=3),
                random_signature(rng, max_entry=2),
            ]
            if rng.random() < 0.5:
                factors.append(random_signature(rng, max_entry=2, max_len=1))
            spectrum = stable_decompose(factors)
            targets = sorted(spectrum, key=str)
            target = rng.choices(targets, weights=[spectrum[t] for t in targets])[0]
            prob = TensorProblem.build(factors, target)
            sols = diophantine_solutions(prob)
            if len(sols) > 300:
                continue
            simple = unipotent_constraints(prob, sols)
            full = all_pairs_constraints(prob, sols)
            basis = nullspace_primitive(simple, len(sols))
            assert basis == nullspace_primitive(full, len(sols))
            assert len(basis) == spectrum[target]
            longest = max(f.length for f in factors)
            seen.append((longest, target.length, len(simple) < len(full), len(basis)))
        assert any(l == 3 and q >= 3 and fewer for l, q, fewer, _ in seen)
        assert max(d for *_, d in seen) >= 2


class TestInvariantBasis:
    def test_worked_dimension(self):
        basis = invariant_basis(worked_problem())
        assert basis.dimension == 3
        assert basis.dimension == multiplicity([sig(1), sig(2), sig(2), sig(3)], sig(7, 1))

    def test_worked_span(self):
        basis = invariant_basis(worked_problem())
        order = basis.monomials
        idx = {m: j for j, m in enumerate(order)}

        def vec(plus, minus):
            row = [0, 0, 0, 0]
            row[idx[plus]] = 1
            row[idx[minus]] = -1
            return row

        paper = [vec(P1, P2), vec(P2, P3), vec(P3, P4)]
        ours = [list(w) for w in basis.vectors]
        assert rref(paper)[0] == rref(ours)[0]

    def test_primitive_sign_convention(self):
        basis = invariant_basis(worked_problem())
        from math import gcd

        for w in basis.vectors:
            assert gcd(*w) == 1
            assert next(x for x in w if x) > 0

    def test_multirow_dimension(self):
        prob = TensorProblem.build([sig(2, 1), sig(1)], sig(2, 2))
        basis = invariant_basis(prob)
        assert basis.dimension == 1

    def test_degree_mismatch_dimension_zero(self):
        prob = TensorProblem.build([sig(1), sig(1)], sig(3))
        assert invariant_basis(prob).dimension == 0

    def test_corpus_dimensions_match_multiplicity(self):
        corpus = [
            ([sig(1)], sig(1)),
            ([sig(1), sig(1)], sig(2)),
            ([sig(1), sig(1)], sig(1, 1)),
            ([sig(2), sig(1)], sig(2, 1)),
            ([sig(2, 1), sig(1)], sig(3, 1)),
            ([sig(2, 1), sig(2)], sig(2, 2, 1)),
            ([sig(1), sig(1), sig(1)], sig(2, 1)),
        ]
        for factors, target in corpus:
            basis = invariant_basis(TensorProblem.build(factors, target))
            assert basis.dimension == multiplicity(factors, target)

    def test_self_check_error(self, monkeypatch):
        monkeypatch.setattr("tameprod.weyl_calculus.multiplicity", lambda *a, **k: 99)
        with pytest.raises(SelfCheckError):
            invariant_basis(worked_problem())

    def test_large_system_matches_oracle(self):
        # 4488 simple-root constraint rows (6539 from every negative root)
        # on 1363 exponent matrices, nullity 8
        factors, target = [sig(3, 2, 1), sig(2, 1), sig(1)], sig(4, 3, 2, 1)
        prob = TensorProblem.build(factors, target)
        basis = invariant_basis(prob)
        # a tableau multiplicity is stable once k reaches the target's length
        assert basis.dimension == 8 == schur_product_decompose(factors, target.length)[target]
        rows = unipotent_constraints(prob, basis.monomials)
        assert len(basis.monomials) == 1363 and len(rows) == 4488
        for row in rows:
            entries = [(j, x) for j, x in enumerate(row) if x]
            for vec in basis.vectors:
                assert sum(x * vec[j] for j, x in entries) == 0


class TestOracleDimension:
    def test_random_problems(self, monkeypatch):
        # the tableau oracle stands in for the multipliers in the self-check,
        # so the dimension is checked through oracle -> invariants alone;
        # k = the sum of the factor lengths holds every constituent
        oracle = {}
        monkeypatch.setattr(
            "tameprod.weyl_calculus.multiplicity", lambda factors, target: oracle[target]
        )
        rng = random.Random(7117)
        dimensions = []
        while len(dimensions) < 40:
            factors = [random_signature(rng, max_entry=3) for _ in range(rng.randint(2, 3))]
            k = sum(f.length for f in factors)
            spectrum = schur_product_decompose(factors, k)
            if rng.random() < 0.7:
                target = rng.choice(sorted(spectrum.items(), key=str))[0]
            else:
                # a random partition of the same degree, often of multiplicity 0
                parts, d = [], sum(f.degree for f in factors)
                while d:
                    parts.append(rng.randint(1, d))
                    d -= parts[-1]
                target = normalize(sorted(parts, reverse=True))
            prob = TensorProblem.build(factors, target)
            # the dense constraint rows of a large problem cost too much memory
            if len(diophantine_solutions(prob)) > 300:
                continue
            oracle[target] = spectrum[target]
            dimension = invariant_basis(prob).dimension
            assert dimension == spectrum[target]
            dimensions.append(dimension)
        assert min(dimensions) == 0 and max(dimensions) >= 4


class TestExpandedInvariants:
    def test_monomial_expansion_at_k1(self):
        prob = TensorProblem.build([sig(1), sig(1)], sig(2))
        ell = ExponentMatrix(((1,), (1,)))
        expected = v(zvar(1, 1)) * v(zvar(2, 1)) * v(wvar(1, 1), 2)
        assert monomial(prob, ell, 1) == expected

    def test_elements_match_single_elements(self):
        basis = invariant_basis(TensorProblem.build([sig(2, 1), sig(2, 1)], sig(3, 2, 1)))
        assert basis.dimension == 2
        assert basis.elements(3) == [basis.element(i, 3) for i in range(basis.dimension)]
        assert basis.elements() == [basis.element(i) for i in range(basis.dimension)]

    def test_right_action_invariance(self):
        rng = random.Random(12)
        basis = invariant_basis(worked_problem())
        elements = basis.elements(2)
        for _ in range(5):
            g = random_unimodular(2, rng)
            for e in elements:
                assert diagonal_right_action(e, g) == e

    def test_borel_covariance(self):
        # block action: lower-triangular on each factor block's Z rows,
        # reversed-upper on the W block; scales by the stacked weight
        rng = random.Random(13)
        prob = worked_problem()
        basis = invariant_basis(prob)
        elements = basis.elements(2)
        p, q, n = prob.p, prob.q, prob.n
        for _ in range(5):
            beta = [[0] * n for _ in range(n)]
            for i in range(p):  # factor blocks are 1x1 here
                beta[i][i] = rng.choice([1, 2, 3, -1])
            # lower triangular on W label rows: entry (r1, r2), r1 >= r2;
            # W label row r sits at stacked index n + 1 - r
            b = [[rng.randint(-2, 2) if j < i else 0 for j in range(q)] for i in range(q)]
            for i in range(q):
                b[i][i] = rng.choice([1, 2, 3])
            for r1 in range(1, q + 1):
                for r2 in range(1, q + 1):
                    beta[n - r1][n - r2] = b[r1 - 1][r2 - 1]
            char = 1
            for a in range(1, p + 1):
                char *= beta[a - 1][a - 1] ** prob.mu[a - 1]
            for r in range(1, q + 1):
                char *= beta[n - r][n - r] ** prob.target.entries[r - 1]
            for e in elements:
                assert act_rows(beta, e, p, q) == char * e

    def test_truncation_consistency(self):
        # spans at k and k+1 agree after truncating the extra column
        from tameprod.fock_pairing import truncate_columns
        from tameprod.linalg import solve_dict_system

        basis = invariant_basis(worked_problem())
        lo = basis.elements(2)
        hi = [truncate_columns(e, 2) for e in basis.elements(3)]
        for e in hi:
            assert solve_dict_system([x.terms for x in lo], e.terms) is not None
        for e in lo:
            assert solve_dict_system([x.terms for x in hi], e.terms) is not None


def reference_action(f, g):
    """f(Z.g, W.g^-T) by two full substitutions, Z then W."""
    return act_cols(act_cols(f, g, "Z"), contragredient_matrix(g), "W")


def mixed_poly(rng, k, max_degree=4, nterms=4):
    """Random polynomial in Z and W rows 1..2, columns 1..k, degree <= 4,
    with rational coefficients; rarely invariant."""
    pool = [zvar(r, c) for r in (1, 2) for c in range(1, k + 1)]
    pool += [wvar(r, c) for r in (1, 2) for c in range(1, k + 1)]
    poly = MultiPoly.zero()
    for _ in range(nterms):
        term = MultiPoly.const(rng.choice([1, -2, 3, Fraction(1, 2), Fraction(-5, 3)]))
        for x in rng.choices(pool, k=rng.randint(0, max_degree)):
            term = term * v(x)
        poly = poly + term
    return poly


def random_invertible(k, rng):
    """Random invertible g of one of four kinds, with rational entries."""
    kind = rng.choice(["rational", "permutation", "det -1", "diagonal"])
    if kind == "permutation":
        perm = rng.sample(range(k), k)
        return [[int(perm[i] == j) for j in range(k)] for i in range(k)]
    if kind == "det -1":
        flip = identity(k)
        flip[0][0] = -1
        return matmul(random_unimodular(k, rng), flip) if k > 1 else flip
    if kind == "diagonal":
        g = identity(k)
        for i in range(k):
            g[i][i] = rng.choice([2, -3, Fraction(1, 2), Fraction(-4, 3)])
        return g
    entries = [0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
    while True:
        g = [[rng.choice(entries) for _ in range(k)] for _ in range(k)]
        try:
            invert(g)
            return g
        except DimensionMismatch:
            pass


class TestDiagonalRightAction:
    def test_matches_two_pass_substitution(self):
        rng = random.Random(20261018)
        changed = 0
        for _ in range(120):
            k = rng.randint(1, 4)
            f = mixed_poly(rng, k)
            g = random_invertible(k, rng)
            acted = diagonal_right_action(f, g)
            assert acted == reference_action(f, g)
            changed += acted != f
        # most inputs are not invariant, so the comparison has teeth
        assert changed > 80

    def test_kinds_of_g(self):
        f = v(zvar(1, 1), 2) * v(wvar(2, 2)) + 3 * v(zvar(2, 2)) * v(wvar(1, 1))
        swap = [[0, 1], [1, 0]]
        assert diagonal_right_action(f, swap) == (
            v(zvar(1, 2), 2) * v(wvar(2, 1)) + 3 * v(zvar(2, 1)) * v(wvar(1, 2))
        )
        d = [[2, 0], [0, 3]]
        assert diagonal_right_action(f, d) == (
            Fraction(4, 3) * v(zvar(1, 1), 2) * v(wvar(2, 2))
            + Fraction(9, 2) * v(zvar(2, 2)) * v(wvar(1, 1))
        )
        for g in (swap, d, [[1, 1], [1, 0]], [[Fraction(1, 2), 1], [3, -1]]):
            assert diagonal_right_action(f, g) == reference_action(f, g)

    def test_composition(self):
        rng = random.Random(7)
        for _ in range(30):
            k = rng.randint(1, 3)
            f = mixed_poly(rng, k)
            g, h = random_invertible(k, rng), random_invertible(k, rng)
            lhs = diagonal_right_action(diagonal_right_action(f, h), g)
            assert lhs == diagonal_right_action(f, matmul(g, h))

    def test_identity_and_constants(self):
        f = v(zvar(1, 2)) * v(wvar(1, 1))
        assert diagonal_right_action(f, identity(2)) == f
        assert diagonal_right_action(MultiPoly.const(5), []) == 5

    def test_singular(self):
        f = v(zvar(1, 1)) * v(wvar(1, 2))
        for g in ([[0]], [[1, 2], [2, 4]], [[0, 0], [0, 1]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]]):
            k = len(g)
            with pytest.raises(DimensionMismatch):
                diagonal_right_action(v(zvar(1, 1)), g)
            with pytest.raises(DimensionMismatch):
                diagonal_right_action(f if k > 1 else v(wvar(1, 1)), g)

    def test_not_square(self):
        with pytest.raises(DimensionMismatch):
            diagonal_right_action(v(zvar(1, 1)), [[1, 0]])
        with pytest.raises(DimensionMismatch):
            diagonal_right_action(v(zvar(1, 1)), [[1, 0], [0]])

    def test_column_above_rank(self):
        for x in (zvar(1, 3), wvar(2, 3)):
            with pytest.raises(DimensionMismatch):
                diagonal_right_action(v(x), identity(2))
            with pytest.raises(DimensionMismatch):
                reference_action(v(x), identity(2))
