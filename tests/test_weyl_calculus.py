import random
import time
from functools import lru_cache
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_signature, weyl_dimension
from tameprod import weyl_calculus
from tameprod.errors import EmptyProduct, NotDominant, RankTooSmall, SelfCheckError
from tameprod.linalg import perm_sign
from tameprod.lr_oracle import schur_product_decompose
from tameprod.signatures import SignedSpectrum, sig
from tameprod.weyl_calculus import (
    compound_multiplier,
    multiplicity,
    simple_multiplier,
    stabilization_index,
    stable_decompose,
    tensor_decompose,
)


class TestSimpleMultiplier:
    def test_order_zero_is_identity(self):
        assert simple_multiplier(0, sig(3, 1), 4) == SignedSpectrum({sig(3, 1): 1})

    def test_negative_order_vanishes(self):
        assert simple_multiplier(-1, sig(3, 1), 4) == SignedSpectrum()

    def test_one_box_on_row(self):
        assert simple_multiplier(1, sig(1), 2) == SignedSpectrum({sig(2): 1, sig(1, 1): 1})

    def test_row_caps(self):
        # two boxes onto (1) at k=3: (0,1,1) blocked by the cap nu_3 <= 0
        assert simple_multiplier(2, sig(1), 3) == SignedSpectrum({sig(3): 1, sig(2, 1): 1})

    def test_first_row_uncapped(self):
        assert simple_multiplier(5, sig(), 1) == SignedSpectrum({sig(5): 1})

    def test_rank_too_small(self):
        with pytest.raises(RankTooSmall):
            simple_multiplier(1, sig(2, 1), 1)

    def test_large_rank_is_rank_free(self):
        # a strip starts at most one new row, so no work or recursion depth
        # grows with k
        assert simple_multiplier(1, sig(1), 5000) == simple_multiplier(1, sig(1), 2)

    def test_outputs_are_interleaving_extensions(self):
        # the row caps say exactly: beta interleaves every output,
        # h_i >= beta_i >= h_{i+1}
        beta = sig(3, 1)
        spec = simple_multiplier(3, beta, 3)
        assert spec
        for h in spec:
            b, e = beta.pad(3), h.pad(4)
            assert all(e[i] >= b[i] >= e[i + 1] for i in range(3))
            assert h.degree == beta.degree + 3


class TestCompoundMultiplier:
    def test_single_row_reduces_to_simple(self):
        assert compound_multiplier(sig(2), sig(1), 3) == simple_multiplier(2, sig(1), 3)

    def test_two_row_example(self):
        expected = SignedSpectrum({sig(2, 1): 1, sig(1, 1, 1): 1})
        assert compound_multiplier(sig(1, 1), sig(1), 3) == expected

    def test_truncation_drops_long_rows(self):
        assert compound_multiplier(sig(1, 1), sig(1), 2) == SignedSpectrum({sig(2, 1): 1})

    def test_empty_alpha_is_identity(self):
        assert compound_multiplier(sig(), sig(3, 2), 3) == SignedSpectrum({sig(3, 2): 1})

    def test_symmetry(self):
        a, b = sig(2, 1), sig(3)
        assert compound_multiplier(a, b, 3) == compound_multiplier(b, a, 3)

    def test_negative_multiplicity_is_self_check_error(self, monkeypatch):
        # compound_multiplier folds the outputs of _apply_simple; dropping
        # order 1 leaves only the negative term of the 2x2 determinant for
        # (1,1) x (1)
        real = weyl_calculus._apply_simple
        monkeypatch.setattr(
            weyl_calculus,
            "_apply_simple",
            lambda order, beta, k: () if order == 1 else real(order, beta, k),
        )
        compound_multiplier.cache_clear()
        try:
            with pytest.raises(SelfCheckError):
                compound_multiplier(sig(1, 1), sig(1), 3)
            # the fold reads the same check off each step's total
            with pytest.raises(SelfCheckError):
                tensor_decompose([sig(2, 1), sig(1, 1)], 3)
        finally:
            compound_multiplier.cache_clear()

    def test_one_cached_strip_enumeration(self):
        # every determinant reads its simple multipliers from the one
        # _apply_simple cache: a second fold of the same product enumerates
        # no strip again, and simple_multiplier keeps no cache of its own
        factors = [sig(2, 1), sig(2, 1), sig(2, 1)]
        weyl_calculus._apply_simple.cache_clear()
        tensor_decompose(factors, 4)
        before = weyl_calculus._apply_simple.cache_info()
        tensor_decompose(factors, 4)
        after = weyl_calculus._apply_simple.cache_info()
        assert after.misses == before.misses
        assert after.hits > before.hits
        assert not hasattr(simple_multiplier, "cache_info")

    def test_strip_cache_is_rank_free(self):
        # above the longest signature every rank asks for the same strips
        factors = [sig(2, 1), sig(2), sig(1, 1)]
        bound = sum(f.length for f in factors)
        compound_multiplier.cache_clear()
        weyl_calculus._apply_simple.cache_clear()
        tensor_decompose(factors, bound + 1)
        misses = weyl_calculus._apply_simple.cache_info().misses
        tensor_decompose(factors, bound + 5)
        assert weyl_calculus._apply_simple.cache_info().misses == misses


@lru_cache(maxsize=None)
def strips(order, beta, k):
    return tuple(simple_multiplier(order, beta, k))


def permutation_sum(alpha, beta, k):
    """The former compound_multiplier: the Jacobi-Trudi determinant summed
    over all l! permutations, one chain of simple multipliers each."""
    a = alpha.entries
    total = {}
    for sigma in permutations(range(len(a))):
        spec = {beta: 1}
        for i, c in enumerate(sigma):
            nxt = {}
            for s, m in spec.items():
                for out in strips(a[i] - i + c, s, k):
                    nxt[out] = nxt.get(out, 0) + m
            spec = nxt
        for s, m in spec.items():
            total[s] = total.get(s, 0) + perm_sign(sigma) * m
    return SignedSpectrum(total)


class TestSubsetExpansion:
    def test_equals_permutation_sum(self):
        # alpha and beta of up to four rows, entries up to 4, k up to 7
        rng = random.Random(7120)
        for _ in range(300):
            alpha = random_signature(rng, max_len=4, allow_empty=True)
            beta = random_signature(rng, max_len=4, allow_empty=True)
            k = rng.randint(max(alpha.length, beta.length, 1), 7)
            assert compound_multiplier(alpha, beta, k) == permutation_sum(alpha, beta, k), (
                alpha,
                beta,
                k,
            )


def per_term_fold(factors, k):
    """The former tensor_decompose: longest factor first, one
    compound_multiplier per running term, the spectrum rebuilt per step."""
    first, *rest = sorted(factors, key=lambda f: -f.length)
    running = SignedSpectrum({first: 1})
    for alpha in rest:
        acc = {}
        for s, m in running.items():
            for s2, m2 in compound_multiplier(alpha, s, k).items():
                acc[s2] = acc.get(s2, 0) + m * m2
        running = SignedSpectrum(acc)
    return running


class TestTensorDecompose:
    def test_rank_two_spectrum(self):
        factors = [sig(1), sig(2), sig(2), sig(3)]
        expected = SignedSpectrum(
            {sig(8): 1, sig(7, 1): 3, sig(6, 2): 5, sig(5, 3): 5, sig(4, 4): 2}
        )
        assert tensor_decompose(factors, 2) == expected

    def test_rank_four_spectrum(self):
        factors = [sig(1), sig(2), sig(2), sig(3)]
        expected = SignedSpectrum(
            {
                sig(8): 1,
                sig(7, 1): 3,
                sig(6, 2): 5,
                sig(6, 1, 1): 3,
                sig(5, 3): 5,
                sig(5, 2, 1): 6,
                sig(5, 1, 1, 1): 1,
                sig(4, 4): 2,
                sig(4, 3, 1): 5,
                sig(4, 2, 2): 3,
                sig(4, 2, 1, 1): 2,
                sig(3, 3, 2): 2,
                sig(3, 3, 1, 1): 1,
                sig(3, 2, 2, 1): 1,
            }
        )
        assert tensor_decompose(factors, 4) == expected

    def test_single_factor(self):
        assert tensor_decompose([sig(3, 1)], 2) == SignedSpectrum({sig(3, 1): 1})

    def test_empty_product_rejected(self):
        with pytest.raises(EmptyProduct):
            tensor_decompose([], 2)

    def test_rank_too_small(self):
        with pytest.raises(RankTooSmall):
            tensor_decompose([sig(2, 1)], 1)

    def test_errors_do_not_depend_on_fold_order(self):
        # every factor's rank is checked before the fold; a negative factor
        # is NotDominant wherever the longest-first sort puts it
        for factors in permutations([sig(1), sig(1, 1, 1), sig(-1)]):
            with pytest.raises(RankTooSmall):
                tensor_decompose(factors, 2)
        for factors in permutations([sig(2, 1), sig(-1)]):
            with pytest.raises(NotDominant):
                tensor_decompose(factors, 3)
        # a lone negative factor is checked too, though nothing multiplies it
        with pytest.raises(NotDominant):
            tensor_decompose([sig(-1)], 1)
        with pytest.raises(NotDominant):
            stable_decompose([sig(-1)])
        with pytest.raises(NotDominant):
            multiplicity([sig(-1)], sig(-1))

    def test_matches_per_term_fold(self):
        # the determinant is linear in the spectrum it acts on, so applying it
        # to the whole running spectrum equals the former route of one
        # compound_multiplier per running term; checked below, at and above
        # the bound k = sum of the factor lengths
        for factors in seeded_products(1818, 200):
            lo = max(f.length for f in factors)
            bound = sum(f.length for f in factors)
            for k in range(max(lo, 1), bound + 2):
                assert tensor_decompose(factors, k) == per_term_fold(factors, k), (factors, k)

    def test_fold_starts_from_costliest_determinant(self):
        # a determinant with entries near N runs strips of order near N, whose
        # terms cancel only at its last row, and one of l rows keeps up to 2^l
        # column subsets, so the fold must take the cheap factor's determinant
        # whichever order the factors come in: large entries and long
        # factors each start the fold
        cases = [
            (sig(6, 6), sig(*[1] * 10)),
            (sig(4, 3, 2, 1), sig(*[1] * 8)),
            (sig(2, 2), sig(3000, 3000)),
            (sig(2, 2, 2), sig(3000, 3000)),
            (sig(1), sig(3000000)),
        ]
        for small, large in cases:
            k = small.length + large.length
            spectra = []
            for factors in ([small, large], [large, small]):
                start = time.perf_counter()
                spectra.append(tensor_decompose(factors, k))
                assert time.perf_counter() - start < 1.0, factors
            assert spectra[0] == spectra[1]
        assert spectra[0] == SignedSpectrum({sig(3000001): 1, sig(3000000, 1): 1})

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_degree_conserved_and_nonnegative(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        factors = [random_signature(rng) for _ in range(rng.randint(1, 3))]
        k = rng.randint(2, 4)
        spec = tensor_decompose(factors, k)
        assert all(m > 0 for _, m in spec.items())
        total = sum(f.degree for f in factors)
        assert all(s.degree == total for s in spec)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_commutative(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        factors = [random_signature(rng) for _ in range(rng.randint(2, 3))]
        k = rng.randint(2, 4)
        shuffled = factors[:]
        rng.shuffle(shuffled)
        assert tensor_decompose(factors, k) == tensor_decompose(shuffled, k)


class TestStabilization:
    def test_worked_example_index(self):
        assert stabilization_index([sig(1), sig(2), sig(2), sig(3)]) == 4

    def test_spectra_frozen_above_index(self):
        factors = [sig(1), sig(2), sig(2), sig(3)]
        s4 = tensor_decompose(factors, 4)
        for k in (5, 6, 7):
            assert tensor_decompose(factors, k) == s4

    def test_monotone_embedding(self):
        factors = [sig(2, 1), sig(2)]
        lo = tensor_decompose(factors, 2)
        hi = tensor_decompose(factors, 3)
        assert all(hi[s] >= lo[s] for s in lo)

    def test_stable_decompose(self):
        expected = SignedSpectrum({sig(3, 1): 1, sig(2, 2): 1, sig(2, 1, 1): 1})
        assert stable_decompose([sig(2, 1), sig(1)]) == expected

    def test_index_bounded_by_sum_of_lengths(self):
        rng = random.Random(11)
        for _ in range(20):
            factors = [random_signature(rng, max_entry=3) for _ in range(rng.randint(1, 3))]
            assert stabilization_index(factors) <= sum(f.length for f in factors)

    def test_single_factor_index(self):
        assert stabilization_index([sig(3, 1)]) == 2


def search_index(factors):
    """The stabilization index by search: fold from the longest factor
    length upwards until two consecutive spectra agree."""
    k = max(f.length for f in factors)
    prev = tensor_decompose(factors, k)
    while True:
        nxt = tensor_decompose(factors, k + 1)
        if nxt == prev:
            return k
        prev = nxt
        k += 1


def seeded_products(seed, count):
    """Up to 4 factors of at most 3 rows, some empty, lengths summing to <= 6."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        factors = [
            random_signature(rng, max_entry=3, max_len=3, allow_empty=True)
            for _ in range(rng.randint(1, 4))
        ]
        if sum(f.length for f in factors) <= 6:
            out.append(factors)
    return out


class TestStabilizationFromOneFold:
    PRODUCTS = seeded_products(8, 60)

    def test_matches_search(self):
        for factors in self.PRODUCTS:
            assert stabilization_index(factors) == search_index(factors), factors

    def test_truncation_law(self):
        # below the bound, the spectrum at rank k is the stable spectrum cut
        # to signatures of length <= k; at bound + 1 it is the stable one
        for factors in self.PRODUCTS:
            stable = stable_decompose(factors)
            bound = sum(f.length for f in factors)
            for k in range(max(f.length for f in factors), bound + 2):
                cut = SignedSpectrum({s: m for s, m in stable.items() if s.length <= k})
                assert tensor_decompose(factors, k) == cut, (factors, k)

    def test_missing_row_union_is_self_check_error(self, monkeypatch):
        real = weyl_calculus.tensor_decompose

        def without_union(factors, k):
            union = sig(*sorted((x for f in factors for x in f.entries), reverse=True))
            return SignedSpectrum({s: m for s, m in real(factors, k).items() if s != union})

        monkeypatch.setattr(weyl_calculus, "tensor_decompose", without_union)
        with pytest.raises(SelfCheckError, match="row union"):
            stabilization_index([sig(2, 1), sig(1)])
        with pytest.raises(SelfCheckError):
            multiplicity([sig(1), sig(1)], sig(2))


class TestMultiplicity:
    def test_worked_example(self):
        factors = [sig(1), sig(2), sig(2), sig(3)]
        assert multiplicity(factors, sig(7, 1)) == 3
        assert multiplicity(factors, sig(4, 3, 1)) == 5
        assert multiplicity(factors, sig(9)) == 0

    def test_absent_target(self):
        assert multiplicity([sig(1), sig(1)], sig(3)) == 0


class TestOracleAgreement:
    def test_wider_ranges(self):
        # up to 3 rows, entries up to 4, up to 4 factors, k up to 6; a draw
        # whose product of factor dimensions at k exceeds the cap is skipped
        cap = 1_000_000
        rng = random.Random(5150)
        cases = 0
        while cases < 300:
            factors = [random_signature(rng, max_len=3) for _ in range(rng.randint(1, 4))]
            k = rng.randint(max(f.length for f in factors), 6)
            if prod(weyl_dimension(f, k) for f in factors) > cap:
                continue
            assert tensor_decompose(factors, k) == schur_product_decompose(factors, k)
            cases += 1

    def test_four_rows(self):
        # up to 4 rows, entries up to 5, up to 4 factors, k up to 7, under a
        # cap on the product of factor dimensions at k (Weyl's formula, so
        # that skipped draws enumerate no tableaux)
        cap = 100_000
        rng = random.Random(5151)
        cases = 0
        while cases < 80:
            factors = [random_signature(rng, max_entry=5, max_len=4) for _ in range(rng.randint(1, 4))]
            k = rng.randint(max(f.length for f in factors), 7)
            if prod(weyl_dimension(f, k) for f in factors) > cap:
                continue
            assert tensor_decompose(factors, k) == schur_product_decompose(factors, k)
            cases += 1

    def test_five_rows(self):
        # up to 5 rows, entries up to 5, 2 to 4 factors, k up to 7, under a
        # cap on the product of factor dimensions at k
        cap = 1_000_000
        rng = random.Random(5152)
        cases = 0
        while cases < 200:
            factors = [random_signature(rng, max_entry=5, max_len=5) for _ in range(rng.randint(2, 4))]
            k = rng.randint(max(f.length for f in factors), 7)
            if prod(weyl_dimension(f, k) for f in factors) > cap:
                continue
            assert tensor_decompose(factors, k) == schur_product_decompose(factors, k)
            cases += 1

    def test_every_factor_order(self):
        # 3 to 4 factors: all orders give one spectrum in both routes
        cap = 20_000
        rng = random.Random(5153)
        cases = 0
        while cases < 12:
            factors = [random_signature(rng, max_entry=3, max_len=3) for _ in range(rng.randint(3, 4))]
            k = rng.randint(max(f.length for f in factors), 5)
            if prod(weyl_dimension(f, k) for f in factors) > cap:
                continue
            expected = tensor_decompose(factors, k)
            for order in set(permutations(factors)):
                assert tensor_decompose(order, k) == expected, (order, k)
                assert schur_product_decompose(order, k) == expected, (order, k)
            cases += 1

    @pytest.mark.parametrize("k", [5, 7])
    def test_four_row_product(self, k):
        # the product that took 14 s (k=5) and 38 s (k=7) before the fold
        # went longest first and expanded determinants by column subsets
        factors = [sig(4, 2), sig(5, 2, 1), sig(5, 5, 4, 3)]
        expected = schur_product_decompose(factors, k)
        for order in permutations(factors):
            assert tensor_decompose(order, k) == expected, order
