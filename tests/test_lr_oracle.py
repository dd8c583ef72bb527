import random
import time
from functools import reduce
from math import prod

import pytest

from conftest import random_signature, weyl_dimension
from tameprod import lr_oracle
from tameprod.errors import NotDominant, NotSymmetric, RankTooSmall, SelfCheckError
from tameprod.lr_oracle import poly_mul, schur_decompose, schur_poly, schur_product_decompose
from tameprod.signatures import SignedSpectrum, sig
from tameprod.weyl_calculus import tensor_decompose


class TestSchurPoly:
    def test_single_row(self):
        # s_(2) in 2 variables: x^2 + xy + y^2
        assert schur_poly(sig(2), 2) == {(2, 0): 1, (1, 1): 1, (0, 2): 1}

    def test_column(self):
        assert schur_poly(sig(1, 1), 2) == {(1, 1): 1}

    def test_hook_dimension(self):
        # dim of (2,1) for U(3) is 8
        assert sum(schur_poly(sig(2, 1), 3).values()) == 8

    def test_empty(self):
        assert schur_poly(sig(), 3) == {(0, 0, 0): 1}

    def test_rank_too_small(self):
        with pytest.raises(RankTooSmall):
            schur_poly(sig(1, 1, 1), 2)

    def test_symmetric(self):
        p = schur_poly(sig(3, 1), 3)
        for (a, b, c), coeff in p.items():
            assert p[(b, a, c)] == coeff
            assert p[(c, b, a)] == coeff


class TestSchurDecompose:
    def test_round_trip(self):
        p = schur_poly(sig(3, 1), 3)
        assert schur_decompose(p, 3) == SignedSpectrum({sig(3, 1): 1})

    def test_pieri(self):
        prod = poly_mul(schur_poly(sig(1), 2), schur_poly(sig(1), 2))
        assert schur_decompose(prod, 2) == SignedSpectrum({sig(2): 1, sig(1, 1): 1})

    def test_littlewood_richardson(self):
        spec = schur_product_decompose([sig(2, 1), sig(2, 1)], 4)
        # classical: (2,1) x (2,1) at rank >= 4
        expected = SignedSpectrum(
            {
                sig(4, 2): 1,
                sig(4, 1, 1): 1,
                sig(3, 3): 1,
                sig(3, 2, 1): 2,
                sig(3, 1, 1, 1): 1,
                sig(2, 2, 2): 1,
                sig(2, 2, 1, 1): 1,
            }
        )
        assert spec == expected

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            schur_decompose({(1, 0): 1}, 2)

    def test_zero(self):
        assert schur_decompose({}, 2) == SignedSpectrum()


def random_combination(rng, k):
    """A random integer combination of Schur polynomials at rank k, as a
    polynomial and as the spectrum it should decompose to."""
    p, spec = {}, {}
    for _ in range(rng.randint(0, 4)):
        lam = random_signature(rng, max_entry=4, max_len=min(k, 3), allow_empty=True)
        c = rng.randint(-5, 5)
        spec[lam] = spec.get(lam, 0) + c
        for e, cc in schur_poly(lam, k).items():
            p[e] = p.get(e, 0) + c * cc
    return p, SignedSpectrum(spec)


class TestStraightening:
    def test_combination_round_trip(self):
        rng = random.Random(6021)
        for _ in range(300):
            k = rng.randint(1, 5)
            p, spec = random_combination(rng, k)
            assert schur_decompose(p, k) == spec

    def test_cancelling_combination(self):
        # the combination minus itself: every coefficient is an explicit 0
        rng = random.Random(6022)
        for _ in range(50):
            k = rng.randint(1, 5)
            p, spec = random_combination(rng, k)
            for lam, c in spec.items():
                for e, cc in schur_poly(lam, k).items():
                    p[e] -= c * cc
            assert not any(p.values())
            assert schur_decompose(p, k) == SignedSpectrum()

    def test_perturbed_coefficient(self):
        rng = random.Random(6023)
        for _ in range(200):
            k = rng.randint(2, 5)
            p, _ = random_combination(rng, k)
            # an exponent with two different entries differs from one of its
            # swaps, whose coefficient stays as it was
            e = [rng.randint(0, 4) for _ in range(k)]
            e[0] = e[1] + rng.randint(1, 3)
            rng.shuffle(e)
            e = tuple(e)
            p[e] = p.get(e, 0) + rng.choice([-2, -1, 1, 2])
            with pytest.raises(NotSymmetric):
                schur_decompose(p, k)

    def test_negative_exponent(self):
        rng = random.Random(6024)
        for _ in range(200):
            k = rng.randint(1, 5)
            p, _ = random_combination(rng, k)
            e = [rng.randint(0, 3) for _ in range(k)]
            e[rng.randrange(k)] = -rng.randint(1, 3)
            p[tuple(e)] = p.get(tuple(e), 0) + rng.randint(1, 3)
            with pytest.raises(NotSymmetric):
                schur_decompose(p, k)

    def test_symmetric_negative_exponents(self):
        # symmetric under every swap, but not a polynomial
        with pytest.raises(NotSymmetric):
            schur_decompose({(-1,): 1}, 1)
        with pytest.raises(NotSymmetric):
            schur_decompose({(-1, -1): 1, (1, 1): 2}, 2)


def full_product_decompose(factors, k):
    """The oracle's former route: decompose the whole product polynomial."""
    polys = [schur_poly(f, k) for f in factors]
    return schur_decompose(reduce(poly_mul, polys, {(0,) * k: 1}), k)


class TestFold:
    def test_full_product_agreement(self):
        # a draw whose product of factor dimensions at k exceeds the cap is
        # skipped, to bound the full product polynomial
        cap = 100_000
        rng = random.Random(6031)
        cases = 0
        while cases < 100:
            factors = [
                random_signature(rng, max_entry=3, max_len=3, allow_empty=True)
                for _ in range(rng.randint(0, 4))
            ]
            k = rng.randint(max((f.length for f in factors), default=0), 5)
            if prod(weyl_dimension(f, k) for f in factors) > cap:
                continue
            assert schur_product_decompose(factors, k) == full_product_decompose(factors, k)
            cases += 1

    def test_empty_product(self):
        for k in range(4):
            assert schur_product_decompose([], k) == SignedSpectrum({sig(): 1})

    def test_errors_in_factor_order(self):
        with pytest.raises(RankTooSmall):
            schur_product_decompose([sig(1), sig(1, 1, 1)], 2)
        with pytest.raises(NotDominant):
            schur_product_decompose([sig(1), sig(-1)], 2)
        with pytest.raises(RankTooSmall):
            schur_product_decompose([sig(1, 1, 1), sig(-1)], 2)
        # every rank is checked before any sign
        with pytest.raises(RankTooSmall):
            schur_product_decompose([sig(-1), sig(1, 1, 1)], 2)

    def test_fold_starts_from_largest_factor(self):
        # (40,40) has 259,161 tableaux in 4 variables and (2,2) has 20, so the
        # fold must start from (40,40) whichever order the factors come in
        small, large = sig(2, 2), sig(40, 40)
        expected = tensor_decompose([large, small], 4)
        for factors in ([small, large], [large, small]):
            start = time.perf_counter()
            assert schur_product_decompose(factors, 4) == expected
            assert time.perf_counter() - start < 1.0, factors

    def test_negative_multiplicity_self_check(self, monkeypatch):
        real = lr_oracle.schur_poly
        # the negative of a character is no character
        monkeypatch.setattr(
            lr_oracle, "schur_poly", lambda m, k: {e: -c for e, c in real(m, k).items()}
        )
        with pytest.raises(SelfCheckError, match="negative multiplicity"):
            schur_product_decompose([sig(2, 1), sig(1)], 3)
