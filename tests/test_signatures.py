import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from tameprod.contragredient import highest_weight_vector, lowest_weight_vector_check
from tameprod.errors import MixedSigns, NotDominant, RankTooSmall
from tameprod.invariants import TensorProblem
from tameprod.lr_oracle import schur_poly, schur_product_decompose
from tameprod.signatures import (
    Signature,
    SignedSpectrum,
    compositions,
    normalize,
    sig,
    tables,
)
from tameprod.weyl_calculus import (
    compound_multiplier,
    multiplicity,
    simple_multiplier,
    stabilization_index,
    stable_decompose,
    tensor_decompose,
)


def decreasing_tuples(min_entry=-6, max_entry=6, max_len=5):
    return st.lists(
        st.integers(min_entry, max_entry), min_size=0, max_size=max_len
    ).map(lambda xs: tuple(sorted(xs, reverse=True))).filter(
        lambda t: not (t and t[0] > 0 and t[-1] < 0)
    )


class TestNormalize:
    def test_trims_trailing_zeros(self):
        assert normalize((7, 1, 0, 0)).entries == (7, 1)

    def test_empty(self):
        assert normalize(()).entries == ()
        assert normalize((0, 0)).entries == ()

    def test_nonpositive_trims_leading_zeros(self):
        assert normalize((0, 0, -1, -7)).entries == (-1, -7)

    def test_ascent_rejected(self):
        with pytest.raises(NotDominant):
            normalize((1, 2))

    def test_mixed_signs_rejected(self):
        with pytest.raises(MixedSigns):
            Signature((1, -1))

    def test_non_canonical_rejected(self):
        with pytest.raises(NotDominant):
            Signature((7, 1, 0))

    @given(decreasing_tuples())
    def test_idempotent(self, t):
        s = normalize(t)
        assert normalize(s.entries) == s

    @given(decreasing_tuples(min_entry=0))
    def test_padding_invariance(self, t):
        assert normalize(t) == normalize(t + (0, 0, 0))


class TestPad:
    def test_pad(self):
        assert sig(7, 1).pad(4) == (7, 1, 0, 0)
        assert sig(7, 1).pad(2) == (7, 1)

    def test_too_short(self):
        with pytest.raises(RankTooSmall):
            sig(7, 1).pad(1)


# entry point -> (call on a list of labels at rank k, how many labels it
# takes, or None for any number)
ENTRY_POINTS = {
    "simple_multiplier": (lambda ls, k: simple_multiplier(1, *ls, k), 1),
    "compound_multiplier": (lambda ls, k: compound_multiplier(*ls, k), 2),
    "tensor_decompose": (tensor_decompose, None),
    "stabilization_index": (lambda ls, k: stabilization_index(ls), None),
    "stable_decompose": (lambda ls, k: stable_decompose(ls), None),
    "multiplicity": (lambda ls, k: multiplicity(ls, sig(1)), None),
    "schur_poly": (lambda ls, k: schur_poly(*ls, k), 1),
    "schur_product_decompose": (schur_product_decompose, None),
    "highest_weight_vector": (lambda ls, k: highest_weight_vector(*ls), 1),
    "lowest_weight_vector_check": (lambda ls, k: lowest_weight_vector_check(*ls, k), 1),
    "TensorProblem.build": (lambda ls, k: TensorProblem.build(ls[:-1], ls[-1]), 2),
    "Signature.pad": (lambda ls, k: ls[0].pad(k), 1),
}
TAKES_NO_RANK = {
    "stabilization_index",
    "stable_decompose",
    "multiplicity",
    "highest_weight_vector",
    "TensorProblem.build",
}


def label_orders(arity, fault, other):
    """The fault alone, or beside another label in every order."""
    if arity == 1:
        return [[fault]]
    return [[fault, other], [other, fault]]


class TestOneErrorPerFault:
    # Signature.pad pads any label, dual or not
    @pytest.mark.parametrize("name", [n for n in ENTRY_POINTS if n != "Signature.pad"])
    def test_negative_label(self, name):
        call, arity = ENTRY_POINTS[name]
        for labels in label_orders(arity, sig(-1), sig(2, 1)):
            with pytest.raises(NotDominant):
                call(labels, 3)

    @pytest.mark.parametrize("name", [n for n in ENTRY_POINTS if n not in TAKES_NO_RANK])
    def test_label_longer_than_rank(self, name):
        # every rank is checked before any sign, so a negative label beside
        # the long one changes nothing
        call, arity = ENTRY_POINTS[name]
        for labels in label_orders(arity, sig(1, 1, 1), sig(-1)):
            with pytest.raises(RankTooSmall):
                call(labels, 2)


def brute_compositions(total, caps):
    return [c for c in product(*(range(c + 1) for c in caps)) if sum(c) == total]


class TestCompositions:
    def test_matches_brute_force_in_order(self):
        rng = random.Random(9)
        for _ in range(300):
            caps = tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 5)))
            total = rng.randint(-2, sum(caps) + 2)
            assert list(compositions(total, caps)) == brute_compositions(total, caps), (
                total,
                caps,
            )

    def test_edges(self):
        assert list(compositions(0, ())) == [()]
        assert list(compositions(1, ())) == []
        assert list(compositions(-1, (3,))) == []
        assert list(compositions(-1, (3, 3))) == []
        assert list(compositions(7, (3, 3))) == []
        assert list(compositions(6, (3, 3))) == [(3, 3)]
        assert list(compositions(2, (2, 0, 1))) == [(1, 0, 1), (2, 0, 0)]


def brute_tables(row_sums, col_sums):
    n, m = len(row_sums), len(col_sums)
    ranges = [range(min(row_sums[i], col_sums[j]) + 1) for i in range(n) for j in range(m)]
    out = []
    for flat in product(*ranges):
        t = tuple(flat[i * m:(i + 1) * m] for i in range(n))
        cols = tuple(sum(r[j] for r in t) for j in range(m))
        if tuple(map(sum, t)) == row_sums and cols == col_sums:
            out.append(t)
    return out


class TestTables:
    def test_matches_brute_force_in_order(self):
        # margins of a random 0/1 table, sometimes with one column sum moved
        # so that the totals differ
        rng = random.Random(11)
        unequal = 0
        for _ in range(200):
            n, m = rng.randint(0, 3), rng.randint(0, 3)
            t = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
            row_sums = tuple(map(sum, t))
            col_sums = tuple(sum(r[j] for r in t) for j in range(m))
            if m and rng.random() < 0.25:
                j = rng.randrange(m)
                col_sums = col_sums[:j] + (col_sums[j] + 1,) + col_sums[j + 1:]
            got = list(tables(row_sums, col_sums))
            if sum(row_sums) != sum(col_sums):
                unequal += 1
                assert got == []
            assert got == brute_tables(row_sums, col_sums), (row_sums, col_sums)
            assert got == sorted(got, key=lambda t: [x for r in t for x in r])
        assert unequal > 10

    def test_edges(self):
        assert list(tables((), ())) == [()]
        assert list(tables((), (0, 0))) == [()]
        assert list(tables((0, 0), ())) == [((), ())]
        assert list(tables((1,), ())) == []
        assert list(tables((), (1,))) == []
        assert list(tables((2, 1), (1, 1))) == []
        assert list(tables((0, 2), (1, 0, 1))) == [((0, 0, 0), (1, 0, 1))]
        assert list(tables((1, 1), (1, 1))) == [((0, 1), (1, 0)), ((1, 0), (0, 1))]
        assert list(tables([2], [2])) == [((2,),)]


class TestSignedSpectrum:
    def test_accumulates_and_drops_zeros(self):
        s = SignedSpectrum([(sig(2), 1), (sig(2), -1), (sig(1, 1), 2)])
        assert s[sig(2)] == 0
        assert s[sig(1, 1)] == 2
        assert len(s) == 1

    def test_equality_and_lookup_default(self):
        a = SignedSpectrum({sig(3): 2})
        b = SignedSpectrum([(sig(3), 1), (sig(3), 1)])
        assert a == b
        assert a[sig(9)] == 0

    def test_sorted_desc(self):
        s = SignedSpectrum({sig(7, 1): 3, sig(8): 1, sig(4, 4): 2})
        assert [t.entries for t, _ in s.sorted_terms()] == [(8,), (7, 1), (4, 4)]

    def test_text_padding(self):
        s = SignedSpectrum({sig(8): 1, sig(7, 1): 3})
        assert s.text(pad_to=2) == "(8,0) + 3(7,1)"

    def test_json_round_trip(self):
        s = SignedSpectrum({sig(5, 3): 5, sig(4, 4): 2, sig(8): 1})
        obj = s.to_json_obj()
        assert SignedSpectrum({tuple(t["signature"]): t["multiplicity"] for t in obj}) == s

    def test_json_shape(self):
        obj = SignedSpectrum({sig(7, 1): 3}).to_json_obj()
        assert obj == [{"signature": [7, 1], "multiplicity": 3}]
