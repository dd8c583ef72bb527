"""The benchmark's checkers accept true outputs and reject corrupted ones.

Run with `python3 -m pytest bench/test_checks.py`.  The true outputs are
the worked example of the README (1)x(2)x(2)x(3) and small tables whose
values can be worked by hand.
"""

import copy
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(BENCH.parent / "src"))

import checks  # noqa: E402
import ref  # noqa: E402
import spans  # noqa: E402

WORKED = ((1,), (2,), (2,), (3,))

RANK_TWO = [  # decompose "(1)x(2)x(2)x(3)" --k 2 --json
    {"signature": [8], "multiplicity": 1},
    {"signature": [7, 1], "multiplicity": 3},
    {"signature": [6, 2], "multiplicity": 5},
    {"signature": [5, 3], "multiplicity": 5},
    {"signature": [4, 4], "multiplicity": 2},
]

WORKED_INVARIANTS = {  # invariants "(1)x(2)x(2)x(3) -> (7,1)" --json
    "dimension": 3,
    "monomials": [
        "P[1,2]*P[2,1]^2*P[3,1]^2*P[4,1]^3",
        "P[1,1]*P[2,1]*P[2,2]*P[3,1]^2*P[4,1]^3",
        "P[1,1]*P[2,1]^2*P[3,1]*P[3,2]*P[4,1]^3",
        "P[1,1]*P[2,1]^2*P[3,1]^2*P[4,1]^2*P[4,2]",
    ],
    "basis": [[1, -1, 0, 0], [1, 0, -1, 0], [1, 0, 0, -1]],
}

# (1)x(1) -> (1,1): the invariant is P[1,1]P[2,2] - P[1,2]P[2,1] and the dual
# state is det W; pairing gives -2 on Z[1,1]Z[2,2] and 2 on Z[1,2]Z[2,1].
DET_INVARIANTS = {
    "dimension": 1,
    "monomials": ["P[1,2]*P[2,1]", "P[1,1]*P[2,2]"],
    "basis": [[1, -1]],
}
DET_TABLE = [
    {"invariant": 1, "state": ["Z[1,1]", "Z[2,1]"], "value": "0"},
    {"invariant": 1, "state": ["Z[1,1]", "Z[2,2]"], "value": "-2"},
    {"invariant": 1, "state": ["Z[1,2]", "Z[2,1]"], "value": "2"},
    {"invariant": 1, "state": ["Z[1,2]", "Z[2,2]"], "value": "0"},
]


def test_decompose():
    assert checks.check_decompose(WORKED, 2, RANK_TWO) is None
    wrong = copy.deepcopy(RANK_TWO)
    wrong[1]["multiplicity"] = 4
    assert checks.check_decompose(WORKED, 2, wrong) is not None
    assert checks.check_decompose(WORKED, 2, RANK_TWO[:-1]) is not None
    assert checks.check_decompose(WORKED, 3, RANK_TWO) is not None


def test_stabilize_and_multiplicity():
    assert checks.check_stabilize(WORKED, {"stabilization_index": 4}) is None
    assert checks.check_stabilize(WORKED, {"stabilization_index": 3}) is not None
    assert checks.check_multiplicity(WORKED, (7, 1), {"multiplicity": 3}) is None
    assert checks.check_multiplicity(WORKED, (7, 1), {"multiplicity": 2}) is not None


def test_invariants():
    assert checks.check_invariants(WORKED, (7, 1), WORKED_INVARIANTS, 3) is None
    assert checks.check_invariants(WORKED, (7, 1), WORKED_INVARIANTS, 2) is not None
    flipped = copy.deepcopy(WORKED_INVARIANTS)
    flipped["basis"][1] = [-x for x in flipped["basis"][1]]
    assert checks.check_invariants(WORKED, (7, 1), flipped, 3) is not None
    skewed = copy.deepcopy(WORKED_INVARIANTS)
    skewed["basis"][2] = [1, 1, 0, -1]  # primitive, but not killed by the shears
    assert checks.check_invariants(WORKED, (7, 1), skewed, 3) is not None
    doubled = copy.deepcopy(WORKED_INVARIANTS)
    doubled["basis"][2] = [2, -2, 0, 0]
    assert checks.check_invariants(WORKED, (7, 1), doubled, 3) is not None
    dependent = copy.deepcopy(WORKED_INVARIANTS)
    dependent["basis"][2] = [0, 1, -1, 0]  # row 2 minus row 1
    assert checks.check_invariants(WORKED, (7, 1), dependent, 3) is not None
    short = copy.deepcopy(WORKED_INVARIANTS)
    short["monomials"][0] = "P[1,2]*P[2,1]^2*P[3,1]^2*P[4,1]^2*P[4,2]"
    assert checks.check_invariants(WORKED, (7, 1), short, 3) is not None


def test_cgc():
    factors, target = ((1,), (1,)), (1, 1)
    assert checks.check_invariants(factors, target, DET_INVARIANTS, 1) is None
    assert checks.check_cgc(factors, target, DET_TABLE, DET_INVARIANTS) is None
    assert checks.check_cgc(factors, target, DET_TABLE[::-1], DET_INVARIANTS) is None
    wrong = copy.deepcopy(DET_TABLE)
    wrong[2]["value"] = "-2"
    assert checks.check_cgc(factors, target, wrong, DET_INVARIANTS) is not None
    off_weight = copy.deepcopy(DET_TABLE)
    off_weight[0]["value"] = "1"
    assert checks.check_cgc(factors, target, off_weight, DET_INVARIANTS) is not None
    assert checks.check_cgc(factors, target, DET_TABLE[1:], DET_INVARIANTS) is not None
    assert checks.check_cgc(factors, target, DET_TABLE + DET_TABLE[:1], DET_INVARIANTS) is not None


def test_oracle():
    spec = {tuple(t["signature"]): t["multiplicity"] for t in RANK_TWO}
    assert checks.check_oracle(WORKED, 2, spec, dict(spec)) is None
    assert checks.check_oracle(WORKED, 2, spec, {**spec, (8,): 2}) is not None
    both_wrong = {**spec, (4, 4): 3}
    assert checks.check_oracle(WORKED, 2, both_wrong, dict(both_wrong)) is not None


def test_expand_and_action():
    mats = [ref.parse_p_label(m, 2, 2) for m in DET_INVARIANTS["monomials"]]
    element = ref.expand_invariant([1, -1], mats, 2)
    assert checks.check_expand([1, -1], mats, 2, element) is None
    assert checks.check_expand([1, -1], mats, 2, {m: -c for m, c in element.items()}) is not None
    g = ((1, 2), (0, 1))  # Z[1,2] -> 2 Z[1,1] + Z[1,2]; column 1 stays put
    z11 = (("Z", 1, 1), 1)
    z12 = (("Z", 1, 2), 1)
    image = {(z11,): 2, (z12,): 1}
    assert checks.check_action(g, [element], [element], 2, image) is None
    assert checks.check_action(g, [element], [{}], 2, image) is not None
    assert checks.check_action(g, [element], [element], 2, {(z12,): 1}) is not None
    assert checks.check_action(g, [element], [element], 1, {(z11,): 1}) is not None


def test_reference_rules():
    assert ref.lr_spectrum([(1,), (1,)]) == {(2,): 1, (1, 1): 1}
    assert ref.lr_product((2, 1), (2, 1))[(3, 2, 1)] == 2
    assert ref.weyl_dim((2, 1), 3) == 8
    assert ref.count_tables([1, 2, 2, 3], [7, 1]) == 4 == len(ref.contingency_tables([1, 2, 2, 3], [7, 1]))


def test_tracer_self_time():
    tracer = spans.Tracer()
    tracer.spans[:] = [
        (1, 0, "polynomials", "act_cols", 1.0, 3.0),
        (0, None, "invariants", "diagonal_right_action", 0.0, 4.0),
    ]
    out = tracer.take()
    assert out["layers"] == {"polynomials": 2.0, "invariants": 2.0}
    assert out["functions"]["invariants", "diagonal_right_action"] == [1, 4.0, 2.0]
    assert tracer.spans == []


def test_tracer_wraps_the_program_and_restores_it():
    from tameprod import cli, weyl_calculus

    original = weyl_calculus.tensor_decompose
    tracer = spans.Tracer()
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()):
            assert cli.main(["multiplicity", "(1)x(2)x(2)x(3) -> (7,1)", "--json"]) == 0
    finally:
        tracer.uninstall()
    assert weyl_calculus.tensor_decompose is original
    out = tracer.take()
    fns = out["functions"]
    assert fns["cli", "main"][0] == 1
    assert fns["weyl_calculus", "tensor_decompose"][0] >= 2
    assert out["counts"]["spectrum_terms"] > 0
    # self times partition the one top-level span
    assert abs(sum(out["layers"].values()) - fns["cli", "main"][1]) < 1e-9
