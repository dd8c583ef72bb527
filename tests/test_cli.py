import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tameprod import cg_coefficients, cli, weyl_calculus
from tameprod.cli import main, parse_expression
from tameprod.errors import ExpressionSyntaxError
from tameprod.invariants import TensorProblem, invariant_basis
from tameprod.signatures import SignedSpectrum, sig


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseExpression:
    def test_product(self):
        factors, target = parse_expression("(1)x(2) x (2)⊗(3)")
        assert factors == [sig(1), sig(2), sig(2), sig(3)]
        assert target is None

    def test_with_target(self):
        factors, target = parse_expression("(2,1) x (1) -> (2,2)")
        assert factors == [sig(2, 1), sig(1)]
        assert target == sig(2, 2)

    def test_empty_signature(self):
        factors, _ = parse_expression("()")
        assert factors == [sig()]

    def test_trailing_zeros_normalized(self):
        factors, _ = parse_expression("(7,1,0,0)")
        assert factors == [sig(7, 1)]

    def test_syntax_error_offset(self):
        with pytest.raises(ExpressionSyntaxError) as e:
            parse_expression("(1,x)")
        assert e.value.offset == 3
        with pytest.raises(ExpressionSyntaxError) as e:
            parse_expression("(1) y (2)")
        assert e.value.offset == 4

    def test_not_dominant(self):
        from tameprod.errors import NotDominant

        with pytest.raises(NotDominant):
            parse_expression("(1,2)")


GRAMMAR = "()+-,xX⊗"
WS = st.text(alphabet=" \t\n", max_size=2)
SIGNATURES = st.lists(st.integers(1, 30), max_size=4).map(lambda e: sig(*sorted(e, reverse=True)))


@st.composite
def expressions(draw):
    """(text, factors, target): a product rendered with random separators
    and whitespace between every two tokens."""
    factors = draw(st.lists(SIGNATURES, min_size=1, max_size=4))
    target = draw(st.none() | SIGNATURES)

    def render(s):
        parts = [draw(WS), "(", draw(WS)]
        for j, x in enumerate(s.entries):
            parts += ([draw(WS), ",", draw(WS)] if j else []) + [str(x)]
        return "".join(parts + [draw(WS), ")", draw(WS)])

    text = render(factors[0])
    for f in factors[1:]:
        text += draw(st.sampled_from("xX⊗")) + render(f)
    if target is not None:
        text += "->" + render(target)
    return text, factors, target


class TestParseExpressionFuzz:
    @given(expressions())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, case):
        text, factors, target = case
        assert parse_expression(text) == (factors, target)

    @given(
        expressions(),
        st.data(),
        st.characters(blacklist_categories=("Cs",)).filter(
            lambda c: not c.isspace() and not c.isdecimal() and c not in GRAMMAR
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_stray_character_offset(self, case, data, stray):
        text = case[0]
        # not between the two characters of '->'
        at = data.draw(
            st.integers(0, len(text)).filter(lambda i: text[i - 1 : i + 1] != "->")
        )
        with pytest.raises(ExpressionSyntaxError) as e:
            parse_expression(text[:at] + stray + text[at:])
        # the offset counts UTF-8 bytes: each '⊗' before the fault is 3
        assert e.value.offset == at + 2 * text[:at].count("⊗")

    def test_superscript_digit_is_syntax_error(self):
        with pytest.raises(ExpressionSyntaxError) as e:
            parse_expression("(1²)")
        assert e.value.offset == 2


class TestDecompose:
    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "decompose", "(1)x(2)x(2)x(3)", "--k", "2")
        assert code == 0
        assert "k = 2" in out
        assert "(8,0) + 3(7,1) + 5(6,2) + 5(5,3) + 2(4,4)" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "decompose", "(1)x(2)x(2)x(3)", "--k", "2", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj[0] == {"signature": [8], "multiplicity": 1}
        assert {"signature": [7, 1], "multiplicity": 3} in obj

    def test_default_k_is_stabilization_bound(self, capsys):
        code, out, _ = run(capsys, "decompose", "(1)x(2)x(2)x(3)")
        assert code == 0
        assert "k = 4" in out

    def test_json_stable_above_index(self, capsys):
        outs = []
        for k in ("4", "5", "7"):
            code, out, _ = run(capsys, "decompose", "(1)x(2)x(2)x(3)", "--k", k, "--json")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]

    def test_large_k_same_as_stable(self, capsys):
        # no work or recursion depth grows with k
        code, out, err = run(capsys, "decompose", "(2,1)x(1)", "--k", "5000", "--json")
        assert (code, err) == (0, "")
        assert out == run(capsys, "decompose", "(2,1)x(1)", "--k", "3", "--json")[1]

    def test_target_rejected(self, capsys):
        code, _, err = run(capsys, "decompose", "(1)x(1) -> (2)")
        assert code == 1
        assert "usage error" in err


class TestMultiplicityAndStabilize:
    def test_multiplicity(self, capsys):
        code, out, _ = run(capsys, "multiplicity", "(1)x(2)x(2)x(3) -> (7,1)")
        assert code == 0
        assert out.strip() == "3"

    def test_multiplicity_json(self, capsys):
        code, out, _ = run(capsys, "multiplicity", "(1)x(2)x(2)x(3) -> (7,1)", "--json")
        assert json.loads(out) == {"multiplicity": 3}

    def test_multiplicity_needs_target(self, capsys):
        code, _, err = run(capsys, "multiplicity", "(1)x(1)")
        assert code == 1

    def test_stabilize(self, capsys):
        code, out, _ = run(capsys, "stabilize", "(1)x(2)x(2)x(3)")
        assert code == 0
        assert out.strip() == "4"

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("stabilize", "()"), "0"),
            (("stabilize", "()x(2,1)"), "2"),
            (("multiplicity", "()->()"), "1"),
        ],
    )
    def test_empty_factors(self, capsys, argv, expected):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, expected + "\n", "")

    @pytest.mark.parametrize(
        "argv", [("stabilize", "(2,1)x(1)"), ("multiplicity", "(2,1)x(1) -> (3,1)")]
    )
    def test_missing_row_union_is_exit_3(self, capsys, monkeypatch, argv):
        real = weyl_calculus.tensor_decompose

        def without_union(factors, k):
            spec = real(factors, k)
            return SignedSpectrum({s: m for s, m in spec.items() if s != sig(2, 1, 1)})

        monkeypatch.setattr(weyl_calculus, "tensor_decompose", without_union)
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("self-check failed:")


class TestInvariants:
    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "invariants", "(1)x(2)x(2)x(3) -> (7,1)", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["dimension"] == 3
        assert len(obj["monomials"]) == 4
        assert all(len(row) == 4 for row in obj["basis"])
        assert "P[2,1]^2" in "".join(obj["monomials"])

    def test_show_polynomials(self, capsys):
        code, out, _ = run(
            capsys, "invariants", "(1)x(2)x(2)x(3) -> (7,1)", "--json", "--show-polynomials"
        )
        obj = json.loads(out)
        assert len(obj["polynomials"]) == 3
        assert "Z[1,1]" in obj["polynomials"][0] or "Z[1,2]" in obj["polynomials"][0]

    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "invariants", "(1)x(2)x(2)x(3) -> (7,1)")
        assert code == 0
        assert "dimension: 3" in out
        assert "I1 =" in out


class TestCgc:
    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "cgc", "(1)x(1) -> (2)", "--json")
        assert code == 0
        rows = json.loads(out)
        assert rows
        for r in rows:
            assert set(r) == {"invariant", "state", "value"}
            assert isinstance(r["invariant"], int)
            assert len(r["state"]) == 2
        assert any(r["value"] != "0" for r in rows)

    def test_worked_example_rows(self, capsys):
        code, out, _ = run(capsys, "cgc", "(1)x(2)x(2)x(3) -> (7,1)", "--json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 3 * 72
        assert any(r["value"] != "0" for r in rows)

    def test_table_read_off_one_embedding_per_invariant(self, capsys, monkeypatch):
        # the table contracts each distinct P-monomial of the basis with the
        # dual state once, and neither expands nor pairs an invariant
        calls = {"tilde_monomial": 0, "tilde_map": 0, "pair": 0}

        def counting(name):
            fn = getattr(cg_coefficients, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        # cg_table and cg_coefficient look these up in their own module
        for name in calls:
            monkeypatch.setattr(cg_coefficients, name, counting(name))
        code, out, _ = run(capsys, "cgc", "(2,1)x(2,1) -> (3,2,1)", "--json")
        assert code == 0
        assert len(json.loads(out)) == 648
        basis = invariant_basis(TensorProblem.build([sig(2, 1), sig(2, 1)], sig(3, 2, 1)))
        used = {m for vec in basis.vectors for c, m in zip(vec, basis.monomials) if c}
        assert sum(len([c for c in vec if c]) for vec in basis.vectors) > len(used)
        assert calls == {"tilde_monomial": len(used), "tilde_map": 0, "pair": 0}

    def test_former_slow_table(self, capsys):
        # once about 27 s through expanded invariants; no time bound here
        factors = [sig(1, 1), sig(1), sig(2, 1)]
        target = sig(2, 1, 1, 1, 1)
        code, out, _ = run(capsys, "cgc", "(1,1)x(1)x(2,1) -> (2,1,1,1,1)", "--json")
        assert code == 0
        rows = json.loads(out)
        dimension = invariant_basis(TensorProblem.build(factors, target)).dimension
        states = 1
        for f in factors:
            for d in f.entries:
                states *= comb(target.length + d - 1, d)
        assert len(rows) == dimension * states
        assert any(r["value"] != "0" for r in rows)

    def test_row_allocation_violation_is_exit_1(self, capsys, monkeypatch):
        real = cli.weight_monomials

        def shifted(matrix, row_degrees, cmax, row_offset=0):
            return real(matrix, row_degrees, cmax, row_offset=row_offset + 1)

        monkeypatch.setattr(cli, "weight_monomials", shifted)
        code, out, err = run(capsys, "cgc", "(1)x(1) -> (2)")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "outside Z rows 1..1" in err


class TestParserReuse:
    def test_built_once(self, capsys):
        cli._build_parser.cache_clear()
        first = run(capsys, "decompose", "(2,1)x(1)", "--json")
        assert run(capsys, "decompose", "--k", "2")[0] == 1
        third = run(capsys, "decompose", "(2,1)x(1)", "--json")
        assert cli._build_parser.cache_info().misses == 1
        # a failed parse leaves no state on the shared parser
        assert first[0] == 0
        assert third == first


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(capsys, "nosuchcommand", "(1)")[0] == 1

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "decompose", "(1,")
        assert code == 2
        assert "parse error" in err

    def test_not_dominant_is_parse_error(self, capsys):
        assert run(capsys, "decompose", "(1,2)")[0] == 2

    def test_self_check_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr("tameprod.weyl_calculus.multiplicity", lambda *a, **k: 99)
        code, _, err = run(capsys, "invariants", "(1)x(1) -> (2)")
        assert code == 3
        assert "self-check" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("decompose", "(-1)"),
            ("stabilize", "(-1)x(1)"),
            ("multiplicity", "(-1)->(-1)"),
            ("invariants", "(1)x(-1)->(1)"),
            ("cgc", "(1)x(1)->(-2)"),
        ],
    )
    def test_negative_signature_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "signatures must be nonnegative" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("invariants", "(1)x(1) -> (2)", "--k", "3"),
            ("cgc", "(1)x(1) -> (2)", "--k", "3"),
        ],
    )
    def test_k_only_on_decompose(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "usage error" in err

    @pytest.mark.parametrize(
        "command, expr, rule",
        [
            ("decompose", "(1)x(1) -> (2)", "takes no"),
            ("stabilize", "(1)x(1) -> (2)", "takes no"),
            ("multiplicity", "(1)x(1)", "needs a"),
            ("invariants", "(1)x(1)", "needs a"),
            ("cgc", "(1)x(1)", "needs a"),
        ],
    )
    def test_target_clause_rule(self, capsys, command, expr, rule):
        code, out, err = run(capsys, command, expr)
        assert code == 1
        assert out == ""
        assert err == f"usage error: {command} {rule} '-> (target)' clause\n"

    def test_rank_too_small_usage(self, capsys):
        code, _, _ = run(capsys, "decompose", "(2,1)", "--k", "1")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("cgc", "(2,1)x(2,1) -> (3,2,1)", "--json"),  # fills the pipe buffer
            ("multiplicity", "(2,1)x(2,1) -> (3,2,1)"),  # fails only at the flush
            ("--help",),  # argparse prints the help and exits inside parse_args
            ("decompose", "--help"),
        ],
    )
    def test_closed_stdout_exits_141(self, argv):
        src = Path(__file__).resolve().parent.parent / "src"
        # block-buffered stdout, so that the small output fails at the flush
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "tameprod.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**env, "PYTHONPATH": str(src)},
                text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""
