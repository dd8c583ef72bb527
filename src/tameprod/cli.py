"""Command line front end.

Expression grammar:  sig ("x" | "⊗" sig)* ("->" sig)?   with
sig = "(" int ("," int)* ")".  Exit codes: 0 success, 1 usage error
(including a signature with a negative entry, which every subcommand
rejects), 2 expression/parse error, 3 failed internal self-check, 141
stdout closed by its reader (the code a shell gives SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from itertools import product as iproduct

from . import weyl_calculus
from .cg_coefficients import cg_table
from .contragredient import lowest_weight_vector_check
from .errors import (
    CalculusError,
    ExpressionSyntaxError,
    MixedSigns,
    NotDominant,
    SelfCheckError,
)
from .invariants import TensorProblem, invariant_basis
from .polynomials import weight_monomials
from .signatures import normalize


def _boff(text: str, i: int) -> int:
    """Byte offset of character index i."""
    return len(text[:i].encode("utf-8"))


def parse_expression(text: str):
    """Parse a product expression; returns (factors, target-or-None)."""
    i = 0
    n = len(text)

    def skip_ws():
        nonlocal i
        while i < n and text[i].isspace():
            i += 1

    def parse_sig():
        nonlocal i
        skip_ws()
        if i >= n or text[i] != "(":
            raise ExpressionSyntaxError("expected '('", _boff(text, i))
        i += 1
        skip_ws()
        if i < n and text[i] == ")":
            i += 1
            return normalize(())
        entries = []
        while True:
            skip_ws()
            j = i
            if i < n and text[i] in "+-":
                i += 1
            while i < n and text[i].isdecimal():
                i += 1
            if not text[j:i].lstrip("+-"):
                raise ExpressionSyntaxError("expected integer", _boff(text, j))
            entries.append(int(text[j:i]))
            skip_ws()
            if i < n and text[i] == ",":
                i += 1
                continue
            if i < n and text[i] == ")":
                i += 1
                return normalize(entries)
            raise ExpressionSyntaxError("expected ',' or ')'", _boff(text, i))

    factors = [parse_sig()]
    target = None
    while True:
        skip_ws()
        if i >= n:
            break
        if text[i] in "xX⊗":
            i += 1
            factors.append(parse_sig())
            continue
        if text.startswith("->", i):
            i += 2
            target = parse_sig()
            skip_ws()
            if i < n:
                raise ExpressionSyntaxError("unexpected trailing input", _boff(text, i))
            break
        raise ExpressionSyntaxError("expected 'x', '⊗' or '->'", _boff(text, i))
    return factors, target


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@lru_cache(maxsize=1)
def _build_parser():
    """The argparse tree, built on first use and then shared: parsing
    leaves no state on it."""
    p = _Parser(prog="tameprod", description="Tensor product calculus for unitary groups")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="decompose a tensor product at rank k")
    d.add_argument("expr")
    d.add_argument("--k", type=int, default=None)
    d.add_argument("--json", action="store_true")

    m = sub.add_parser("multiplicity", help="stable multiplicity of the target")
    m.add_argument("expr")
    m.add_argument("--json", action="store_true")

    s = sub.add_parser("stabilize", help="least rank at which the spectrum stabilizes")
    s.add_argument("expr")
    s.add_argument("--json", action="store_true")

    v = sub.add_parser("invariants", help="basis of covariants for the target")
    v.add_argument("expr")
    v.add_argument("--json", action="store_true")
    v.add_argument("--show-polynomials", action="store_true")

    c = sub.add_parser("cgc", help="Clebsch-Gordan coefficient table")
    c.add_argument("expr")
    c.add_argument("--json", action="store_true")
    return p


def _parse_nonnegative(text: str):
    """parse_expression, then reject a negative entry in any signature."""
    factors, target = parse_expression(text)
    for s in factors + ([] if target is None else [target]):
        if any(x < 0 for x in s.entries):
            raise _UsageError(f"signatures must be nonnegative, got {s}")
    return factors, target


def _cmd_decompose(args, factors, target):
    k = args.k if args.k is not None else sum(f.length for f in factors)
    spec = weyl_calculus.tensor_decompose(factors, k)
    if args.json:
        print(json.dumps(spec.to_json_obj()))
    else:
        print(f"k = {k}")
        print(spec.text(pad_to=k))
    return 0


def _cmd_multiplicity(args, factors, target):
    m = weyl_calculus.multiplicity(factors, target)
    print(json.dumps({"multiplicity": m}) if args.json else m)
    return 0


def _cmd_stabilize(args, factors, target):
    k = weyl_calculus.stabilization_index(factors)
    print(json.dumps({"stabilization_index": k}) if args.json else k)
    return 0


def _cmd_invariants(args, factors, target):
    problem = TensorProblem.build(factors, target)
    basis = invariant_basis(problem)
    obj = basis.to_json_obj()
    kx = max(1, problem.q)
    if args.show_polynomials:
        obj["polynomials"] = [str(e) for e in basis.elements(kx)]
    if args.json:
        print(json.dumps(obj))
        return 0
    print(f"dimension: {basis.dimension}")
    print("monomials:")
    for j, m in enumerate(basis.monomials):
        print(f"  [{j}] {m.label()}")
    print("basis:")
    for i in range(basis.dimension):
        print(f"  I{i + 1} = {basis.combination_label(i)}")
    if args.show_polynomials:
        print(f"expanded at k = {kx}:")
        for i, text in enumerate(obj["polynomials"]):
            print(f"  I{i + 1} = {text}")
    return 0


def _cmd_cgc(args, factors, target):
    problem = TensorProblem.build(factors, target)
    basis = invariant_basis(problem)
    kx = max(1, problem.q)
    f_star = lowest_weight_vector_check(target, problem.q)
    per_factor = [
        weight_monomials("Z", f.entries, kx, row_offset=off)
        for f, off in zip(problem.factors, problem.row_offsets)
    ]
    table = cg_table(basis, per_factor, f_star)
    labels = list(iproduct(*([str(s) for s in states] for states in per_factor)))
    rows = [
        {"invariant": i + 1, "state": label, "value": str(value)}
        for i, values in enumerate(table)
        for label, value in zip(labels, values)
    ]
    if args.json:
        print(json.dumps(rows))
        return 0
    print(f"dual state: {f_star}")
    for r in rows:
        print(f"I{r['invariant']} | {' ; '.join(r['state'])} | {r['value']}")
    return 0


# subcommand -> (handler, whether its expression needs a "-> (target)" clause)
_COMMANDS = {
    "decompose": (_cmd_decompose, False),
    "multiplicity": (_cmd_multiplicity, True),
    "stabilize": (_cmd_stabilize, False),
    "invariants": (_cmd_invariants, True),
    "cgc": (_cmd_cgc, True),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as e:
            # --help prints and exits inside parse_args: flush here as well
            sys.stdout.flush()
            return e.code
        command, needs_target = _COMMANDS[args.command]
        factors, target = _parse_nonnegative(args.expr)
        if (target is not None) != needs_target:
            rule = "needs a" if needs_target else "takes no"
            raise _UsageError(f"{args.command} {rule} '-> (target)' clause")
        code = command(args, factors, target)
        # flush here, so that a closed stdout fails inside this try
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull so that the flush at
        # exit cannot fail again, and exit as a shell reports SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (ExpressionSyntaxError, NotDominant, MixedSigns) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except SelfCheckError as e:
        print(f"self-check failed: {e}", file=sys.stderr)
        return 3
    except CalculusError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
