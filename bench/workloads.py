"""The four workloads: seeded inputs, the timed call, and its check.

A workload turns a seed into one round of queries.  The runner replays the
round, with the program's caches emptied before each replay, so every
round is the same cold-start work.  Each query's call is the only timed
part; recording and checking its output happen outside the timer.
"""

from __future__ import annotations

import io
import json
import random
import sys
from bisect import bisect_left
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import lru_cache
from math import comb, exp, factorial, log, prod

import checks
import ref


@dataclass(frozen=True)
class Query:
    kind: str
    factors: tuple  # signatures as tuples of positive ints
    target: tuple = ()
    k: int = 0
    g: tuple = ()  # integer matrix, rows as tuples

    def expression(self) -> str:
        text = "x".join("(" + ",".join(map(str, f)) + ")" for f in self.factors)
        if self.target:
            text += " -> (" + ",".join(map(str, self.target)) + ")"
        return text

    def argv(self):
        args = [self.kind, self.expression()]
        if self.kind == "decompose":
            args += ["--k", str(self.k)]
        return args + ["--json"]


# ------------------------------------------------------------------ inputs


def random_signature(rng, max_entry, max_len):
    length = rng.randint(1, max_len)
    return tuple(sorted((rng.randint(1, max_entry) for _ in range(length)), reverse=True))


def lr_target(rng, factors):
    """A random target of positive multiplicity: one random step of the
    Littlewood-Richardson rule per factor."""
    t = factors[0]
    for beta in factors[1:]:
        t = rng.choice(ref.lr_successors(t, beta))
    return t


@lru_cache(maxsize=None)
def fold_work(factors, k) -> int:
    """Size of the multiplier fold at rank k: for each step, the total
    multiplicity it produces times the permutations of the next factor's
    determinant.  Predicts the fold's cost within a factor of about 1.7."""
    spec = {factors[0]: 1}
    work = 0
    for alpha in factors[1:]:
        nxt: dict = {}
        for s, m in spec.items():
            for lam, c in ref.lr_product(s, alpha).items():
                if len(lam) <= k:
                    work += c * factorial(len(alpha))
                    nxt[lam] = nxt.get(lam, 0) + m * c
        spec = nxt
    return work


def state_count(factors, q) -> int:
    """Weight states per invariant in a cgc table: monomials with each
    factor row's degree in columns 1..max(1, q)."""
    cols = max(1, q)
    return prod(comb(cols + d - 1, d) for f in factors for d in f)


def unimodular(rng, n):
    """A product of six integer elementary shears, each by -3 to 3, with no
    zero entry.  The cost of acting by g grows with its nonzero entries, so
    all of them are."""
    while True:
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(6):
            a, b = rng.sample(range(n), 2)
            t = rng.randint(-3, 3)
            m = [[m[i][j] + (m[i][a] * t if j == b else 0) for j in range(n)] for i in range(n)]
        if all(all(row) for row in m):
            return tuple(map(tuple, m))


def size_ladder(lo, hi, n):
    """n sizes spread evenly on a log scale from lo to hi."""
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


def stratified(rng, draw, size, ladder):
    """Draw twice as many candidates as the ladder has rungs, each with a size
    inside the ladder's range, then give each rung, smallest first, the
    unused candidate nearest to it on a log scale.  The work a tier holds
    then varies little from seed to seed."""
    lo, hi = ladder[0], ladder[-1]
    cands = []
    while len(cands) < 2 * len(ladder):
        item = draw(rng)
        s = size(item)
        if lo <= s <= hi:
            cands.append((log(s), len(cands), item))
    cands.sort()
    keys = [c[0] for c in cands]
    out = []
    for rung in map(log, ladder):
        i = bisect_left(keys, rung)
        if i == len(keys) or (i > 0 and rung - keys[i - 1] <= keys[i] - rung):
            i -= 1
        out.append(cands.pop(i)[2])
        keys.pop(i)
    return out


# A round has three tiers of queries, chosen by size with a gap of a factor
# of two or more in expected cost between tiers.  The light tier (about
# three queries in ten) is drawn from the run's seed; the medium tier (about
# half) and the heavy tier (about one in five) are drawn from a fixed seed,
# so they are the same in every run, in the same order.
# Cost per query varies by a factor of 1.5 to 2 around any cost model cheap
# enough to run at set-up, and with every tier seeded, wall_s,
# latency_p50_ms and latency_p90_ms followed the seed (IQR/median up to 0.38
# over five seeds).  With fixed upper tiers the median query falls inside
# the medium tier and the 90th percentile inside the heavy one; both upper
# tiers span a narrow size range, so neither percentile sits on a steep
# slope.  In each tier, each rung of a log-spaced ladder of sizes takes the
# candidate nearest to it.


def tiers(rng, fixed, draw, size, light, medium, heavy):
    """Fixed medium and heavy tiers in a fixed order, with the seeded light
    tier put in at seeded places.  The fixed order keeps which query first
    fills each program cache the same from seed to seed."""
    out = []
    for ladder in (medium, heavy):
        out += stratified(fixed, draw, size, ladder)
    fixed.shuffle(out)
    for item in stratified(rng, draw, size, light):
        out.insert(rng.randrange(len(out) + 1), item)
    return out


# ---------------------------------------------------------------- spectra

SPECTRA_MAX_LENGTH = 6  # sum of factor lengths


def random_spectra_query(rng):
    # Factors come from the 19 signatures with at most 3 rows and columns,
    # so they repeat across queries and reach the compound multiplier cache.
    while True:
        factors = tuple(random_signature(rng, 3, 3) for _ in range(rng.randint(2, 4)))
        total = sum(map(len, factors))
        if total <= SPECTRA_MAX_LENGTH:
            break
    kind = rng.choice(("decompose", "stabilize", "multiplicity"))
    if kind == "decompose":
        return Query(kind, factors, k=rng.randint(max(map(len, factors)), total))
    if kind == "stabilize":
        return Query(kind, factors)
    return Query(kind, factors, target=lr_target(rng, factors))


def spectra_cost(q: Query) -> float:
    """Expected ms of a cold query from fold_work, fitted over 159 seeded
    products (log residual 0.54 for decompose, 0.58 for stabilize)."""
    if q.kind == "decompose":
        return 1e3 * exp(-7.57) * max(1, fold_work(q.factors, q.k)) ** 0.546
    return 1e3 * exp(-7.87) * max(1, fold_work(q.factors, sum(map(len, q.factors)))) ** 0.8


def make_spectra(rng, fixed):
    return tiers(
        rng,
        fixed,
        random_spectra_query,
        spectra_cost,
        light=size_ladder(0.6, 3, 36),  # expected ms
        medium=size_ladder(10, 13, 60),
        heavy=size_ladder(40, 50, 24),
    )


# ------------------------------------------------------------- invariants


def random_problem(rng, max_entry):
    """2 or 3 factors with entries at most max_entry and at most 2 rows, and
    a target of positive multiplicity."""
    factors = tuple(random_signature(rng, max_entry, 2) for _ in range(rng.randint(2, 3)))
    return factors, lr_target(rng, factors)


def exponent_matrix_count(factors, target) -> int:
    return ref.count_tables([x for f in factors for x in f], target)


def make_invariants(rng, fixed):
    problems = tiers(
        rng,
        fixed,
        lambda r: random_problem(r, 3),
        lambda fp: exponent_matrix_count(*fp),
        light=size_ladder(6, 12, 9),  # exponent matrices per problem
        medium=size_ladder(20, 26, 15),
        heavy=size_ladder(40, 46, 6),
    )
    return [Query("invariants", f, t) for f, t in problems]


# -------------------------------------------------------------------- cgc

CGC_ANCHOR = (((2, 1), (2, 1)), (3, 2, 1))  # 648 cells


def table_cells(factors, target) -> int:
    dim = ref.lr_spectrum(factors).get(target, 0)
    return dim * state_count(factors, len(target))


def make_cgc(rng, fixed):
    problems = tiers(
        rng,
        fixed,
        lambda r: random_problem(r, 2),
        lambda fp: table_cells(*fp),
        light=size_ladder(12, 20, 12),  # cells per table
        medium=size_ladder(45, 65, 20),
        heavy=size_ladder(130, 170, 5),
    )
    problems.insert(rng.randrange(len(problems) + 1), CGC_ANCHOR)
    return [Query("cgc", f, t) for f, t in problems]


# ----------------------------------------------------------------- verify

# Problems whose invariants are expanded and acted on, with the rank; as in
# the group-invariance acceptance criterion, the worked example at rank 2
# is the heaviest.
ACTION_PROBLEMS = [
    (((1,), (2,), (2,), (3,)), (7, 1), 2),
    (((2, 1), (2,)), (3, 2), 2),
    (((2, 1), (1,)), (3, 1), 3),
    (((2,), (2,)), (3, 1), 3),
    (((1,), (1,), (1,)), (2, 1), 3),
    (((2,), (1,)), (2, 1), 3),
]


def random_oracle_case(rng):
    factors = tuple(random_signature(rng, 4, 2) for _ in range(rng.randint(1, 3)))
    return factors, rng.randint(max(map(len, factors)), 5)


def oracle_size(case) -> float:
    """Oracle cost grows with the product of the factors' dimensions at rank
    k and falls with k (fitted over 46 seeded cases: exponents 0.92, -1.4)."""
    factors, k = case
    return prod(ref.weyl_dim(f, k) for f in factors) / k**1.4


def make_verify(rng, fixed):
    cases = tiers(
        rng,
        fixed,
        random_oracle_case,
        oracle_size,
        light=size_ladder(5, 40, 12),
        medium=size_ladder(250, 400, 32),
        heavy=size_ladder(1800, 2200, 10),
    )
    out = [Query("oracle", f, k=k) for f, k in cases]
    for factors, target, k in ACTION_PROBLEMS:
        out.append(Query("expand", factors, target, k))
        out.append(Query("act", factors, target, k, unimodular(rng, k)))
    return out


MAKERS = {
    "spectra": make_spectra,
    "invariants": make_invariants,
    "cgc": make_cgc,
    "verify": make_verify,
}


def make(workload: str, seed: int):
    """One round of queries; the same seed gives the same round."""
    seeded = random.Random(f"{workload}:{seed}")
    return MAKERS[workload](seeded, random.Random(f"{workload}:fixed"))


# ------------------------------------------------------------ the program


class Program:
    """The calls into tameprod, looked up on its modules at call time so
    that a Tracer installed on them sees every call."""

    def __init__(self):
        from tameprod import cli, invariants, lr_oracle, signatures, weyl_calculus
        from tameprod.polynomials import MultiPoly, zvar

        self.cli = cli
        self.invariants = invariants
        self.lr_oracle = lr_oracle
        self.weyl = weyl_calculus
        self.Signature = signatures.Signature
        self.MultiPoly, self.zvar = MultiPoly, zvar
        self._oracle_dims: dict = {}

    def caches(self):
        """Every functools cache in the package, found before any tracing."""
        found = []
        for name, mod in sorted(sys.modules.items()):
            if name.startswith("tameprod"):
                for obj in vars(mod).values():
                    if hasattr(obj, "cache_clear") and obj not in found:
                        found.append(obj)
        return found

    def sigs(self, tuples):
        return [self.Signature(tuple(t)) for t in tuples]

    def run_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def call(self, q: Query, round_state: dict):
        """The timed operation."""
        if q.kind == "oracle":
            fs = self.sigs(q.factors)
            return (
                self.weyl.tensor_decompose(fs, q.k),
                self.lr_oracle.schur_product_decompose(fs, q.k),
            )
        if q.kind == "expand":
            inv = self.invariants
            problem = inv.TensorProblem.build(self.sigs(q.factors), self.Signature(q.target))
            basis = inv.invariant_basis(problem)
            round_state[q.factors, q.target, q.k] = (basis, basis.elements(q.k))
            return round_state[q.factors, q.target, q.k]
        if q.kind == "act":
            _, elements = round_state[q.factors, q.target, q.k]
            g = [list(r) for r in q.g]
            return [self.invariants.diagonal_right_action(e, g) for e in elements]
        return self.run_cli(q.argv())

    # ------------------------------------------------------- outputs

    @staticmethod
    def fingerprint(q: Query, output):
        """Cheap identity of an output, to keep each distinct one once."""
        if q.kind == "oracle":
            return tuple(hash(s) for s in output)
        if q.kind == "expand":
            return (tuple(map(tuple, output[0].vectors)), tuple(hash(e) for e in output[1]))
        if q.kind == "act":
            return tuple(hash(e) for e in output)
        return output

    @staticmethod
    def plain_poly(poly) -> dict:
        return {
            tuple(((v.matrix, v.row, v.col), e) for v, e in mono): c
            for mono, c in poly.terms.items()
        }

    def record(self, q: Query, output):
        """The output as plain data for the checkers."""
        if q.kind == "oracle":
            return tuple({s.entries: m for s, m in spec.items()} for spec in output)
        if q.kind == "expand":
            basis, elements = output
            return (basis.to_json_obj(), [self.plain_poly(e) for e in elements])
        if q.kind == "act":
            return [self.plain_poly(e) for e in output]
        return output

    def oracle_dim(self, factors, target) -> int:
        key = (factors, target)
        if key not in self._oracle_dims:
            spec = self.lr_oracle.schur_product_decompose(self.sigs(factors), len(target))
            self._oracle_dims[key] = spec[self.Signature(target)]
        return self._oracle_dims[key]

    def check(self, q: Query, rec, expanded: dict):
        """None if the recorded output is right, else the reason.
        expanded: plain elements of each expand query, for act checks."""
        if q.kind == "oracle":
            return checks.check_oracle(q.factors, q.k, *rec)
        if q.kind == "expand":
            basis_obj, elements = rec
            err = checks.check_invariants(
                q.factors, q.target, basis_obj, self.oracle_dim(q.factors, q.target)
            )
            if err:
                return err
            p, qq = sum(map(len, q.factors)), len(q.target)
            mats = [ref.parse_p_label(label, p, qq) for label in basis_obj["monomials"]]
            for vec, element in zip(basis_obj["basis"], elements):
                err = checks.check_expand(vec, mats, q.k, element)
                if err:
                    return err
            return None
        if q.kind == "act":
            elements = expanded.get((q.factors, q.target, q.k))
            if elements is None:
                return "the basis it acts on was never expanded"
            col = next(
                c for c in range(1, q.k + 1)
                if any(q.g[u][c - 1] != int(u == c - 1) for u in range(q.k))
            )
            control = self.invariants.diagonal_right_action(
                self.MultiPoly.variable(self.zvar(1, col)), [list(r) for r in q.g]
            )
            return checks.check_action(q.g, elements, rec, col, self.plain_poly(control))
        code, text, err_text = rec
        if code != 0:
            return f"exit code {code}: {err_text.strip()}"
        obj = json.loads(text)
        if q.kind == "decompose":
            return checks.check_decompose(q.factors, q.k, obj)
        if q.kind == "stabilize":
            return checks.check_stabilize(q.factors, obj)
        if q.kind == "multiplicity":
            return checks.check_multiplicity(q.factors, q.target, obj)
        if q.kind == "invariants":
            return checks.check_invariants(
                q.factors, q.target, obj, self.oracle_dim(q.factors, q.target)
            )
        if q.kind == "cgc":
            code, basis_text, err_text = self.run_cli(
                ["invariants", q.expression(), "--json"]
            )
            if code != 0:
                return f"invariants for the table failed: {err_text.strip()}"
            basis_obj = json.loads(basis_text)
            err = checks.check_invariants(
                q.factors, q.target, basis_obj, self.oracle_dim(q.factors, q.target)
            )
            return err or checks.check_cgc(q.factors, q.target, obj, basis_obj)
        raise ValueError(f"unknown query kind {q.kind}")
