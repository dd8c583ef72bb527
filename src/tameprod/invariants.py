"""Invariant generators, weight systems, and invariant bases.

The space of lowest-weight-covariant vectors for a tensor problem is cut
out inside the span of monomials in the quadratic generators
P[a,b] = sum_t Z[a,t] * W[b,t] by two requirements: the weight under the
diagonal torus (a Diophantine system on exponent matrices) and annihilation
by the unipotent polarizations.  The simple-root (adjacent-row) shears
suffice: their commutators give every negative root, and a commutator of
derivations kills what both kill.  For k >= min(p, q) the generators are
algebraically independent, so the whole computation can run on exponent
matrices; expansion into Z/W variables happens only on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import weyl_calculus
from .errors import DimensionMismatch, IndexOutOfRange, SelfCheckError, WeightMismatch
from .linalg import column_shears, nullspace_primitive
from .polynomials import MultiPoly, scale_cols, shear_cols, wvar, zvar
from .signatures import Signature, check_polynomial, tables


def generator(alpha: int, beta: int, k: int) -> MultiPoly:
    """P[alpha,beta] truncated to k columns: sum_t Z[alpha,t] W[beta,t]."""
    if alpha < 1 or beta < 1:
        raise IndexOutOfRange(f"generator indices must be >= 1, got ({alpha},{beta})")
    if k < 1:
        raise IndexOutOfRange(f"need k >= 1, got {k}")
    terms = {}
    for t in range(1, k + 1):
        mono = tuple(sorted(((zvar(alpha, t), 1), (wvar(beta, t), 1))))
        terms[mono] = 1
    return MultiPoly(terms)


@dataclass(frozen=True)
class ExponentMatrix:
    """p x q exponent matrix of a monomial in the generators P[a,b]."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(int(x) for x in r) for r in self.rows))

    def row_sums(self):
        return tuple(sum(r) for r in self.rows)

    def col_sums(self):
        return tuple(sum(col) for col in zip(*self.rows)) if self.rows else ()

    def label(self) -> str:
        parts = []
        for a, row in enumerate(self.rows, start=1):
            for b, e in enumerate(row, start=1):
                if e == 1:
                    parts.append(f"P[{a},{b}]")
                elif e:
                    parts.append(f"P[{a},{b}]^{e}")
        return "*".join(parts) if parts else "1"

    def __str__(self):
        return self.label()


@dataclass(frozen=True)
class TensorProblem:
    """Factors and target of an invariant problem.

    Z rows are allocated in blocks: factor i owns rows
    row_offsets[i]+1 .. row_offsets[i]+len(factor_i); W rows 1..q carry
    the dual of the target.
    """

    factors: tuple[Signature, ...]
    target: Signature

    @classmethod
    def build(cls, factors, target) -> "TensorProblem":
        factors = tuple(factors)
        if not factors:
            raise DimensionMismatch("a tensor problem needs at least one factor")
        check_polynomial(factors + (target,))
        return cls(factors, target)

    @property
    def row_alloc(self):
        return tuple(f.length for f in self.factors)

    @property
    def p(self) -> int:
        return sum(self.row_alloc)

    @property
    def q(self) -> int:
        return self.target.length

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def row_offsets(self):
        offs = []
        acc = 0
        for l in self.row_alloc:
            offs.append(acc)
            acc += l
        return tuple(offs)

    @property
    def mu(self):
        """Stacked weight: factor entries concatenated, then target entries."""
        flat = []
        for f in self.factors:
            flat.extend(f.entries)
        flat.extend(self.target.entries)
        return tuple(flat)

    def generator(self, alpha: int, beta: int, k: int) -> MultiPoly:
        if not 1 <= alpha <= self.p:
            raise IndexOutOfRange(f"alpha={alpha} outside 1..{self.p}")
        if not 1 <= beta <= self.q:
            raise IndexOutOfRange(f"beta={beta} outside 1..{self.q}")
        return generator(alpha, beta, k)


def diophantine_solutions(problem: TensorProblem):
    """All nonnegative p x q matrices with the required row and column sums.

    Row sums are the concatenated factor entries, column sums the target
    entries; returned in ascending lexicographic order of the flattened
    matrix.
    """
    row_sums = [e for f in problem.factors for e in f.entries]
    return [ExponentMatrix(t) for t in tables(row_sums, problem.target.entries)]


def monomial(problem: TensorProblem, ell: ExponentMatrix, k: int) -> MultiPoly:
    """Expansion of the generator monomial P^ell at rank k."""
    poly = MultiPoly.const(1)
    for a, row in enumerate(ell.rows, start=1):
        for b, e in enumerate(row, start=1):
            if e:
                poly = poly * (problem.generator(a, b, k) ** e)
    return poly


def unipotent_generators(problem: TensorProblem):
    """Simple-root shears whose polarizations must kill an invariant.

    Yields ("Z", a + 1, a): Z row a+1 feeds row a of the same factor
    block, and ("W", w + 1, w): W row w+1 feeds row w, from the reversed
    target block; l - 1 shears for a block of length l.  They suffice: the
    E[i+1,i] generate the strictly lower-triangular algebra, as
    [E[i+2,i+1], E[i+1,i]] = E[i+2,i], their polarizations are derivations
    that bracket as the E do, and a commutator of two derivations kills
    whatever both kill.
    """
    for off, l in zip(problem.row_offsets, problem.row_alloc):
        for a in range(off + 1, off + l):
            yield ("Z", a + 1, a)
    for w in range(1, problem.q):
        yield ("W", w + 1, w)


def _polarize(rows, gen):
    """First-order action of one shear on the exponent rows of P^rows.

    Returns [(image rows, integer coefficient)]: the shear sends P^rows to
    P^rows + eps * sum(coeff * P^image) + O(eps^2)."""
    kind, x, y = gen
    images = []
    if kind == "Z":
        # row x of Z gains eps * row y: P[x,b] -> P[x,b] + eps P[y,b]
        src, dst = rows[x - 1], rows[y - 1]
        for b, e in enumerate(src):
            if e:
                image = list(rows)
                image[x - 1] = src[:b] + (e - 1,) + src[b + 1 :]
                image[y - 1] = dst[:b] + (dst[b] + 1,) + dst[b + 1 :]
                images.append((tuple(image), e))
    else:
        # W row x gains eps * W row y: P[a,x] -> P[a,x] + eps P[a,y]
        for a, row in enumerate(rows):
            e = row[x - 1]
            if e:
                moved = list(row)
                moved[x - 1] -= 1
                moved[y - 1] += 1
                images.append((rows[:a] + (tuple(moved),) + rows[a + 1 :], e))
    return images


def unipotent_constraints(problem: TensorProblem, solutions):
    """Linear constraints forcing a combination of P^ell to be killed by
    every shear; one row per (shear, image monomial) pair.  Raises
    WeightMismatch unless every P^ell has the problem's weight."""
    solutions = list(solutions)
    weight = (problem.mu[: problem.p], problem.target.entries)
    for s in solutions:
        if (s.row_sums(), s.col_sums()) != weight or any(len(r) != problem.q for r in s.rows):
            raise WeightMismatch(f"{s} is not of weight {problem.mu}")
    rows = []
    for gen in unipotent_generators(problem):
        images: dict[tuple, list] = {}
        for j, sol in enumerate(solutions):
            for image, coeff in _polarize(sol.rows, gen):
                row = images.get(image)
                if row is None:
                    row = images[image] = [0] * len(solutions)
                row[j] += coeff
        rows.extend(images[image] for image in sorted(images))
    return rows


@dataclass
class InvariantBasis:
    """Integer basis of the covariant space in the P-monomial coordinates.

    Each basis vector lists the coefficients of its invariant on the
    P-monomials.  An element is expanded into Z/W variables only on demand,
    one monomial at a time through `monomial`; Clebsch-Gordan tables
    contract the exponent matrices and expand nothing.
    """

    problem: TensorProblem
    monomials: list
    vectors: list

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    def element(self, i: int, k: int | None = None) -> MultiPoly:
        """Expand basis element i at rank k (default: the target length,
        enough for the Fock pairing against the dual model), summed term
        by term over its P-monomials."""
        if k is None:
            k = max(1, self.problem.q)
        total: dict = {}
        for c, mono in zip(self.vectors[i], self.monomials):
            if c:
                for m, x in monomial(self.problem, mono, k).terms.items():
                    total[m] = total.get(m, 0) + c * x
        return MultiPoly(total)

    def elements(self, k: int | None = None) -> list:
        """Expand every basis element at rank k."""
        return [self.element(i, k) for i in range(self.dimension)]

    def combination_label(self, i: int) -> str:
        parts = []
        for c, mono in zip(self.vectors[i], self.monomials):
            if not c:
                continue
            body = mono.label()
            if c == 1:
                parts.append(("+ " if parts else "") + body)
            elif c == -1:
                parts.append("- " + body)
            else:
                sign = "- " if c < 0 else ("+ " if parts else "")
                parts.append(f"{sign}{abs(c)}*{body}")
        return " ".join(parts) if parts else "0"

    def to_json_obj(self):
        return {
            "dimension": self.dimension,
            "monomials": [m.label() for m in self.monomials],
            "basis": [list(v) for v in self.vectors],
        }


def invariant_basis(problem: TensorProblem) -> InvariantBasis:
    """Solve the weight system and shear constraints; cross-check dimension.

    The dimension must equal the stable tensor multiplicity of the target;
    a mismatch raises SelfCheckError.
    """
    sols = diophantine_solutions(problem)
    rows = unipotent_constraints(problem, sols)
    vectors = nullspace_primitive(rows, len(sols))
    mult = weyl_calculus.multiplicity(problem.factors, problem.target)
    if len(vectors) != mult:
        raise SelfCheckError(
            f"invariant dimension {len(vectors)} != tensor multiplicity {mult} "
            f"for {problem.factors} -> {problem.target}"
        )
    return InvariantBasis(problem, sols, vectors)


def diagonal_right_action(f: MultiPoly, g) -> MultiPoly:
    """Right action in labeled coordinates: Z -> Z.g and W -> W.(g^T)^{-1}.

    g is factored by column shears, g.C1...Cm = D with D diagonal (see
    linalg.column_shears), so g = D.Cm^-1...C1^-1.  Acting by a and then by
    b is acting by b.a, so f is acted on by C1^-1 first, then each Ck^-1 on
    Z and W together, and by D last.  Each shear is the exponential of a
    locally nilpotent polarization, whose series is finite and exact
    (polynomials.shear_cols); D scales each term by a power product of its
    entries.  The result is exact for any f and any invertible rational g.
    Every generator P[a,b] is fixed, hence so is any expanded invariant
    (at rank k = len(g)), and for it each shear costs one pass that
    returns 0.
    """
    shears, diagonal = column_shears(g)
    for v in f.variables():
        if v.matrix in ("Z", "W") and v.col > len(g):
            raise DimensionMismatch(f"{v} has column above {len(g)}")
    for p, c, t in shears:
        f = shear_cols(f, p + 1, c + 1, -t)
    return scale_cols(f, diagonal)
