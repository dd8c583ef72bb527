"""Checkers for every query the benchmark sends.

Each checker takes the query's input and the program's output as plain
data (parsed CLI JSON, or polynomials as {monomial: coeff} dicts in the
format of ref.py) and returns None when the output is right, or a short
reason when it is not.  They share no code with tameprod: the second
route is ref.py, or a property the method must have.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod

import ref


def _spectrum(obj):
    spec = {}
    for term in obj:
        lam = tuple(term["signature"])
        if lam in spec:
            return None
        spec[lam] = term["multiplicity"]
    return spec


def _dimension_identity(spec, factors, n) -> bool:
    return sum(m * ref.weyl_dim(lam, n) for lam, m in spec.items()) == prod(
        ref.weyl_dim(f, n) for f in factors
    )


def check_decompose(factors, k, obj):
    spec = _spectrum(obj)
    if spec is None:
        return "a signature appears twice"
    degree = sum(map(sum, factors))
    for lam, m in spec.items():
        if not isinstance(m, int) or m <= 0:
            return f"multiplicity {m!r} of {lam} is not a positive integer"
        if sum(lam) != degree:
            return f"{lam} does not have the product's degree {degree}"
        if len(lam) > k:
            return f"{lam} is longer than the rank {k}"
    ranks = [k, k + 1, k + 2] if k >= sum(map(len, factors)) else [k]
    for n in ranks:
        if not _dimension_identity(spec, factors, n):
            return f"sum of m*dim_{n} differs from the product of dimensions"
    expected = {lam: m for lam, m in ref.lr_spectrum(factors).items() if len(lam) <= k}
    if spec != expected:
        return "spectrum differs from the Littlewood-Richardson count"
    return None


def check_stabilize(factors, obj):
    k = obj.get("stabilization_index")
    total = sum(map(len, factors))
    if k != total:
        return f"stabilization index {k!r}, expected the sum of lengths {total}"
    if k != max(map(len, ref.lr_spectrum(factors))):
        return "stabilization index is not the longest stable term"
    return None


def check_multiplicity(factors, target, obj):
    m = obj.get("multiplicity")
    expected = ref.lr_spectrum(factors).get(tuple(target), 0)
    if m != expected:
        return f"multiplicity {m!r}, Littlewood-Richardson count {expected}"
    return None


def check_invariants(factors, target, obj, expected_dim):
    """expected_dim: the tableau-oracle multiplicity of target."""
    p, q = sum(map(len, factors)), len(target)
    try:
        mats = [ref.parse_p_label(label, p, q) for label in obj["monomials"]]
    except ValueError as e:
        return str(e)
    rows = [x for f in factors for x in f]
    if len(set(mats)) != len(mats) or set(mats) != set(ref.contingency_tables(rows, target)):
        return "monomials differ from the exponent matrices with these row and column sums"
    vectors = obj["basis"]
    if obj["dimension"] != len(vectors) or obj["dimension"] != expected_dim:
        return f"dimension {obj['dimension']} with {len(vectors)} vectors, oracle says {expected_dim}"
    blocks = [len(f) for f in factors]
    for i, vec in enumerate(vectors):
        if len(vec) != len(mats):
            return f"vector {i} has {len(vec)} entries for {len(mats)} monomials"
        if not ref.is_primitive(vec):
            return f"vector {i} is not primitive with a positive lead"
        images: dict = {}
        for c, ell in zip(vec, mats):
            if c:
                for op, img, e in ref.raising_images(ell, blocks, q):
                    images[op, img] = images.get((op, img), 0) + c * e
        if any(images.values()):
            return f"vector {i} is not killed by every raising operator"
    if ref.rank(vectors) != len(vectors):
        return "basis vectors are dependent"
    return None


def check_cgc(factors, target, rows, basis_obj):
    """rows: the cgc JSON table; basis_obj: invariants JSON of the same
    problem (checked on its own by check_invariants)."""
    p, q = sum(map(len, factors)), len(target)
    kx = max(1, q)
    dim = basis_obj["dimension"]
    offsets = [sum(map(len, factors[:i])) for i in range(len(factors))]
    grid = list(
        product(*(ref.row_degree_monomials(f, off, kx) for f, off in zip(factors, offsets)))
    )
    cells = {}
    try:
        for r in rows:
            key = (r["invariant"], tuple(ref.parse_monomial(s) for s in r["state"]))
            if key in cells:
                return f"cell {key} appears twice"
            cells[key] = Fraction(r["value"])
    except ValueError as e:
        return str(e)
    expected_keys = {(i, states) for i in range(1, dim + 1) for states in grid}
    if set(cells) != expected_keys:
        return f"{len(cells)} cells, expected {len(expected_keys)} (dimension x weight states)"
    mats = [ref.parse_p_label(label, p, q) for label in basis_obj["monomials"]]
    dual = ref.dual_lowest_weight(target)
    weight = tuple(target) + (0,) * (kx - len(target))
    table = []
    for i, vec in enumerate(basis_obj["basis"], start=1):
        embedded = ref.embedded_state(ref.expand_invariant(vec, mats, kx), dual)
        row = []
        for states in grid:
            mono = tuple(sorted(sum(states, ())))
            value = cells[i, states]
            if ref.column_content(mono, "Z", kx) != weight and value:
                return f"cell {i} {states} breaks the weight rule but is {value}"
            if value != embedded.get(mono, 0) * ref.mono_norm(mono):
                return f"cell {i} {states} is {value}, the contraction route disagrees"
            row.append(value)
        table.append(row)
    if ref.rank(table) != dim:
        return "rank of the table differs from the dimension"
    return None


def check_oracle(factors, k, multipliers, oracle):
    """multipliers, oracle: {signature tuple: multiplicity} at rank k."""
    if multipliers != oracle:
        return "tableau oracle and multiplier calculus disagree"
    if not _dimension_identity(multipliers, factors, k):
        return f"sum of m*dim_{k} differs from the product of dimensions"
    return None


def check_expand(vector, matrices, k, element):
    """element: the program's expansion of one basis vector at rank k."""
    if element != ref.expand_invariant(vector, matrices, k):
        return "expanded invariant differs from the reference expansion"
    return None


def check_action(g, elements, acted, control_col, control_image):
    """acted: each element after Z -> Z.g, W -> W.(g^T)^-1; control_image:
    Z[1,control_col] under the same action, which must be column
    control_col of Z.g and so must move."""
    for i, (before, after) in enumerate(zip(elements, acted)):
        if before != after:
            return f"element {i} is not fixed by g"
    if len(acted) != len(elements):
        return "wrong number of acted elements"
    expected = {
        ((("Z", 1, u), 1),): g[u - 1][control_col - 1]
        for u in range(1, len(g) + 1)
        if g[u - 1][control_col - 1]
    }
    if control_image != expected or control_image == {((("Z", 1, control_col), 1),): 1}:
        return "the non-invariant control did not move as Z.g"
    return None
