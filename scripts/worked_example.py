#!/usr/bin/env python3
"""End-to-end run of the full pipeline on the product (1) x (2) x (2) x (3).

Prints the truncated and stable spectra, the stabilization index, the
invariant basis for the target (7,1), and a small table of
Clebsch-Gordan coefficients computed through the Fock pairing.
"""

from itertools import product as iproduct

from tameprod.cg_coefficients import cg_table
from tameprod.contragredient import lowest_weight_vector_check
from tameprod.invariants import (
    TensorProblem,
    diophantine_solutions,
    invariant_basis,
    unipotent_constraints,
)
from tameprod.polynomials import weight_monomials
from tameprod.signatures import sig
from tameprod.weyl_calculus import stabilization_index, tensor_decompose

FACTORS = [sig(1), sig(2), sig(2), sig(3)]
TARGET = sig(7, 1)


def main():
    print(f"factors: {' x '.join(str(s) for s in FACTORS)}")

    print("\n-- spectra --")
    for k in (2, 3, 4):
        spectrum = tensor_decompose(FACTORS, k)
        print(f"k = {k}: {spectrum.text(pad_to=2)}")
    k_stable = stabilization_index(FACTORS)
    print(f"stabilization index: {k_stable}")

    print(f"\n-- invariants for target {TARGET} --")
    prob = TensorProblem.build(FACTORS, TARGET)
    sols = diophantine_solutions(prob)
    print(f"exponent matrices ({len(sols)}):")
    for s in sols:
        print(f"  {s.label()}")
    rows = unipotent_constraints(prob, sols)
    print(f"shear constraints: {rows}")
    basis = invariant_basis(prob)
    print(f"dimension: {basis.dimension}")
    for i in range(basis.dimension):
        print(f"  I{i + 1} = {basis.combination_label(i)}")

    print("\n-- sample Clebsch-Gordan coefficients --")
    f_star = lowest_weight_vector_check(TARGET, prob.q)
    print(f"dual lowest-weight vector: {f_star}")
    per_factor = [
        weight_monomials("Z", f.entries, prob.q, row_offset=off)
        for f, off in zip(prob.factors, prob.row_offsets)
    ]
    grid = list(iproduct(*per_factor))
    table = cg_table(basis, per_factor, f_star)
    shown = 0
    for states, values in zip(grid, map(list, zip(*table))):
        if not any(values):
            continue
        label = " * ".join(str(s) for s in states)
        print(f"  {label}: {values}")
        shown += 1
        if shown >= 8:
            break
    print(f"(showing {shown} of {len(grid)} factor-state combinations)")


if __name__ == "__main__":
    main()
