#!/usr/bin/env python3
"""Survey stabilization behavior over small random products.

For a batch of random products of signatures, prints the stabilization
index next to the naive bound (the sum of factor lengths) and the size
of the stable spectrum, and cross-checks the stable spectrum against
the tableau-based oracle.
"""

import argparse
import random
import sys

from tameprod.lr_oracle import schur_product_decompose
from tameprod.signatures import normalize
from tameprod.weyl_calculus import stabilization_index, stable_decompose


def random_signature(rng, max_entry=3, max_len=2):
    length = rng.randint(1, max_len)
    return normalize(sorted((rng.randint(1, max_entry) for _ in range(length)), reverse=True))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cases", type=int, default=10)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    print(f"{'product':<30} {'index':>5} {'bound':>5} {'terms':>5}")
    for _ in range(args.cases):
        factors = [random_signature(rng) for _ in range(rng.randint(2, 3))]
        bound = sum(len(f.entries) for f in factors)
        idx = stabilization_index(factors)
        spectrum = stable_decompose(factors)
        label = " x ".join(str(f) for f in factors)
        if spectrum != schur_product_decompose(factors, bound):
            print(f"stable spectrum of {label} disagrees with the tableau oracle", file=sys.stderr)
            sys.exit(3)
        print(f"{label:<30} {idx:>5} {bound:>5} {len(spectrum):>5}")
    print("\nall stable spectra agree with the tableau oracle")


if __name__ == "__main__":
    main()
