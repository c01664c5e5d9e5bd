"""Walk through the exact finite-n distributions on a small example.

Prints the full partition law at n = 5, the block-count law from the
convolution tree next to the exact Stirling-integer oracle, the
singleton-count law, and mean cycle counts next to
their theta/j limit. Everything here is exact arithmetic on floats.
"""

import numpy as np

from ewens.bruteforce import enumerate_esf, kn_stirling_pmf
from ewens.laws import (
    EsfParams,
    cjn_mean,
    esf_pmf,
    kn_pmf,
    singleton_pmf,
)


def main() -> None:
    params = EsfParams(5, 2.0)
    print(f"n = {params.n}, theta = {params.theta}")
    print()

    print("partition law (cycle type -> probability):")
    table = enumerate_esf(params)
    for part, prob in sorted(table.entries, key=lambda e: -e[1]):
        counts = tuple(int(c) for c in part.counts)
        assert abs(esf_pmf(params, part) - prob) < 1e-15
        print(f"  {counts}  {prob:.6f}")
    total = sum(prob for _, prob in table.entries)
    print(f"  total mass {total:.12f}")
    print()

    print("block-count law, convolution tree against the Stirling-integer oracle:")
    tree = kn_pmf(params)
    oracle = kn_stirling_pmf(params)
    for k in tree.support():
        a = tree.prob(k)
        b = oracle.prob(k)
        print(f"  K = {k}: {a:.10f}  (oracle gap {abs(a - b):.1e})")
    print(f"  mean blocks {tree.mean():.6f}")
    print()

    print("singleton-count law:")
    singles = singleton_pmf(params)
    for k in singles.support():
        print(f"  C_1 = {k}: {singles.prob(k):.10f}")
    print()

    print("mean cycle counts against the theta/j limit:")
    for j in range(1, 6):
        exact = cjn_mean(params, j)
        print(f"  E C_{j} = {exact:.6f}   theta/j = {params.theta / j:.6f}")


if __name__ == "__main__":
    main()
