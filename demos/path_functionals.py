"""Trace the cycle-count process of one draw and test its Brownian limit.

Builds the logarithmic-time step path of a single seeded draw, prints a
few pointwise values of the recentered processes along it, then compares
seeded Monte Carlo sups of the bridge-type process against the exact
Kolmogorov law and against simulated Brownian bridges.
"""

import math

from ewens.laws import EsfParams
from ewens.paths import (
    DEFAULT_EPS,
    build_path,
    functional_stat,
    kolmogorov_cdf,
    ks_distance,
    mc_functionals,
    process_value,
    reference_functionals,
)
from ewens.sampling import RngState, sample_feller


def main() -> None:
    params = EsfParams(10**5, 1.0)
    draw = sample_feller(params, RngState(3), b_max=0)
    path = build_path(draw.c_n)
    print(f"one draw at n = {params.n}, theta = {params.theta} (seed 3):")
    print(f"  {path.k_total} blocks, first jump at u = {path.jump_u[0]:.4f}")
    for u in (0.25, 0.5, 0.75, 1.0):
        x1 = process_value(path, params.theta, "X1", u)
        x4 = process_value(path, params.theta, "X4", u)
        print(f"  u = {u:.2f}: recentered count {x1:+.4f}  bridge {x4:+.4f}")
    sup4, l2_4 = functional_stat(path, params.theta, "X4", DEFAULT_EPS)
    print(f"  bridge functionals of this path: sup {sup4:.4f}, L2 {l2_4:.4f}")
    print()

    m = 2000
    sample = mc_functionals(params, "X4", "sup", DEFAULT_EPS, m, RngState(31))
    ks_exact = ks_distance(sample.values, kolmogorov_cdf)
    print(f"{m} seeded draws of the bridge sup at n = {params.n}:")
    print(f"  KS distance to the exact Kolmogorov law: {ks_exact:.4f}")

    ref = reference_functionals(
        "X5", "l2", DEFAULT_EPS / math.log(params.n), 1 << 11, 2000, RngState(32)
    )
    sample5 = mc_functionals(params, "X5", "l2", DEFAULT_EPS, m, RngState(33))
    ks_ref = ks_distance(sample5.values, ref.values)
    print(f"  normalized-bridge L2 against {ref.values.size} simulated bridges: KS {ks_ref:.4f}")
    print("  (a path with ~log n jumps stays visibly discrete; the gaps fade like 1/sqrt(log n))")


if __name__ == "__main__":
    main()
