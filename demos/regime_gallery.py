"""Tour the qualitative regimes of a polynomially growing mutation rate.

Classifies a gallery of growth rules, prints each limiting description of
the block count, then backs two of the degenerate regimes with seeded
Monte Carlo: a standardized-normal fit in the slow-growth case and the
two-point lattice law at the critical quadratic rate.
"""

import numpy as np
from scipy.special import ndtr

from ewens.laws import EsfParams
from ewens.paths import ks_distance
from ewens.regimes import (
    GrowthRule,
    c2_predictions,
    classify,
    limit_law,
    lln_constant,
    standardize,
    standardized_lattice_tv,
    zn_mc_distribution,
)
from ewens.sampling import RngState


def main() -> None:
    gallery = [
        GrowthRule(1.0, 0.5),
        GrowthRule(2.0, 1.0),
        GrowthRule(1.0, 1.5),
        GrowthRule(0.5, 2.0),
        GrowthRule(10.0, 3.0),
    ]
    print("growth rule gallery:")
    for rule in gallery:
        case = classify(rule)
        law = limit_law(case)
        lln = lln_constant(case)
        c_note = f" c={case.c:g}" if case.c is not None else ""
        print(
            f"  theta(n) = {rule.coeff:g} n^{rule.exponent:g}: case {case.label}{c_note}, "
            f"K_n/n -> {lln:g}, fluctuation law {law.kind}"
        )
    print()

    n = 10**5
    rule = gallery[0]
    params = EsfParams(n, rule.theta_at(n))
    std = standardize(params)
    print(f"slow growth at n = {n}: mu = {std.mu:.3f}, sigma^2 = {std.sigma2:.3f}")
    z = zn_mc_distribution(rule, n, 4000, RngState(21))
    print(f"  KS distance of 4000 standardized draws to normal: {ks_distance(z, ndtr):.4f}")
    print()

    rule = gallery[3]
    case = classify(rule)
    n = 400
    z = zn_mc_distribution(rule, n, 4000, RngState(22))
    tv = standardized_lattice_tv(z, case.c)
    print(f"critical quadratic rate at n = {n}: lattice TV of 4000 draws = {tv:.4f}")

    report = c2_predictions(EsfParams(100, 5000.0))
    print(
        f"  singleton-only probability at (100, 5000): exact {report.p_singleton_exact:.6f}, "
        f"predicted {report.p_singleton_approx:.6f}"
    )


if __name__ == "__main__":
    main()
