"""Scalar numeric primitives shared by the rest of the package.

Everything in this module is deterministic pure Python on doubles (`math`
only). numpy is deliberately not imported here so these building blocks stay
easy to cross-check against exact rational arithmetic in the tests.
"""

from __future__ import annotations

import math


def log1p_ratio(n: float, theta: float) -> float:
    """log(1 + n/theta), also where n/theta overflows; mu_A is theta times it."""
    if theta > 1.0:
        return math.log1p(n / theta)
    return math.log(n + theta) - math.log(theta)


def harmonic_number(n: int) -> float:
    """H_n = sum_{j=1..n} 1/j with exact (fsum) accumulation."""
    if n != int(n) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    return math.fsum(1.0 / j for j in range(1, int(n) + 1))
