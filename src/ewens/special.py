"""Scalar numeric primitives shared by the rest of the package.

Everything in this module is deterministic pure Python (math + big integers).
numpy is deliberately not imported here so these building blocks stay easy to
cross-check against exact rational arithmetic in the tests.
"""

from __future__ import annotations

import math

# Largest n for which unsigned Stirling numbers of the first kind are tabled.
# Rows are big integers; 500 rows cost a few MB and cover every exact-pmf use.
STIRLING_CAP = 500


def log_rising_factorial(theta: float, n: int) -> float:
    """Return log(theta * (theta+1) * ... * (theta+n-1)).

    For n <= 32 or theta >= n the logs of the factors are fsum-ed directly:
    the lgamma difference loses about theta * eps to cancellation, which at
    theta = 1e8 is already 1e-8. An empty product (n = 0) gives 0.

    Args:
        theta: positive finite real.
        n: nonnegative integer number of factors.
    """
    if not math.isfinite(theta) or theta <= 0.0:
        raise ValueError(f"theta must be positive and finite, got {theta!r}")
    if n != int(n) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    n = int(n)
    if n == 0:
        return 0.0
    if n <= 32 or theta >= n:
        return math.fsum(math.log(theta + i) for i in range(n))
    return math.lgamma(theta + n) - math.lgamma(theta)


_stirling_rows: list[list[int]] = [[1]]


def stirling_first_row(n: int) -> list[int]:
    """Row [s(n,0), ..., s(n,n)] of unsigned Stirling numbers, first kind.

    Computed once per n via s(n+1,k) = s(n,k-1) + n*s(n,k) in exact integer
    arithmetic and memoized module-wide.
    """
    if n != int(n) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    n = int(n)
    if n > STIRLING_CAP:
        raise ValueError(f"n = {n} exceeds the Stirling table cap {STIRLING_CAP}")
    while len(_stirling_rows) <= n:
        m = len(_stirling_rows) - 1
        prev = _stirling_rows[m]
        row = [0] * (m + 2)
        for k in range(1, m + 2):
            above = prev[k] if k <= m else 0
            row[k] = prev[k - 1] + m * above
        _stirling_rows.append(row)
    return _stirling_rows[n]


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
