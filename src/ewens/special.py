"""Scalar numeric primitives shared by the rest of the package.

Everything in this module is deterministic pure Python (math + big integers).
numpy is deliberately not imported here so these building blocks stay easy to
cross-check against exact rational arithmetic in the tests.
"""

from __future__ import annotations

import math

EULER_GAMMA = 0.5772156649015328606065121

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


_DIGAMMA_SHIFT = 10.0


def digamma(x: float) -> float:
    """Digamma function psi(x) for x > 0.

    Uses the recurrence psi(x) = psi(x+1) - 1/x to push the argument above 10,
    then the asymptotic series with Bernoulli-number coefficients through
    1/x^14; the first omitted term at x = 10 is below 4e-17.
    """
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"x must be positive and finite, got {x!r}")
    acc = 0.0
    while x < _DIGAMMA_SHIFT:
        acc -= 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    # ln x - 1/(2x) - 1/(12x^2) + 1/(120x^4) - 1/(252x^6) + 1/(240x^8)
    #      - 1/(132x^10) + 691/(32760x^12) - 1/(12x^14)
    series = inv2 * (
        1.0 / 12.0
        - inv2 * (
            1.0 / 120.0
            - inv2 * (
                1.0 / 252.0
                - inv2 * (
                    1.0 / 240.0
                    - inv2 * (
                        1.0 / 132.0
                        - inv2 * (691.0 / 32760.0 - inv2 / 12.0)
                    )
                )
            )
        )
    )
    return acc + math.log(x) - 0.5 * inv - series


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


def stirling_first(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind s(n, k), exact."""
    row = stirling_first_row(n)
    if k != int(k) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    k = int(k)
    if k > n:
        return 0
    return row[k]


def log_bignat(value: int) -> float:
    """log of a positive big integer, immune to float overflow."""
    if value <= 0:
        raise ValueError(f"value must be a positive integer, got {value!r}")
    bits = value.bit_length()
    if bits <= 970:
        return math.log(float(value))
    shift = bits - 970
    return math.log(float(value >> shift)) + shift * math.log(2.0)


def kolmogorov_cdf(x: float) -> float:
    """CDF of the Kolmogorov law P(sup_u |B°(u)| <= x).

    1 - 2 sum_{k>=1} (-1)^{k-1} exp(-2 k^2 x^2), summed until the term drops
    below 1e-16. Returns 0 for x <= 0.
    """
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    if x <= 0.0:
        return 0.0
    total = 0.0
    k = 1
    while True:
        term = math.exp(-2.0 * k * k * x * x)
        total += term if k % 2 == 1 else -term
        if term < 1e-16:
            break
        k += 1
    return min(1.0, max(0.0, 1.0 - 2.0 * total))


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erf."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def harmonic_number(n: int) -> float:
    """H_n = sum_{j=1..n} 1/j with exact (fsum) accumulation."""
    if n != int(n) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    return math.fsum(1.0 / j for j in range(1, int(n) + 1))
