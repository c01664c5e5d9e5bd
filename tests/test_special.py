"""Numeric kernel tests: every routine against an independent reference.

Stirling rows are checked by brute-force cycle counting over permutations,
rising factorials against lgamma and exact rational products, harmonic
numbers against Fraction partial sums and scipy's digamma, and the
Kolmogorov CDF (`ewens.paths`, on scipy's `kolmogorov`) against its theta
series.
"""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special

from ewens.paths import kolmogorov_cdf
from ewens.special import (
    harmonic_number,
    log1p_ratio,
    log_rising_factorial,
    stirling_first_row,
)


def cycle_count_table(n):
    """Number of permutations of n with k cycles, by exhaustive enumeration."""
    table = [0] * (n + 1)
    for perm in itertools.permutations(range(n)):
        seen = [False] * n
        cycles = 0
        for start in range(n):
            if seen[start]:
                continue
            cycles += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
        table[cycles] += 1
    return table


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_stirling_row_matches_permutation_count(n):
    table = cycle_count_table(n)
    row = stirling_first_row(n)
    assert len(row) == n + 1
    assert row[0] == 0
    for k in range(1, n + 1):
        assert row[k] == table[k]


@pytest.mark.parametrize("n", [1, 5, 20, 90])
def test_stirling_row_identities(n):
    row = stirling_first_row(n)
    assert sum(row) == math.factorial(n)
    assert row[1] == math.factorial(n - 1)
    assert row[n] == 1
    if n >= 2:
        assert row[n - 1] == n * (n - 1) // 2


def test_stirling_rejects_bad_input():
    with pytest.raises(ValueError):
        stirling_first_row(-1)


@pytest.mark.parametrize("theta", [0.001, 0.5, 1.0, 2.0, 17.3, 1e6])
@pytest.mark.parametrize("n", [0, 1, 2, 10, 1000])
def test_log_rising_factorial_matches_lgamma(theta, n):
    # The lgamma difference cancels when theta is huge and n is small, so
    # allow its ~theta * eps absolute error on top of the relative band.
    expected = math.lgamma(theta + n) - math.lgamma(theta)
    lgamma_err = 4e-16 * math.lgamma(theta + n) if theta > 1 else 0.0
    assert math.isclose(
        log_rising_factorial(theta, n), expected, rel_tol=1e-12, abs_tol=1e-12 + 2 * lgamma_err
    )


def test_log_rising_factorial_exact_integer_products():
    # For integer theta the product is an exact integer; its log is the
    # cancellation-free reference the fsum route must hit.
    for theta, n in [(2, 3), (1000000, 2), (1000000, 10), (100000000, 400)]:
        prod = 1
        for i in range(n):
            prod *= theta + i
        assert math.isclose(log_rising_factorial(float(theta), n), math.log(prod), rel_tol=1e-14)


def test_log_rising_factorial_exact_rational_case():
    # (1/2)(3/2)(5/2) = 15/8
    assert math.isclose(log_rising_factorial(0.5, 3), math.log(15 / 8), rel_tol=1e-15)


def test_log_rising_factorial_rejects_nonpositive_theta():
    with pytest.raises(ValueError):
        log_rising_factorial(0.0, 3)
    with pytest.raises(ValueError):
        log_rising_factorial(-1.0, 3)


@pytest.mark.parametrize("theta", [1e-320, 1e-306, 0.5, 1.0, 2.0, 1e6, 1e308])
def test_log1p_ratio_is_finite_at_float_limits(theta):
    # log(1 + n/theta) where n/theta or n*theta overflows, against mpmath
    with mpmath.workdps(40):
        expected = float(mpmath.log1p(mpmath.mpf(1000) / mpmath.mpf(theta)))
    assert math.isclose(log1p_ratio(1000, theta), expected, rel_tol=1e-14)


def test_harmonic_number_matches_fraction_sums():
    h = Fraction(0)
    for n in range(1, 31):
        h += Fraction(1, n)
        assert math.isclose(harmonic_number(n), float(h), rel_tol=1e-14)
    assert harmonic_number(0) == 0.0
    # H_n = psi(n+1) + gamma
    assert math.isclose(harmonic_number(10**6), scipy.special.digamma(10**6 + 1) + np.euler_gamma, rel_tol=1e-12)


def test_kolmogorov_cdf_theta_series_oracle():
    # sum_{k in Z} (-1)^k exp(-2 k^2 x^2), truncated far past double precision
    for x in [0.3, 0.7, 1.1]:
        s = sum((-1) ** k * math.exp(-2 * k * k * x * x) for k in range(-60, 61))
        assert math.isclose(kolmogorov_cdf(x), s, rel_tol=1e-13, abs_tol=1e-15)
    assert kolmogorov_cdf(0.0) == 0.0
    assert kolmogorov_cdf(-1.0) == 0.0
    assert math.isclose(kolmogorov_cdf(10.0), 1.0, rel_tol=1e-15)
