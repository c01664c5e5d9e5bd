"""Numeric kernel tests: every routine against an independent reference.

Stirling rows are checked by brute-force cycle counting over permutations,
digamma and the distribution CDFs against scipy, rising factorials against
lgamma and exact rational products, and harmonic numbers against Fraction
partial sums.
"""

import itertools
import math
from fractions import Fraction

import pytest
import scipy.special
import scipy.stats

from ewens.special import (
    EULER_GAMMA,
    digamma,
    harmonic_number,
    kolmogorov_cdf,
    log_bignat,
    log_rising_factorial,
    normal_cdf,
    stirling_first,
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


def test_stirling_first_scalar_agrees_with_row():
    row = stirling_first_row(8)
    for k in range(9):
        assert stirling_first(8, k) == row[k]


def test_stirling_rejects_bad_input():
    with pytest.raises(ValueError):
        stirling_first_row(-1)


def test_log_bignat_matches_log_of_exact_integer():
    assert log_bignat(1) == 0.0
    assert math.isclose(log_bignat(10), math.log(10), rel_tol=1e-15)
    assert math.isclose(log_bignat(math.factorial(200)), math.lgamma(201), rel_tol=1e-13)
    assert math.isclose(log_bignat(10**500), 500 * math.log(10), rel_tol=1e-14)
    with pytest.raises(ValueError):
        log_bignat(0)


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
        assert math.isclose(log_rising_factorial(float(theta), n), log_bignat(prod), rel_tol=1e-14)


def test_log_rising_factorial_exact_rational_case():
    # (1/2)(3/2)(5/2) = 15/8
    assert math.isclose(log_rising_factorial(0.5, 3), math.log(15 / 8), rel_tol=1e-15)


def test_log_rising_factorial_rejects_nonpositive_theta():
    with pytest.raises(ValueError):
        log_rising_factorial(0.0, 3)
    with pytest.raises(ValueError):
        log_rising_factorial(-1.0, 3)


def test_digamma_special_values():
    assert math.isclose(digamma(1.0), -EULER_GAMMA, rel_tol=1e-13)
    # psi(1/2) = -gamma - 2 ln 2
    assert math.isclose(digamma(0.5), -EULER_GAMMA - 2 * math.log(2), rel_tol=1e-13)
    # psi(n) = -gamma + H_{n-1}
    h = Fraction(0)
    for j in range(1, 10):
        h += Fraction(1, j)
    assert math.isclose(digamma(10.0), -EULER_GAMMA + float(h), rel_tol=1e-13)


def test_digamma_recurrence_and_scipy_grid():
    for x in [0.1, 0.37, 0.9, 1.5, 3.25, 12.0, 150.0, 1e6]:
        assert math.isclose(digamma(x + 1), digamma(x) + 1 / x, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(digamma(x), float(scipy.special.digamma(x)), rel_tol=1e-12, abs_tol=1e-12)


def test_harmonic_number_matches_fraction_sums():
    h = Fraction(0)
    for n in range(1, 31):
        h += Fraction(1, n)
        assert math.isclose(harmonic_number(n), float(h), rel_tol=1e-14)
    assert harmonic_number(0) == 0.0
    # H_n = psi(n+1) + gamma
    assert math.isclose(harmonic_number(10**6), digamma(10**6 + 1) + EULER_GAMMA, rel_tol=1e-12)


def test_normal_cdf_against_scipy():
    for x in [-8.0, -3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0, 8.0]:
        assert math.isclose(normal_cdf(x), float(scipy.stats.norm.cdf(x)), rel_tol=1e-13, abs_tol=1e-15)
    assert math.isclose(normal_cdf(0.0), 0.5, rel_tol=1e-15)


def test_kolmogorov_cdf_against_scipy():
    for x in [0.05, 0.2, 0.5, 0.8276, 1.0, 1.5, 2.5]:
        assert math.isclose(kolmogorov_cdf(x), 1.0 - float(scipy.special.kolmogorov(x)), rel_tol=1e-12, abs_tol=1e-15)
    assert kolmogorov_cdf(0.0) == 0.0
    assert kolmogorov_cdf(-1.0) == 0.0
    assert math.isclose(kolmogorov_cdf(10.0), 1.0, rel_tol=1e-15)


def test_kolmogorov_cdf_theta_series_oracle():
    # sum_{k in Z} (-1)^k exp(-2 k^2 x^2), truncated far past double precision
    for x in [0.3, 0.7, 1.1]:
        s = sum((-1) ** k * math.exp(-2 * k * k * x * x) for k in range(-60, 61))
        assert math.isclose(kolmogorov_cdf(x), s, rel_tol=1e-13, abs_tol=1e-15)
