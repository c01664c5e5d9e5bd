"""Numeric kernel tests: every routine against an independent reference.

log(1 + n/theta) is checked against mpmath, harmonic numbers against
Fraction partial sums and scipy's digamma, and the Kolmogorov CDF
(`ewens.paths`, on scipy's `kolmogorov`) against its theta series.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special

from ewens.paths import kolmogorov_cdf
from ewens.special import harmonic_number, log1p_ratio


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
