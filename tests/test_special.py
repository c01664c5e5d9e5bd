"""Numeric kernel tests: every routine against an independent reference.

log(1 + n/theta) is checked against mpmath, harmonic numbers against
Fraction partial sums and scipy's digamma, and the Kolmogorov CDF
(`ewens.paths`, on scipy's `kolmogorov`) against its theta series. The
closed-form Brownian cdfs of `paths.EXACT_REFERENCES` are checked against
40-digit mpmath sums of their series, carried until the terms fall below
1e-45, and against the known means of their laws.
"""

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special

from ewens import paths
from ewens.paths import brownian_l2_cdf, brownian_sup_cdf, cramer_von_mises_cdf, kolmogorov_cdf
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


def _mp_series(term):
    """sum_{k >= 0} term(k) in 40-digit arithmetic, until |term| < 1e-45."""
    total, k = mpmath.mpf(0), 0
    while True:
        t = term(k)
        total += t
        k += 1
        if abs(t) < mpmath.mpf(10) ** -45:
            return total


def _mp_sup(x):
    x = mpmath.mpf(x)
    if x < 1:
        c = mpmath.pi**2 / (8 * x * x)
        return 4 / mpmath.pi * _mp_series(lambda k: (-1) ** k / (2 * k + 1) * mpmath.exp(-c * (2 * k + 1) ** 2))
    return 1 - 2 * _mp_series(lambda k: (-1) ** k * mpmath.erfc((2 * k + 1) * x / mpmath.sqrt(2)))


def _mp_l2(x):
    r = 1 / (2 * mpmath.sqrt(2 * mpmath.mpf(x)))
    return mpmath.sqrt(2) * _mp_series(lambda k: mpmath.binomial(-0.5, k) * mpmath.erfc((4 * k + 1) * r))


def _mp_cvm(x):
    x = mpmath.mpf(x)

    def term(k):
        y = mpmath.mpf(4 * k + 1) ** 2 / (16 * x)
        weight = mpmath.gamma(k + 0.5) / (mpmath.gamma(0.5) * mpmath.factorial(k))
        return weight * mpmath.sqrt(4 * k + 1) * mpmath.exp(-y) * mpmath.besselk(0.25, y)

    return _mp_series(term) / (mpmath.pi * mpmath.sqrt(x))


_EXACT = [(brownian_sup_cdf, _mp_sup), (brownian_l2_cdf, _mp_l2), (cramer_von_mises_cdf, _mp_cvm)]
_IDS = ["sup", "l2", "cvm"]


@pytest.mark.parametrize("cdf,oracle", _EXACT, ids=_IDS)
def test_exact_cdf_matches_40_digit_series(cdf, oracle):
    # both tails: F(0.01) is 0 in double for all three, 1 - F(10) is 3e-23
    # (sup), 7.7e-7 (l2) and 4e-23 (cvm); the sup law switches form at 1
    xs = np.concatenate([np.geomspace(0.01, 10.0, 61), [1.0 - 1e-9, 1.0, 1.0 + 1e-9]])
    with mpmath.workdps(40):
        want = np.array([float(oracle(x)) for x in xs])
    np.testing.assert_allclose(cdf(xs), want, rtol=0.0, atol=1e-13)


def test_sup_forms_agree_across_one():
    # the theta-function series and the erfc series are the same function
    x = np.linspace(0.6, 1.6, 201)
    np.testing.assert_allclose(paths._sup_theta_series(x), paths._sup_erfc_series(x), rtol=0.0, atol=1e-15)
    assert brownian_sup_cdf(1.0) == paths._sup_erfc_series(np.array(1.0))


@pytest.mark.parametrize("cdf", [c for c, _ in _EXACT], ids=_IDS)
def test_exact_cdf_is_a_cdf_without_warnings(cdf):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(cdf(np.array([-np.inf, -1.0, 0.0, 5e-324, 1e-300, 1e-4])), np.zeros(6))
        assert cdf(0.0) == 0.0 and cdf(-2.0) == 0.0
        assert cdf(np.inf) == 1.0 and cdf(40.0) == 1.0
        x = np.linspace(0.0, 40.0, 100001)
        f = cdf(x)
    steps = np.diff(f)
    # nondecreasing wherever 1 - F > 1e-11; beyond, where F sits within a
    # few ulps of 1, its terms' rounding (under 1e-15) is all that moves
    assert np.all(steps[f[1:] < 1.0 - 1e-11] >= 0.0)
    assert steps.min() > -1e-15
    assert 0.0 <= f.min() and f.max() <= 1.0


@pytest.mark.parametrize(
    "cdf,mean",
    [(brownian_sup_cdf, math.sqrt(math.pi / 2)), (brownian_l2_cdf, 0.5), (cramer_von_mises_cdf, 1.0 / 6.0)],
    ids=_IDS,
)
def test_exact_cdf_means(cdf, mean):
    # E X = int_0^inf (1 - F); F is 1 to double precision past 40
    pieces = [(0.0, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, 5.0), (5.0, 40.0)]
    got = math.fsum(
        scipy.integrate.quad(lambda x: 1.0 - float(cdf(x)), a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
        for a, b in pieces
    )
    assert abs(got - mean) < 1e-13


def test_exact_references_table():
    assert {pair: cdf.__name__ for pair, cdf in paths.EXACT_REFERENCES.items()} == {
        ("X1", "sup"): "brownian_sup_cdf",
        ("X2", "sup"): "brownian_sup_cdf",
        ("X1", "l2"): "brownian_l2_cdf",
        ("X2", "l2"): "brownian_l2_cdf",
        ("X4", "sup"): "kolmogorov_cdf",
        ("X4", "l2"): "cramer_von_mises_cdf",
    }
