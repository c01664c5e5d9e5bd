"""Exact-law tests: closed-form values worked by hand, plus dual routes.

Reference values are derived independently of the implementation: partition
probabilities from the defining product formula with exact rationals, the
block-count law from both the Stirling and the Bernoulli-convolution routes,
and the weighted-sum law from direct convolution of Poisson atoms.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from ewens.laws import (
    EsfParams,
    Partition,
    Pmf,
    cjn_mean,
    conditioned_joint_prob,
    esf_pmf,
    kn_mean_var,
    kn_pmf,
    partitions_of,
    poisson_logpmf,
    singleton_pmf,
    t0n_closed,
    t0n_log,
    tilted_conditioning_check,
    tlm_pmf,
)


def esf_fraction(n, theta, counts):
    """P(C^n = a) via the defining formula in exact rational arithmetic."""
    theta = Fraction(theta)
    rising = Fraction(1)
    for i in range(n):
        rising *= theta + i
    p = Fraction(math.factorial(n)) / rising
    for j, aj in enumerate(counts, start=1):
        p *= (theta / j) ** aj / math.factorial(aj)
    return p


class TestEsfPmf:
    def test_hand_worked_values(self):
        # n=3, theta=2: P(one singleton + one 2-block) = 3!/(2*3*4) * 2 * 1 = 1/2
        assert math.isclose(esf_pmf(EsfParams(3, 2.0), Partition([1, 1, 0])), 0.5, rel_tol=1e-14)
        # n=2, theta=1: both partitions carry mass 1/2
        assert math.isclose(esf_pmf(EsfParams(2, 1.0), Partition([2, 0])), 0.5, rel_tol=1e-14)
        assert math.isclose(esf_pmf(EsfParams(2, 1.0), Partition([0, 1])), 0.5, rel_tol=1e-14)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_matches_rational_formula_and_sums_to_one(self, n, theta):
        total = 0.0
        for counts in partitions_of(n):
            p = esf_pmf(EsfParams(n, theta), Partition(counts))
            assert math.isclose(p, float(esf_fraction(n, theta, counts)), rel_tol=1e-13)
            total += p
        assert math.isclose(total, 1.0, rel_tol=1e-12)

    def test_weight_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Partition([1, 1])  # weight 3, length 2


class TestPartitionsOf:
    def test_counts_match_partition_function(self):
        # p(n) for n = 1..16
        expected = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231]
        for n, pn in enumerate(expected, start=1):
            assert len(partitions_of(n)) == pn

    def test_every_tuple_is_a_partition(self):
        for counts in partitions_of(9):
            assert sum((j + 1) * aj for j, aj in enumerate(counts)) == 9


class TestKnPmf:
    def test_hand_worked_n3_theta2(self):
        # s(3,k) = [2, 3, 1]; (2)_3 = 24; pmf = [2*2/24, 3*4/24, 1*8/24]
        pmf = kn_pmf(EsfParams(3, 2.0))
        assert math.isclose(pmf.prob(1), 1 / 6, rel_tol=1e-14)
        assert math.isclose(pmf.prob(2), 1 / 2, rel_tol=1e-14)
        assert math.isclose(pmf.prob(3), 1 / 3, rel_tol=1e-14)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0, 10.0])
    @pytest.mark.parametrize("n", [1, 2, 7, 40, 200])
    def test_stirling_and_bernoulli_routes_agree(self, n, theta):
        a = kn_pmf(EsfParams(n, theta), method="stirling")
        b = kn_pmf(EsfParams(n, theta), method="bernoulli_convolution")
        assert np.array_equal(a.support(), b.support())
        np.testing.assert_allclose(a.probs, b.probs, rtol=1e-11, atol=1e-15)

    def test_matches_block_count_enumeration(self):
        params = EsfParams(6, 1.5)
        pmf = kn_pmf(params)
        by_blocks = np.zeros(7)
        for counts in partitions_of(6):
            by_blocks[sum(counts)] += esf_pmf(params, Partition(counts))
        for k in range(1, 7):
            assert math.isclose(pmf.prob(k), by_blocks[k], rel_tol=1e-12)

    def test_mass_sums_to_one(self):
        pmf = kn_pmf(EsfParams(100, 3.0))
        assert math.isclose(float(pmf.probs.sum()), 1.0, rel_tol=1e-12)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            kn_pmf(EsfParams(5, 1.0), method="magic")

    def test_default_route_beyond_stirling_cap(self):
        pmf = kn_pmf(EsfParams(1000, 2.0))
        assert math.isclose(pmf.mean(), kn_mean_var(EsfParams(1000, 2.0))[0], rel_tol=1e-12)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(n=st.integers(1, 500), theta=st.floats(-9.0, 9.0).map(lambda e: 10.0**e))
    def test_routes_and_mean_over_log_uniform_theta(self, n, theta):
        params = EsfParams(n, theta)
        a = kn_pmf(params, method="stirling")
        b = kn_pmf(params, method="bernoulli_convolution")
        assert abs(math.fsum(a.probs) - 1.0) <= 1e-9
        assert abs(math.fsum(b.probs) - 1.0) <= 1e-9
        assert float(np.abs(a.probs - b.probs).max()) <= 1e-11
        # E[K_n] = theta*(psi(n+theta) - psi(theta)), up to a few ulps of the
        # larger digamma, which the difference cannot resolve
        psi_n, psi_0 = scipy.special.digamma(n + theta), scipy.special.digamma(theta)
        mean, _ = kn_mean_var(params)
        slack = 1e-15 * theta * (abs(psi_0) + abs(psi_n)) + 1e-12 * mean
        assert abs(mean - theta * (psi_n - psi_0)) <= slack


class TestKnMoments:
    @pytest.mark.parametrize("theta", [0.5, 2.0, 17.0])
    @pytest.mark.parametrize("n", [1, 2, 9, 64])
    def test_mean_var_match_rational_bernoulli_sums(self, n, theta):
        th = Fraction(theta)
        mean = sum(th / (th + j - 1) for j in range(1, n + 1))
        var = sum(
            (th / (th + j - 1)) * (Fraction(j - 1) / (th + j - 1)) for j in range(1, n + 1)
        )
        got_mean, got_var = kn_mean_var(EsfParams(n, theta))
        assert math.isclose(got_mean, float(mean), rel_tol=1e-13)
        assert math.isclose(got_var, float(var), rel_tol=1e-13, abs_tol=1e-15)

    def test_moments_match_pmf(self):
        params = EsfParams(30, 2.5)
        pmf = kn_pmf(params)
        ks = pmf.support().astype(float)
        mean = float(ks @ pmf.probs)
        var = float((ks - mean) ** 2 @ pmf.probs)
        got_mean, got_var = kn_mean_var(params)
        assert math.isclose(got_mean, mean, rel_tol=1e-12)
        assert math.isclose(got_var, var, rel_tol=1e-10)


class TestCjnMean:
    def test_hand_worked_values(self):
        # E C_1^n = theta n / (theta + n - 1): n=3, theta=2 -> 3/2
        assert math.isclose(cjn_mean(EsfParams(3, 2.0), 1), 1.5, rel_tol=1e-14)
        # E C_n^n = P(single block) = theta^(n-1) (n-1)! / (theta+1)_{n-1}
        assert math.isclose(cjn_mean(EsfParams(3, 2.0), 3), 1 / 6 * 1, rel_tol=1e-13)

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_matches_enumeration(self, n):
        params = EsfParams(n, 0.7)
        for j in range(1, n + 1):
            direct = sum(
                counts[j - 1] * esf_pmf(params, Partition(counts)) for counts in partitions_of(n)
            )
            assert math.isclose(cjn_mean(params, j), direct, rel_tol=1e-12, abs_tol=1e-15)

    def test_block_count_identity(self):
        # sum_j E C_j^n equals E K_n
        params = EsfParams(25, 3.3)
        total = sum(cjn_mean(params, j) for j in range(1, 26))
        assert math.isclose(total, kn_mean_var(params)[0], rel_tol=1e-12)


class TestSingletonPmf:
    def test_hand_worked_n2_theta1(self):
        pmf = singleton_pmf(EsfParams(2, 1.0))
        assert math.isclose(pmf.prob(0), 0.5, rel_tol=1e-14)
        assert pmf.prob(1) == 0.0
        assert math.isclose(pmf.prob(2), 0.5, rel_tol=1e-14)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("n", [1, 5, 8])
    def test_matches_enumeration(self, n, theta):
        params = EsfParams(n, theta)
        pmf = singleton_pmf(params)
        direct = np.zeros(n + 1)
        for counts in partitions_of(n):
            direct[counts[0]] += esf_pmf(params, Partition(counts))
        for m in range(n + 1):
            assert math.isclose(pmf.prob(m), direct[m], rel_tol=1e-11, abs_tol=1e-15)

    def test_full_singleton_probability(self):
        # P(C_1^n = n) = n! theta^n / ((theta)_n n!) * ... = theta^n / (theta)_n
        params = EsfParams(40, 2.0)
        pmf = singleton_pmf(params)
        expected = float(Fraction(2) ** 40 / math.prod(Fraction(2 + i) for i in range(40)))
        assert math.isclose(pmf.prob(40), expected, rel_tol=1e-12)

    @pytest.mark.parametrize("n,theta", [(31, 10.0), (300, 10.0), (500, 0.5)])
    def test_conditioned_route_at_scale(self, n, theta):
        # the scalable branch: tight mass, exact zero at the impossible
        # n-1 atom, and the closed-form endpoint
        pmf = singleton_pmf(EsfParams(n, theta))
        assert abs(float(pmf.probs.sum()) - 1.0) < 1e-11
        assert pmf.prob(n - 1) == 0.0
        th = Fraction(theta)
        endpoint = th**n / math.prod(th + i for i in range(n))
        assert math.isclose(pmf.prob(n), float(endpoint), rel_tol=1e-10)


def poisson_weighted_sum_law(theta, l, m, max_value):
    """Law of sum_{j=l+1}^{m} j Z_j, Z_j ~ Poisson(theta/j), by convolution."""
    probs = np.zeros(max_value + 1)
    probs[0] = 1.0
    for j in range(l + 1, m + 1):
        lam = theta / j
        kmax = max_value // j
        atom = np.exp(poisson_logpmf(np.arange(kmax + 1), lam))
        nxt = np.zeros_like(probs)
        for k in range(kmax + 1):
            shifted = probs[: max_value + 1 - j * k]
            nxt[j * k : j * k + shifted.size] += atom[k] * shifted
        probs = nxt
    return probs


class TestTlmPmf:
    def test_hand_worked_t03(self):
        # P(T_03 = 3) has contributions from (3,0,0), (1,1,0), (0,0,1)
        # theta=1: e^{-11/6} (1/6 + 1/2 + 1/3) = e^{-11/6}
        pmf = tlm_pmf(1.0, 0, 3, 8)
        assert math.isclose(pmf.prob(3), math.exp(-11 / 6), rel_tol=1e-13)
        # theta=2: e^{-11/3} (8/6 + 2 + 2/3) = 4 e^{-11/3}
        pmf2 = tlm_pmf(2.0, 0, 3, 8)
        assert math.isclose(pmf2.prob(3), 4 * math.exp(-11 / 3), rel_tol=1e-13)

    @pytest.mark.parametrize("theta,l,m", [(1.0, 0, 4), (2.5, 0, 6), (0.5, 2, 7), (3.0, 1, 5)])
    def test_matches_direct_convolution(self, theta, l, m):
        max_value = 25
        pmf = tlm_pmf(theta, l, m, max_value)
        direct = poisson_weighted_sum_law(theta, l, m, max_value)
        for v in range(max_value + 1):
            assert math.isclose(pmf.prob(v), direct[v], rel_tol=1e-11, abs_tol=1e-16)

    def test_mass_is_complete_up_to_tail(self):
        pmf = tlm_pmf(1.0, 0, 5, 200)
        assert 1.0 - float(pmf.probs.sum()) < 1e-15


class TestT0n:
    def test_log_route_matches_closed_form(self):
        for n, theta in [(2, 1.0), (5, 2.0), (30, 0.5), (100, 10.0)]:
            params = EsfParams(n, theta)
            assert math.isclose(t0n_log(params), math.log(t0n_closed(params)), rel_tol=1e-12)

    def test_hand_worked_value(self):
        # P(T_02 = 2) at theta=1: e^{-3/2} (1/2 + 1/2) = e^{-3/2}
        assert math.isclose(t0n_closed(EsfParams(2, 1.0)), math.exp(-1.5), rel_tol=1e-13)

    def test_closed_form_is_rising_over_factorial(self):
        # Summing the Poisson product over partitions of n and applying the
        # normalization identity gives P(T_0n = n) = e^{-theta H_n} (theta)_n / n!
        n, theta = 6, 2.0
        h6 = math.fsum(1 / j for j in range(1, 7))
        rising = math.prod(theta + i for i in range(n))
        expected = math.exp(-theta * h6) * rising / math.factorial(n)
        assert math.isclose(t0n_closed(EsfParams(n, theta)), expected, rel_tol=1e-13)


class TestConditioning:
    def test_hand_worked_prefix(self):
        # n=2, theta=1, b=1: P(C_1 = 2) = 1/2 and P(C_1 = 0) = 1/2
        assert math.isclose(conditioned_joint_prob(EsfParams(2, 1.0), 1, (2,)), 0.5, rel_tol=1e-13)
        assert math.isclose(conditioned_joint_prob(EsfParams(2, 1.0), 1, (0,)), 0.5, rel_tol=1e-13)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n,b", [(4, 1), (4, 3), (6, 2), (7, 4)])
    def test_matches_enumeration(self, n, b, theta):
        params = EsfParams(n, theta)
        marginal = {}
        for counts in partitions_of(n):
            key = counts[:b]
            marginal[key] = marginal.get(key, 0.0) + esf_pmf(params, Partition(counts))
        for key, p in marginal.items():
            assert math.isclose(conditioned_joint_prob(params, b, key), p, rel_tol=1e-10, abs_tol=1e-15)

    def test_infeasible_prefix_has_zero_mass(self):
        assert conditioned_joint_prob(EsfParams(4, 1.0), 2, (3, 1)) == 0.0

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 7.0])
    def test_tilting_leaves_conditional_law_invariant(self, x):
        assert tilted_conditioning_check(EsfParams(7, 1.3), x) < 1e-10


class TestPmfContainer:
    def test_poisson_factory_mass_and_values(self):
        pmf = Pmf.poisson(2.0, tail_eps=1e-15)
        assert math.isclose(pmf.prob(0), math.exp(-2.0), rel_tol=1e-13)
        assert math.isclose(pmf.prob(3), math.exp(-2.0) * 8 / 6, rel_tol=1e-13)
        assert 1.0 - float(pmf.probs.sum()) < 1e-14

    def test_reversed_about_maps_support(self):
        pmf = kn_pmf(EsfParams(5, 1.0))
        rev = pmf.reversed_about(5)
        for k in range(1, 6):
            assert math.isclose(rev.prob(5 - k), pmf.prob(k), rel_tol=1e-15)

    def test_prob_outside_support_is_zero(self):
        pmf = kn_pmf(EsfParams(3, 1.0))
        assert pmf.prob(0) == 0.0
        assert pmf.prob(17) == 0.0

    def test_mean_matches_dot_product(self):
        pmf = Pmf.poisson(3.7)
        assert math.isclose(pmf.mean(), 3.7, rel_tol=1e-10)
