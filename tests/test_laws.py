"""Exact-law tests: closed-form values worked by hand, plus dual routes.

Reference values are derived independently of the implementation: partition
probabilities from the defining product formula with exact rationals, the
block-count law (one route, the convolution tree) from the double-precision
Stirling-integer oracle, from a sequential Bernoulli convolution and from
the exact Stirling integers in 60-digit mpmath, the weighted-sum
law from direct convolution of Poisson atoms and from a log-space dynamic
program, and the singleton law from its alternating series in exact
rationals.
"""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import ewens.laws
from ewens.bruteforce import kn_stirling_pmf, stirling_first_row, tilted_conditioning_check
from ewens.laws import (
    _logsumexp,
    _tlm_log,
    EsfParams,
    Partition,
    Pmf,
    cjn_mean,
    conditioned_joint_prob,
    conditioned_prefix_probs,
    conditioning_log_ratio,
    esf_pmf,
    kn_mean_var,
    kn_pmf,
    log_q_ratio,
    partitions_of,
    singleton_pmf,
    t0n_log,
    failure_probs,
    success_probs,
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


def random_blocks(rng, n):
    """Block sizes of a random partition of n, in random order."""
    blocks = []
    while n:
        top = n if rng.random() < 0.3 else min(n, 4)  # mostly small blocks
        size = int(rng.integers(1, top + 1))
        blocks.append(size)
        n -= size
    return rng.permutation(blocks)


class TestPartition:
    def test_block_list_constructor_matches_counts(self):
        rng = np.random.default_rng(909)
        for _ in range(300):
            n = int(rng.integers(1, 400))
            blocks = random_blocks(rng, n)
            counts = np.bincount(blocks, minlength=n + 1)[1:]
            a, b = Partition.from_blocks(blocks), Partition(counts)
            assert a == b and hash(a) == hash(b) and a.n == b.n == n
            np.testing.assert_array_equal(a.counts, counts)
            assert a.as_tuple() == tuple(counts.tolist())
            assert a.num_blocks == len(blocks)
            assert np.all(np.diff(a.sizes) > 0) and np.all(a.mults >= 1)
            for k in {0, 1, int(rng.integers(0, n + 1)), n}:
                np.testing.assert_array_equal(a.prefix(k), counts[:k])

    def test_equality_reads_sizes_and_mults(self):
        assert Partition([2, 1, 0, 0]) != Partition([0, 0, 0, 1])
        assert Partition.from_blocks([3, 1, 1]) == Partition([2, 0, 1, 0, 0])
        assert len({Partition([1, 1, 0]), Partition.from_blocks([2, 1])}) == 1

    @pytest.mark.parametrize("blocks", [[], [0, 2], [-1, 3]])
    def test_block_list_rejects_bad_sizes(self, blocks):
        with pytest.raises(ValueError):
            Partition.from_blocks(blocks)

    @pytest.mark.parametrize("b", [-1, 4])
    def test_prefix_length_checked(self, b):
        with pytest.raises(ValueError):
            Partition([1, 1, 0]).prefix(b)


def recursive_partitions(n):
    """Partitions of n by recursion on the largest part, then a sort: the
    generator `partitions_of` replaced, kept as its oracle."""

    def gen(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - part, part):
                yield (part,) + rest

    out = []
    for parts in gen(n, n):
        c = [0] * n
        for p in parts:
            c[p - 1] += 1
        out.append(tuple(c))
    out.sort(key=lambda c: tuple(reversed(c)))
    return out


class TestPartitionsOf:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_the_recursive_oracle_in_order(self, n):
        assert partitions_of(n) == recursive_partitions(n)

    def test_counts_match_partition_function(self):
        # p(n) for n = 1..16
        expected = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231]
        for n, pn in enumerate(expected, start=1):
            assert len(partitions_of(n)) == pn

    def test_every_tuple_is_a_partition(self):
        for counts in partitions_of(9):
            assert sum((j + 1) * aj for j, aj in enumerate(counts)) == 9


class TestLogsumexp:
    """`_logsumexp` is scipy's algorithm without its dispatch: equal to scipy, not close."""

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_scipy_on_random_arrays(self, seed):
        rng = np.random.default_rng(seed)
        for size in (1, 2, 3, 30, 1000, 10**4, 10**5, 10**6):
            x = rng.normal(rng.normal(0.0, 100.0), rng.choice([1e-3, 1.0, 30.0, 700.0]), size)
            if seed % 2:
                x[rng.random(size) < 0.2] = -np.inf
            if seed % 4 >= 2 and size > 1:
                x[rng.integers(0, size, 3)] = x.max()  # ties at the max
            assert _logsumexp(x) == float(scipy.special.logsumexp(x)), size

    @pytest.mark.parametrize(
        "x",
        [[-3.5], [-np.inf], [-np.inf] * 4, [0.0, -np.inf], [2.0, 2.0, 2.0], [1e300, 1e300], [-1e300, -np.inf, -1e300]],
    )
    def test_equals_scipy_at_the_edges(self, x):
        x = np.array(x)
        assert _logsumexp(x) == float(scipy.special.logsumexp(x))


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
        a = kn_stirling_pmf(EsfParams(n, theta))
        b = kn_pmf(EsfParams(n, theta))
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

    def test_repeat_call_shares_no_array(self):
        # the last law is cached; each Pmf must still own its probabilities
        first = kn_pmf(EsfParams(40, 2.5))
        first.probs[:] = 0.0
        again = kn_pmf(EsfParams(40, 2.5))
        assert again.probs is not first.probs
        assert math.isclose(math.fsum(again.probs), 1.0, rel_tol=1e-12)

    def test_default_route_beyond_stirling_cap(self):
        pmf = kn_pmf(EsfParams(1000, 2.0))
        assert math.isclose(pmf.mean(), kn_mean_var(EsfParams(1000, 2.0))[0], rel_tol=1e-12)

    @pytest.mark.parametrize(
        "n, theta",
        [(120, 1e8), (200, 1e9), (300, 2.0), (500, 1e-9), (500, 1e4), (500, 1e9), (500, 1e15)],
    )
    def test_convolution_matches_mpmath_oracle(self, n, theta):
        # truth s(n,k) theta^k / (theta)_n from the exact Stirling integers at
        # 60 digits; every entry >= 1e-300 holds to 2e-14 relative, where the
        # double-precision Stirling route cancels to about 4e-12 at large
        # theta. The worst point is (500, 1e-9), at 1.5e-14: theta + j - 1
        # rounds the same way for every j in a binade, so the errors of the
        # p_j and q_j add up instead of averaging out.
        got = kn_pmf(EsfParams(n, theta))
        assert got.offset == 1 and got.probs.size == n and got.tail_mass == 0.0
        row = stirling_first_row(n)
        with mpmath.workdps(60):
            th = mpmath.mpf(theta)
            rising = mpmath.rf(th, n)
            for k in range(1, n + 1):
                truth = row[k] * th**k / rising
                g = got.probs[k - 1]
                if truth >= 1e-300:
                    assert abs(g - truth) <= 2e-14 * truth, (k, g, float(truth))
                else:
                    assert g <= 1e-300, (k, g, float(truth))

    def test_convolution_at_n_1e5(self):
        params = EsfParams(10**5, 2.0)
        pmf = kn_pmf(params)
        assert pmf.offset == 1 and pmf.probs.size == params.n and pmf.tail_mass == 0.0
        ks = pmf.support().astype(float)
        mean = math.fsum(ks * pmf.probs)
        var = math.fsum((ks - mean) ** 2 * pmf.probs)
        want_mean, want_var = kn_mean_var(params)
        assert abs(math.fsum(pmf.probs) - 1.0) <= 1e-12
        assert math.isclose(mean, want_mean, rel_tol=1e-12)
        assert math.isclose(var, want_var, rel_tol=1e-12)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(n=st.integers(1, 500), theta=st.floats(-9.0, 9.0).map(lambda e: 10.0**e))
    def test_routes_and_mean_over_log_uniform_theta(self, n, theta):
        params = EsfParams(n, theta)
        a = kn_stirling_pmf(params)
        b = kn_pmf(params)
        assert abs(math.fsum(a.probs) - 1.0) <= 1e-9
        assert abs(math.fsum(b.probs) - 1.0) <= 1e-9
        assert float(np.abs(a.probs - b.probs).max()) <= 1e-11
        # E[K_n] = theta*(psi(n+theta) - psi(theta)), up to a few ulps of the
        # larger digamma, which the difference cannot resolve
        psi_n, psi_0 = scipy.special.digamma(n + theta), scipy.special.digamma(theta)
        mean, _ = kn_mean_var(params)
        slack = 1e-15 * theta * (abs(psi_0) + abs(psi_n)) + 1e-12 * mean
        assert abs(mean - theta * (psi_n - psi_0)) <= slack


def kn_sequential(n, theta):
    """P(K_n = k), k = 1..n, one Bernoulli(p_j) at a time: law * q_j plus law * p_j shifted.

    Every term is positive and entries that underflow to 0.0 at the window's
    ends are dropped, so each step costs the window of representable entries.
    """
    p = success_probs(n, theta).tolist()
    q = failure_probs(n, theta).tolist()
    out = np.zeros(n + 1)  # out[k - 1] = P(K_j = k), exactly 0.0 outside lo..hi-1
    out[0] = 1.0
    lo, hi = 0, 1
    for j in range(1, n):
        law = out[lo:hi]
        shifted = law * p[j]
        law *= q[j]
        out[lo + 1 : hi + 1] += shifted
        hi += 1
        while out[lo] == 0.0:
            lo += 1
        while out[hi - 1] == 0.0:
            hi -= 1
    return out[:n]


class TestKnTree:
    """The only K_n route: a pairwise tree whose leaves grow from 4 to 64 factors with n.

    The leaf edges take both sides of every leaf-size switch (31/32,
    127/128, 511/512, 2047/2048) and the n whose n - 1 factors fill
    their leaves exactly (17, 33, 129, 513, 2049).
    """

    @pytest.mark.parametrize(
        "n",
        [1, 2, 17, 31, 32, 33, 64, 65, 66, 127, 128, 129, 511, 512, 513, 700, 2047, 2048, 2049],
    )
    @pytest.mark.parametrize("theta", [1e-9, 2.0, 1e9])
    def test_matches_sequential_at_leaf_edges(self, n, theta):
        want = kn_sequential(n, theta)
        got = kn_pmf(EsfParams(n, theta))
        assert got.offset == 1 and got.probs.size == n and got.tail_mass == 0.0
        big = want >= 1e-300
        np.testing.assert_allclose(got.probs[big], want[big], rtol=1e-12, atol=0.0)
        assert np.all(got.probs[~big] <= 1e-300)

    @pytest.mark.parametrize("theta", [1e-9, 0.5, 2.0, 1e3, 1e9])
    def test_matches_sequential_at_n_1e5(self, theta):
        n = 10**5
        want = kn_sequential(n, theta)
        got = kn_pmf(EsfParams(n, theta))
        assert got.offset == 1 and got.probs.size == n and got.tail_mass == 0.0
        big = want >= 1e-15
        np.testing.assert_allclose(got.probs[big], want[big], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("theta, tol", [(1e-9, 1e-10), (2.0, 1e-12), (1e3, 1e-12)])
    def test_moments_at_n_1e6(self, theta, tol):
        # P(K_n = 1) is a product of 1e6 rounded q_j, so at theta = 1e-9 the
        # mass is good to about n * eps
        params = EsfParams(10**6, theta)
        pmf = kn_pmf(params)
        assert pmf.offset == 1 and pmf.probs.size == params.n and pmf.tail_mass == 0.0
        ks = pmf.support().astype(float)
        mean = math.fsum(ks * pmf.probs)
        var = math.fsum((ks - mean) ** 2 * pmf.probs)
        want_mean, want_var = kn_mean_var(params)
        assert abs(math.fsum(pmf.probs) - 1.0) <= tol
        assert math.isclose(mean, want_mean, rel_tol=tol)
        assert math.isclose(var, want_var, rel_tol=tol)

    def test_peak_memory_at_n_1e6(self):
        success_probs.cache_clear()
        ewens.laws._kn_tree.cache_clear()
        tracemalloc.start()
        try:
            kn_pmf(EsfParams(10**6, 1e3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, peak


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


def log_q_mpmath(theta, k, n):
    """log Q_0n(n) - log Q_0k(k), Q_0m(m) = (theta)_m/m!, from 40-digit loggamma."""
    with mpmath.workdps(40):
        t = mpmath.mpf(theta)

        def lq(m):
            return mpmath.loggamma(t + m) - mpmath.loggamma(t) - mpmath.loggamma(m + 1)

        return lq(n) - lq(k)


_BIG_N_THETAS = (0.5, 2.0, 50.0)


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

    @pytest.mark.parametrize("theta", _BIG_N_THETAS)
    def test_matches_mpmath_at_n_1e6(self, theta):
        n = 10**6
        params = EsfParams(n, theta)
        for j in (1, 2, 5, n // 2):
            with mpmath.workdps(40):
                want = float(theta / mpmath.mpf(j) * mpmath.exp(-log_q_mpmath(theta, n - j, n)))
            assert math.isclose(cjn_mean(params, j), want, rel_tol=1e-13), j


def singleton_series(n, theta):
    """P(C_1 = k), k = 0..n, from the alternating series in exact rationals.

    P(C_1 = k) = (theta^k/k!) sum_{j=0}^{n-k} (-1)^j (theta^j/j!)
                 (n+1-k-j)_{k+j} / (n+theta-k-j)_{k+j},
    with theta at its exact binary-float value.
    """
    th = Fraction(theta)
    probs = np.empty(n + 1)
    for k in range(n + 1):
        acc = Fraction(0)
        for j in range(n - k + 1):
            num = Fraction(1)
            den = Fraction(1)
            for i in range(k + j):
                num *= n + 1 - k - j + i
                den *= th + (n - k - j + i)
            term = th**j / math.factorial(j) * num / den
            acc += term if j % 2 == 0 else -term
        probs[k] = float(th**k / math.factorial(k) * acc)
    return probs


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

    @pytest.mark.parametrize("theta", [1e-9, 0.5, 3.0, 1e3])
    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    def test_matches_rational_series(self, n, theta):
        pmf = singleton_pmf(EsfParams(n, theta))
        series = singleton_series(n, theta)
        for k in range(n + 1):
            assert math.isclose(pmf.prob(k), series[k], rel_tol=1e-11, abs_tol=1e-15)

    @pytest.mark.parametrize("n,theta", [(40, 1e6), (40, 1e7), (200, 1e8), (500, 1e9)])
    def test_mass_at_large_theta(self, n, theta):
        # the e^{-theta H} normalisers cancel exactly instead of being
        # subtracted as numbers near theta*H_n and added back
        pmf = singleton_pmf(EsfParams(n, theta))
        assert abs(math.fsum(pmf.probs) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n,theta", [(31, 10.0), (300, 10.0), (500, 0.5)])
    def test_conditioned_route_at_scale(self, n, theta):
        # tight mass, exact zero at the impossible n-1 atom, and the
        # closed-form endpoint
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
        atom = np.exp(scipy.stats.poisson.logpmf(np.arange(kmax + 1), lam))
        nxt = np.zeros_like(probs)
        for k in range(kmax + 1):
            shifted = probs[: max_value + 1 - j * k]
            nxt[j * k : j * k + shifted.size] += atom[k] * shifted
        probs = nxt
    return probs


def tlm_log_dp(theta, l, m, max_value):
    """log P(T_lm = v), v = 0..max_value, by a log-space dynamic program.

    One Poisson factor per j = l+1..m, each truncated at k <= max_value // j;
    O(max_value^2 log m).
    """
    lp = np.full(max_value + 1, -np.inf)
    lp[0] = 0.0
    for j in range(l + 1, m + 1):
        lam = theta / j
        kmax = max_value // j
        if kmax == 0:
            lp += -lam
            continue
        w = scipy.stats.poisson.logpmf(np.arange(kmax + 1), lam)
        new = lp + w[0]
        for k in range(1, kmax + 1):
            shift = k * j
            np.logaddexp(new[shift:], lp[: max_value + 1 - shift] + w[k], out=new[shift:])
        lp = new
    return lp


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

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        theta=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
        l=st.integers(0, 5),
        width=st.integers(1, 400),
        max_value=st.integers(0, 600),
    )
    def test_kernel_matches_log_space_dp(self, theta, l, width, max_value):
        # max_value runs both below and above m, so the kernel's prefix-sum
        # and direct-window cases are both compared
        m = min(l + width, 400)
        want = tlm_log_dp(theta, l, m, max_value)
        got = _tlm_log(theta, l, m, max_value) - theta * math.fsum(
            1.0 / j for j in range(l + 1, m + 1)
        )
        assert np.array_equal(np.isinf(got), np.isinf(want))
        fin = np.isfinite(want)
        assert np.all(np.abs(got[fin] - want[fin]) <= 1e-12 * np.maximum(1.0, np.abs(want[fin])))

    @pytest.mark.parametrize("theta", [0.5, 3.0])
    def test_empty_sum_is_point_mass_at_zero(self, theta):
        lq = _tlm_log(theta, 4, 4, 6)
        assert lq[0] == 0.0
        assert np.all(lq[1:] == -np.inf)


class TestLogQRatio:
    @pytest.mark.parametrize("n", [2, 10, 10**3, 10**5, 10**6])
    def test_matches_mpmath_loggamma(self, n):
        for theta in (1e-9, 0.5, 1.0, 2.0, 1e3, 1e6, 1e9):
            want = float(log_q_mpmath(theta, 0, n))
            assert abs(log_q_ratio(theta, 0, n) - want) <= 1e-15 * max(1.0, abs(want)), theta

    @pytest.mark.parametrize("theta", [1e-9, 0.5, 3.0, 1e6])
    def test_partial_products(self, theta):
        n = 1000
        for k in (1, 2, 17, 500, 999, 1000):
            want = float(log_q_mpmath(theta, k, n))
            assert abs(log_q_ratio(theta, k, n) - want) <= 1e-15 * max(1.0, abs(want)), k

    def test_hand_worked_values(self):
        # Q_03(3) = theta (theta+1) (theta+2)/6, Q_0k(k) cancels from the ratio
        assert math.isclose(log_q_ratio(2.0, 0, 3), math.log(4.0), rel_tol=1e-15)
        assert math.isclose(log_q_ratio(2.0, 1, 3), math.log(2.0), rel_tol=1e-15)
        assert log_q_ratio(2.0, 3, 3) == 0.0


class TestT0n:
    def test_log_route_matches_closed_form(self):
        # the closed form against the T_0n recursion's own value at n
        for n, theta in [(2, 1.0), (5, 2.0), (30, 0.5), (100, 10.0)]:
            params = EsfParams(n, theta)
            kernel = tlm_pmf(theta, 0, n, n).prob(n)
            assert math.isclose(t0n_log(params), math.log(kernel), rel_tol=1e-12)

    def test_hand_worked_value(self):
        # P(T_02 = 2) at theta=1: e^{-3/2} (1/2 + 1/2) = e^{-3/2}
        assert math.isclose(math.exp(t0n_log(EsfParams(2, 1.0))), math.exp(-1.5), rel_tol=1e-13)

    def test_closed_form_is_rising_over_factorial(self):
        # Summing the Poisson product over partitions of n and applying the
        # normalization identity gives P(T_0n = n) = e^{-theta H_n} (theta)_n / n!
        n, theta = 6, 2.0
        h6 = math.fsum(1 / j for j in range(1, 7))
        rising = math.prod(theta + i for i in range(n))
        expected = math.exp(-theta * h6) * rising / math.factorial(n)
        assert math.isclose(math.exp(t0n_log(EsfParams(n, theta))), expected, rel_tol=1e-13)

    @pytest.mark.parametrize("theta", _BIG_N_THETAS)
    def test_matches_mpmath_at_n_1e6(self, theta):
        n = 10**6
        with mpmath.workdps(40):
            want = float(-mpmath.mpf(theta) * mpmath.harmonic(n) + log_q_mpmath(theta, 0, n))
        # an absolute error in the log is a relative error in P(T_0n = n)
        assert abs(t0n_log(EsfParams(n, theta)) - want) <= 1e-13


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

    def test_ratio_runs_one_recursion(self, monkeypatch):
        # Q_0n(n) comes in closed form, not from a second pass over 0..n
        calls = []

        def counted(*args):
            calls.append(args)
            return _tlm_log(*args)

        monkeypatch.setattr(ewens.laws, "_tlm_log", counted)
        conditioning_log_ratio(2.0, 3, 50)
        assert calls == [(2.0, 3, 50, 50)]

    def test_infeasible_prefix_has_zero_mass(self):
        assert conditioned_joint_prob(EsfParams(4, 1.0), 2, (3, 1)) == 0.0

    def test_prefix_probs_share_one_ratio(self, monkeypatch):
        # every prefix of one (theta, b) reads one conditioning ratio, and
        # gets the value the one-prefix call gives, bit for bit
        params = EsfParams(9, 1.7)
        prefixes = sorted({counts[:3] for counts in partitions_of(9)}) + [(0, 0, 4)]
        one_by_one = [conditioned_joint_prob(params, 3, key) for key in prefixes]
        calls = []

        def counted(*args):
            calls.append(args)
            return _tlm_log(*args)

        monkeypatch.setattr(ewens.laws, "_tlm_log", counted)
        assert conditioned_prefix_probs(params, 3, prefixes) == one_by_one
        assert calls == [(1.7, 3, 9, 9)]
        assert one_by_one[-1] == 0.0  # weight 12 > n

    def test_prefix_probs_check_every_prefix(self):
        with pytest.raises(ValueError, match="length 2"):
            conditioned_prefix_probs(EsfParams(6, 1.0), 3, [(1, 0, 0), (1, 0)])
        with pytest.raises(ValueError, match="nonnegative"):
            conditioned_prefix_probs(EsfParams(6, 1.0), 2, [(1, -1)])

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
