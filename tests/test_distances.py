"""Distance and bound tests.

The exact prefix distance is checked against the enumeration oracle on the
full small-n grid and against a 40-digit recursion at n in the thousands,
moment sums against exact rational arithmetic, and every
closed-form bound against an inline restatement of its formula. Monte Carlo
estimates are pinned by seed.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import logsumexp

from ewens.bruteforce import db_bruteforce
from ewens.distances import (
    _ld_rate,
    _t0b_window,
    appendix_checks,
    make_report,
    bh_bounds,
    db_exact,
    db_leading_term,
    dbw_bounds,
    dbw_mc,
    e_abs_t0b,
    kn_poisson_tv,
    ld_tail_bound,
    nkn_poisson_tv,
    prelim_sums,
    tv_discrete,
    yannaros_bound,
)
from ewens.laws import EsfParams, Pmf, conditioning_log_ratio, kn_pmf, tlm_logpmf, tlm_pmf
from ewens.special import harmonic_number
from ewens.sampling import RngState, sample_feller


class TestTvDiscrete:
    def test_point_mass_versus_poisson(self):
        # TV(delta_0, Poisson(1)) = 1 - e^{-1}
        point = Pmf(0, np.array([1.0]))
        pois = Pmf.poisson(1.0)
        r = tv_discrete(point, pois)
        assert math.isclose(r.value, 1 - math.exp(-1), rel_tol=1e-12)
        assert r.lower <= r.value <= r.upper

    def test_identical_laws_have_zero_distance(self):
        pois = Pmf.poisson(2.5)
        assert tv_discrete(pois, pois).value == 0.0

    def test_disjoint_supports_have_distance_one(self):
        a = Pmf(0, np.array([1.0]))
        b = Pmf(5, np.array([1.0]))
        assert math.isclose(tv_discrete(a, b).value, 1.0, rel_tol=1e-15)

    def test_symmetry(self):
        a = kn_pmf(EsfParams(20, 1.0))
        b = Pmf.poisson(3.0)
        assert math.isclose(tv_discrete(a, b).value, tv_discrete(b, a).value, rel_tol=1e-14)


class TestBhBounds:
    def test_formula_restated(self):
        ps = [0.5, 0.25, 0.1]
        lam = math.fsum(ps)
        p2 = math.fsum(p * p for p in ps)
        lower, upper = bh_bounds(ps)
        assert math.isclose(lower, min(1.0, 1.0 / lam) * p2 / 32, rel_tol=1e-14)
        assert math.isclose(upper, (1 - math.exp(-lam)) / lam * p2, rel_tol=1e-14)

    @pytest.mark.parametrize("n,theta", [(2, 1.0), (10, 0.5), (50, 2.0), (100, 10.0)])
    def test_sandwich_contains_exact_tv(self, n, theta):
        params = EsfParams(n, theta)
        ps = [theta / (theta + i) for i in range(n)]
        lower, upper = bh_bounds(ps)
        # K_n - 1 = sum of Bernoullis over j >= 2 is what the bound describes
        # only when every p_j < 1; include j = 1 as a unit atom shift.
        tv = kn_poisson_tv(params).exact_tv.value
        assert lower <= tv + 1e-12
        assert tv <= upper + 1e-12


class TestYannaros:
    def test_values(self):
        assert yannaros_bound(1.0, 1.0) == 0.0
        # far lambdas: the root gap |2 - 1| = 1 beats |4 - 1| = 3
        assert math.isclose(yannaros_bound(1.0, 4.0), 1.0, rel_tol=1e-14)
        # near lambdas: the root gap sqrt(4.5) - 2 also wins over 0.5
        assert math.isclose(yannaros_bound(4.0, 4.5), math.sqrt(4.5) - 2.0, rel_tol=1e-13)

    def test_symmetric(self):
        assert yannaros_bound(2.0, 7.0) == yannaros_bound(7.0, 2.0)


class TestPrelimSums:
    def test_rational_cross_check(self):
        n, theta = 10, 2
        th = Fraction(theta)
        sum_p = sum(th / (th + j - 1) for j in range(1, n + 1))
        sum_p2 = sum((th / (th + j - 1)) ** 2 for j in range(1, n + 1))
        sum_q = n - sum_p
        sum_q2 = sum((Fraction(j - 1) / (th + j - 1)) ** 2 for j in range(1, n + 1))
        sums, reports = prelim_sums(EsfParams(n, float(theta)))
        assert math.isclose(sums.sum_p, float(sum_p), rel_tol=1e-13)
        assert math.isclose(sums.sum_p2, float(sum_p2), rel_tol=1e-13)
        assert math.isclose(sums.sum_q, float(sum_q), rel_tol=1e-13)
        assert math.isclose(sums.sum_q2, float(sum_q2), rel_tol=1e-13)
        assert all(r.satisfied for r in reports)

    @pytest.mark.parametrize("n", [2, 5, 17, 100])
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0, 10.0, 1e3, 1e6])
    def test_reports_satisfied_on_grid(self, n, theta):
        _, reports = prelim_sums(EsfParams(n, theta))
        for r in reports:
            assert r.satisfied, f"{r.name}: {r.detail}"

    def test_case_c_gap_needs_small_n(self):
        _, reports = prelim_sums(EsfParams(5, 100.0))
        assert any(r.name == "case_c_centering_gap" for r in reports)
        _, reports = prelim_sums(EsfParams(100, 2.0))
        assert all(r.name != "case_c_centering_gap" for r in reports)


class TestKnPoissonTv:
    def test_exact_tv_restated_from_laws(self):
        params = EsfParams(50, 2.0)
        r = kn_poisson_tv(params)
        pmf = kn_pmf(params)
        pois = Pmf.poisson(r.lam, tail_eps=1e-16)
        direct = tv_discrete(pmf, pois).value
        assert math.isclose(r.exact_tv.value, direct, rel_tol=1e-12)
        assert r.exact_tv.value <= r.upper_bound + 1e-12

    def test_frozen_values(self):
        r = kn_poisson_tv(EsfParams(50, 2.0))
        assert math.isclose(r.exact_tv.value, 0.10729572738262606, rel_tol=1e-10)
        assert math.isclose(r.upper_bound, 0.41776370872128826, rel_tol=1e-12)
        assert math.isclose(r.lam, 7.03762636293336, rel_tol=1e-13)

    def test_centering_variants(self):
        exact = kn_poisson_tv(EsfParams(100, 2.0), center="exact_mean")
        mu_a = kn_poisson_tv(EsfParams(100, 2.0), center="mu_A")
        assert exact.upper_bound <= mu_a.upper_bound + 1e-12
        with pytest.raises(ValueError):
            kn_poisson_tv(EsfParams(5, 100.0), center="mu_a")

    @pytest.mark.parametrize("n", [2, 10, 50])
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0, 10.0])
    def test_bound_dominates_exact_on_grid(self, n, theta):
        r = kn_poisson_tv(EsfParams(n, theta))
        assert r.exact_tv.value <= r.upper_bound + 1e-12


class TestNknPoissonTv:
    def test_lambda_is_sum_of_failure_means(self):
        n, theta = 10, 1.0
        r = nkn_poisson_tv(EsfParams(n, theta))
        lam = math.fsum(i / (theta + i) for i in range(n))
        assert math.isclose(r.lam, lam, rel_tol=1e-13)

    def test_frozen_values(self):
        r = nkn_poisson_tv(EsfParams(10, 1.0))
        assert math.isclose(r.exact_tv.value, 0.37743239447554155, rel_tol=1e-10)
        assert math.isclose(r.upper_bound, 73.33333333333333, rel_tol=1e-13)

    def test_exact_below_bound_when_informative(self):
        r = nkn_poisson_tv(EsfParams(10, 10000.0))
        assert r.exact_tv.value <= r.upper_bound + 1e-12


def _panjer_mpmath(theta, l, m, max_value):
    """P(T_lm = v) e^{theta(H_m - H_l)}, v = 0..max_value, by Panjer's recursion.

    v Q(v) = theta sum_{j=l+1}^{min(v,m)} Q(v-j) with the window taken as a
    difference of prefix sums, at the working precision of mpmath.
    """
    q = [mpmath.mpf(1)] + [mpmath.mpf(0)] * max_value
    prefix = q[:]
    for v in range(1, max_value + 1):
        window = prefix[v - l - 1] if v > l else 0
        if v > m:
            window -= prefix[v - m - 1]
        q[v] = theta * window / v
        prefix[v] = prefix[v - 1] + q[v]
    return q


def db_mpmath(n, theta, b):
    """d_b(n) = 1 - sum_a min(P(T_0b = a), P(T_0b = a) P(T_bn = n-a)/P(T_0n = n)).

    The terms a > n contribute P(T_0b = a) each, which the leading 1 counts.
    """
    with mpmath.workdps(40):
        th = mpmath.mpf(theta)
        q0b = _panjer_mpmath(th, 0, b, n)
        qbn = _panjer_mpmath(th, b, n, n)
        q0n = mpmath.fsum(q0b[a] * qbn[n - a] for a in range(n + 1))
        z0b = mpmath.exp(th * mpmath.fsum(mpmath.mpf(1) / j for j in range(1, b + 1)))
        kept = mpmath.fsum(min(q0b[a] / z0b, q0b[a] * qbn[n - a] / q0n) for a in range(n + 1))
        return float(1 - kept)


class TestDbExact:
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 10])
    def test_matches_bruteforce_on_full_grid(self, n, theta):
        params = EsfParams(n, theta)
        for b in range(1, n):
            exact = db_exact(params, b)
            brute = db_bruteforce(params, b)
            assert abs(exact.value - brute) < 1e-12
            assert exact.slack == 0.0

    def test_frozen_values(self):
        assert math.isclose(db_exact(EsfParams(2, 1.0), 1).value, 0.4481808382428366, rel_tol=1e-13)
        assert math.isclose(db_exact(EsfParams(10, 0.5), 3).value, 0.04942097917231616, rel_tol=1e-12)

    def test_in_unit_interval_at_larger_n(self):
        v = db_exact(EsfParams(500, 2.0), 5).value
        assert 0.0 < v < 1.0

    @pytest.mark.parametrize(
        "n,theta,b", [(1122, 0.919865, 3), (1612, 1.05706, 9), (1533, 0.765212, 4)]
    )
    def test_matches_high_precision_recursion(self, n, theta, b):
        assert math.isclose(db_exact(EsfParams(n, theta), b).value, db_mpmath(n, theta, b), rel_tol=1e-10)

    @pytest.mark.parametrize("n,theta,b", [(10**5, 2.0, 5), (10**5, 0.5, 3), (10**4, 1e3, 3)])
    def test_window_matches_full_a_sum(self, n, theta, b):
        # the a-sum over all of 0..n, with the same normaliser
        t0b = tlm_pmf(theta, 0, b, n)
        ratio = np.exp(conditioning_log_ratio(theta, b, n) + theta * harmonic_number(b))
        full = float(t0b.probs @ np.clip(1.0 - ratio, 0.0, None)) + t0b.tail_mass
        got = db_exact(EsfParams(n, theta), b)
        assert math.isclose(got.value, full, rel_tol=1e-12)
        # the window stops short of n, and its certified remainder is the slack
        assert 0.0 < got.slack <= 1e-300

    @pytest.mark.parametrize("n,theta,b", [(1000, 1e8, 3), (1000, 1e6, 5)])
    def test_window_past_the_caps_is_cut_to_n(self, n, theta, b):
        # the T_0b window exceeds n here, so the a-sum runs over 0..n as before
        got = db_exact(EsfParams(n, theta), b)
        assert 0.0 < got.value <= 1.0 and got.slack == 0.0


class TestEAbsT0b:
    def test_hand_worked_value(self):
        # E|T_01 - theta| at theta=2: T ~ Poisson(2), E|T-2| = 8 e^{-2}/2! ... =
        # 2 sum_{k<=2} (2-k) p_k = 2(2 p_0 + p_1) ... = 8 e^{-2}
        assert abs(e_abs_t0b(2.0, 1) - 8 * math.exp(-2)) < 1e-10

    def test_poisson_folded_mean_oracle(self):
        # direct summation oracle for theta=1.5, b=1
        lam = 1.5
        terms = []
        p = math.exp(-lam)
        for k in range(200):
            terms.append(abs(k - lam) * p)
            p *= lam / (k + 1)
        assert math.isclose(e_abs_t0b(1.5, 1), math.fsum(terms), rel_tol=1e-12)

    def test_tiny_theta_keeps_every_single_jump(self):
        # T_03 = j with probability about theta/j for j = 1, 2, 3, so
        # E|T_03 - 3 theta| = 3 theta + 3 theta up to O(theta^2)
        assert math.isclose(e_abs_t0b(1e-300, 3), 6e-300, rel_tol=1e-12)
        # and every single jump j <= b past 20: E|T_0,50 - 50 theta| = 100 theta
        assert math.isclose(e_abs_t0b(1e-300, 50), 1e-298, rel_tol=1e-12)

    def test_weighted_two_component_oracle(self):
        # b=2: T = Z_1 + 2 Z_2 with means theta and theta/2
        theta = 1.0
        mean = theta * 2
        direct = 0.0
        for z1 in range(80):
            p1 = math.exp(-theta) * theta**z1 / math.factorial(z1)
            for z2 in range(60):
                p2 = math.exp(-theta / 2) * (theta / 2) ** z2 / math.factorial(z2)
                direct += abs(z1 + 2 * z2 - mean) * p1 * p2
        assert math.isclose(e_abs_t0b(theta, 2), direct, rel_tol=1e-10)


class TestDbLeadingTerm:
    def test_formula_restated(self):
        params = EsfParams(100, 2.0)
        expected = (2.0 - 1.0) / (2 * 100) * e_abs_t0b(2.0, 1)
        assert math.isclose(db_leading_term(params, 1), expected, rel_tol=1e-13)
        assert math.isclose(db_leading_term(params, 1), 0.005413411329464506, rel_tol=1e-12)

    def test_needs_theta_at_least_one(self):
        with pytest.raises(ValueError):
            db_leading_term(EsfParams(100, 0.5), 1)

    def test_ratio_approaches_one(self):
        # db_exact / leading term tends to 1; by n = 1000 it is within 0.2%
        params = EsfParams(1000, 2.0)
        ratio = db_exact(params, 1).value / db_leading_term(params, 1)
        assert abs(ratio - 1) < 2e-3


class TestMakeReport:
    def test_non_finite_value_is_not_satisfied(self):
        assert not make_report("x", -math.inf, lower=0.0).satisfied
        assert not make_report("x", math.nan, upper=1.0).satisfied
        assert make_report("x", math.inf).satisfied


class TestDbwBounds:
    def expected_names(self, with_wb1):
        names = ["db_tv_upper", "dbw_upper"]
        if with_wb1:
            names += ["dbw_lower_wb1", "dbw_upper_wb1"]
        return names + ["dnw_budget", "dbw_rate", "db_lower_order"]

    def test_report_names_and_frozen_values(self):
        reports = {r.name: r for r in dbw_bounds(EsfParams(50, 5.0), 10)}
        assert list(reports) == self.expected_names(with_wb1=True)
        assert math.isclose(reports["db_tv_upper"].value, 5.555555555555555, rel_tol=1e-13)
        assert math.isclose(reports["dbw_upper"].value, 6.565656565656566, rel_tol=1e-13)
        assert math.isclose(reports["dbw_lower_wb1"].value, 2.9492455418381343, rel_tol=1e-13)
        assert math.isclose(reports["dbw_upper_wb1"].value, 5.454545454545454, rel_tol=1e-13)
        assert math.isclose(reports["dnw_budget"].value, 23.76104579100767, rel_tol=1e-12)

    def test_exact_rational_upper(self):
        # dbw_upper = b theta / (theta + n - b) * (theta + n/(theta+n)):
        # at (50, 5, 10) this is 650/99
        reports = {r.name: r for r in dbw_bounds(EsfParams(50, 5.0), 10)}
        assert math.isclose(reports["dbw_upper"].value, float(Fraction(650, 99)), rel_tol=1e-14)

    def test_wb1_refused_below_theta_one(self):
        names = [r.name for r in dbw_bounds(EsfParams(50, 0.5), 10)]
        assert "dbw_lower_wb1" not in names

    def test_lower_below_upper(self):
        reports = {r.name: r for r in dbw_bounds(EsfParams(10000, 2.0), 1)}
        assert reports["dbw_lower_wb1"].value <= reports["dbw_upper_wb1"].value
        assert reports["db_tv_upper"].value <= reports["dbw_upper"].value + 1e-15


class TestDbwMc:
    def test_deterministic_and_unbiased_at_tiny_n(self):
        params = EsfParams(300, 2.0)
        a = dbw_mc(params, 1, 500, RngState(1000))
        b = dbw_mc(params, 1, 500, RngState(1000))
        assert a.estimate == b.estimate
        assert a.se == b.se
        assert a.se > 0.0
        assert a.bias_bound <= 1e-4

    @staticmethod
    def _reference_loop(params, b, count, rng):
        # `sample_feller` draws in order from the one generator of `rng`;
        # returns the (replicates, estimate, se, bias_bound) of each prefix
        gen = rng.generator()
        draws = [sample_feller(params, gen, b_max=b) for _ in range(count)]
        x = np.array([np.abs(s.c_n.prefix(b) - s.c_inf).sum() for s in draws])

        def stats(m):
            mean = int(x[:m].sum()) / m
            var = (int((x[:m] * x[:m]).sum()) - m * mean * mean) / (m - 1)
            return (m, mean, math.sqrt(var / m), draws[m - 1].residual)

        return stats

    def test_matches_a_loop_over_substreams(self):
        # each named sibling stream substream(k) is one stream of its own:
        # dbw_mc on it equals the reference loop over its generator
        params, b, m, rng = EsfParams(250, 3.0), 3, 300, RngState(45)
        seen = set()
        for k in (0, 7):
            want = self._reference_loop(params, b, m, rng.substream(k))(m)
            est = dbw_mc(params, b, m, rng.substream(k))
            assert (est.replicates, est.estimate, est.se, est.bias_bound) == want
            seen.add(est.estimate)
        assert len(seen) == 2

    def test_prefix_property_of_substreams(self):
        # one reference loop of 800 draws: a run of 400 replicates is exactly
        # its first 400, and a run of 800 the whole of it
        params, b, rng = EsfParams(250, 3.0), 3, RngState(45)
        for sub in (rng, rng.substream(3)):
            stats = self._reference_loop(params, b, 800, sub)
            short, long = dbw_mc(params, b, 400, sub), dbw_mc(params, b, 800, sub)
            assert (short.replicates, short.estimate, short.se, short.bias_bound) == stats(400)
            assert (long.replicates, long.estimate, long.se, long.bias_bound) == stats(800)

    def test_estimate_within_bracket(self):
        # (n, theta, b) = (10000, 2, 1): closed-form bracket plus 4 SE slack
        params = EsfParams(10000, 2.0)
        reports = {r.name: r for r in dbw_bounds(params, 1)}
        est = dbw_mc(params, 1, 20000, RngState(2024))
        lo = reports["dbw_lower_wb1"].value - 4 * est.se - est.bias_bound
        hi = reports["dbw_upper_wb1"].value + 4 * est.se + est.bias_bound
        assert lo <= est.estimate <= hi

    def test_minimum_replicates_enforced(self):
        with pytest.raises(ValueError):
            dbw_mc(EsfParams(100, 1.0), 1, 50, RngState(1))


class TestLdTail:
    def test_frozen_values(self):
        r = ld_tail_bound(1.0, 1, 5.0)
        assert math.isclose(r.bound_log, -3.0471895621705025, rel_tol=1e-13)
        assert math.isclose(r.exact_log, -5.610333982897155, rel_tol=1e-12)

    def test_bound_formula_restated(self):
        # log bound = w log(theta e / w)
        for theta, w in [(1.0, 5.0), (2.0, 9.5), (0.5, 3.0)]:
            r = ld_tail_bound(theta, 1, w)
            assert math.isclose(r.bound_log, w * math.log(theta * math.e / w), rel_tol=1e-13)

    def test_exact_tail_oracle(self):
        # P(Z >= 5) for Z ~ Poisson(1) by direct summation
        direct = 1.0 - math.fsum(math.exp(-1) / math.factorial(k) for k in range(5))
        assert math.isclose(math.exp(ld_tail_bound(1.0, 1, 5.0).exact_log), direct, rel_tol=1e-12)

    def test_bound_dominates_exact(self):
        for theta in (0.5, 1.0, 3.0):
            for w in (4.0, 8.0, 16.0):
                r = ld_tail_bound(theta, 2, w)
                assert r.exact_log <= r.bound_log + 1e-12

    def test_window_bound_dominates_exact_tail(self):
        # the T_0b window keeps the factor e^{-theta} that the paper's bound
        # drops: log P(T_0b >= b w) <= w log(theta e / w) - theta, w >= theta
        for theta in (0.5, 1.0, 2.0, 5.0, 20.0):
            for b in (1, 2, 5):
                lp = tlm_logpmf(theta, 0, b, int(8 * theta * b) + 200)
                for w in theta * np.array([1.0, 1.5, 2.0, 4.0, 8.0]):
                    tail = float(logsumexp(lp[math.ceil(b * w) :]))
                    assert tail <= _ld_rate(theta, w) - theta, (theta, b, w)

    def test_window_near_the_mean_at_large_theta_b(self):
        # the 1e-16 quantile is about theta b + 8.6 b sqrt(theta), where the
        # paper's bound would need e theta b = 815,485
        assert _t0b_window(1e4, 30, math.log(1e-16)) == 326_119

    def test_window_matches_a_wider_window(self):
        # the window reaches a0 + 1 or the quantile, and 2 a0 + 20 only where
        # the remainder past it is not below 1e-16 of the mass inside
        grid = [(th, b, w) for th in (0.5, 1.0, 2.0, 5.0, 10.0) for b in (1, 2, 3)
                for w in (2.0, 4.0, 8.0, 16.0, 32.0)]
        for theta, b, w in grid + [(100.0, 1, 250.0), (100.0, 2, 240.0), (50.0, 1, 120.0)]:
            a0 = math.ceil(b * w - 1e-9)
            wide = float(logsumexp(tlm_logpmf(theta, 0, b, 6 * a0 + 600)[a0:]))
            exact = ld_tail_bound(theta, b, w).exact_log
            assert math.isclose(exact, wide, rel_tol=1e-12), (theta, b, w)

    def test_tail_at_the_mean_is_served(self):
        # P(T_0b >= theta b) at theta = 1e5, b = 10 needs a window of about
        # 1.03e6 values; a cut at 2 a0 + 20 = 2,000,020 was past the cap
        r = ld_tail_bound(1e5, 10, 1e5)
        assert math.isclose(math.exp(r.exact_log), 0.5, abs_tol=0.01)
        assert r.exact_log <= r.bound_log


class TestAppendixChecks:
    def test_all_satisfied(self):
        reports = appendix_checks()
        assert reports, "empty report list"
        for r in reports:
            assert r.satisfied, f"{r.name}: {r.detail}"

    def test_names_cover_all_four_families(self):
        names = [r.name for r in appendix_checks()]
        for prefix in ("a1_residual", "a2_partial_sum", "a3_monotone", "jn_switch"):
            assert any(n.startswith(prefix) for n in names), prefix
