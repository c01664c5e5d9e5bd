"""Growth-regime tests: classification, standardization, and limit laws.

Closed forms are restated inline as oracles; the full-singleton probability
is cross-checked with an exact rational product, and the Monte Carlo layers
are pinned by seed against their limiting distributions.
"""

import collections
import math
import types
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr

import ewens.regimes
from ewens.checks import run_checks
from ewens.cli import main
from ewens.distances import dbw_mc
from ewens.laws import EsfParams, Pmf, kn_pmf, singleton_pmf
from ewens.paths import ks_distance
from ewens.regimes import (
    C2Report,
    GrowthRule,
    RegimeCase,
    c2_predictions,
    classify,
    limit_law,
    lln_constant,
    singleton_full_prob,
    standardize,
    standardized_lattice_tv,
    zn_mc_distribution,
)
from ewens.sampling import RngState


class TestClassify:
    @pytest.mark.parametrize(
        "coeff,exponent,label",
        [
            (1.0, 0.0, "A"),
            (3.0, 0.5, "A"),
            (2.0, 0.99, "A"),
            (1.0, 1.0, "B"),
            (0.25, 1.0, "B"),
            (1.0, 1.5, "C1"),
            (5.0, 1.01, "C1"),
            (0.5, 2.0, "C2"),
            (1.0, 2.0, "C2"),
            (1.0, 2.5, "C3"),
            (10.0, 3.0, "C3"),
        ],
    )
    def test_labels(self, coeff, exponent, label):
        assert classify(GrowthRule(coeff, exponent)).label == label

    def test_limit_ratio_constants(self):
        # Case B: c = lim n/theta(n) = 1/coeff; same for C2.
        assert classify(GrowthRule(0.25, 1.0)).c == 4.0
        assert classify(GrowthRule(0.5, 2.0)).c == 2.0
        assert classify(GrowthRule(1.0, 0.5)).c is None

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            GrowthRule(-1.0, 1.0)
        with pytest.raises(ValueError):
            GrowthRule(1.0, -0.5)

    def test_theta_at(self):
        assert math.isclose(GrowthRule(2.0, 0.5).theta_at(100), 20.0, rel_tol=1e-14)
        assert math.isclose(GrowthRule(0.5, 2.0).theta_at(10), 50.0, rel_tol=1e-14)

    def test_case_requires_c_exactly_when_b_or_c2(self):
        with pytest.raises(ValueError):
            RegimeCase("B")
        with pytest.raises(ValueError):
            RegimeCase("A", c=1.0)
        RegimeCase("C2", c=3.0)


class TestLlnConstant:
    def test_case_b_value(self):
        # K_n / log n -> log(1 + c)/c with c = lim n/theta
        case = classify(GrowthRule(1.0, 1.0))
        assert math.isclose(lln_constant(case), math.log(2.0), rel_tol=1e-14)
        case4 = classify(GrowthRule(0.25, 1.0))
        assert math.isclose(lln_constant(case4), math.log1p(4.0) / 4.0, rel_tol=1e-14)

    def test_other_cases_are_one(self):
        for rule in (GrowthRule(1.0, 0.5), GrowthRule(1.0, 1.5), GrowthRule(1.0, 3.0)):
            assert lln_constant(classify(rule)) == 1.0


class TestStandardize:
    def test_hand_worked_n2_theta1(self):
        s = standardize(EsfParams(2, 1.0))
        assert math.isclose(s.mu, math.log1p(2.0), rel_tol=1e-14)
        assert math.isclose(s.sigma2, math.log(3.0) - 2.0 / 3.0, rel_tol=1e-13)

    def test_formula_restated(self):
        n, theta = 1000, 7.5
        s = standardize(EsfParams(n, theta))
        assert math.isclose(s.mu, theta * math.log1p(n / theta), rel_tol=1e-14)
        assert math.isclose(
            s.sigma2, theta * (math.log1p(n / theta) - n / (n + theta)), rel_tol=1e-13
        )

    def test_z_transform(self):
        s = standardize(EsfParams(100, 2.0))
        assert math.isclose(s.z(s.mu), 0.0, abs_tol=1e-14)
        assert math.isclose(s.z(s.mu + math.sqrt(s.sigma2)), 1.0, rel_tol=1e-12)

    def test_tracks_exact_variance_within_additive_gap(self):
        # Var K_n differs from sigma2 by less than 1 + n/(n+theta)
        from ewens.laws import kn_mean_var

        for n, theta in [(100, 1.0), (1000, 50.0), (50, 0.5)]:
            _, var = kn_mean_var(EsfParams(n, theta))
            s = standardize(EsfParams(n, theta))
            assert abs(var - s.sigma2) <= 1.0 + n / (n + theta) + 1e-12

    def test_needs_n_at_least_two(self):
        with pytest.raises(ValueError):
            standardize(EsfParams(1, 1.0))


class TestLimitLaw:
    def test_gaussian_cases(self):
        for rule in (GrowthRule(1.0, 0.5), GrowthRule(1.0, 1.0), GrowthRule(1.0, 1.5)):
            law = limit_law(classify(rule))
            assert law.kind == "normal"
            assert math.isclose(law.cdf(0.0), 0.5, rel_tol=1e-14)

    def test_degenerate_case(self):
        law = limit_law(classify(GrowthRule(1.0, 3.0)))
        assert law.kind == "point_mass"
        assert law.cdf(-0.1) == 0.0
        assert law.cdf(0.0) == 1.0

    def test_lattice_case_atoms_and_weights(self):
        # c = 2: atoms (1 - k)/1 with Poisson(1) weights
        law = limit_law(classify(GrowthRule(0.5, 2.0)))
        assert law.kind == "c2_lattice"
        np.testing.assert_allclose(law.atoms[:3], [1.0, 0.0, -1.0], atol=1e-14)
        for k in range(6):
            assert math.isclose(law.weights[k], math.exp(-1.0) / math.factorial(k), rel_tol=1e-12)
        assert math.isclose(math.fsum(law.weights), 1.0, abs_tol=1e-12)

    def test_lattice_cdf_steps(self):
        law = limit_law(RegimeCase("C2", c=2.0))
        # mass at or below 0.8 is the k=0 and k=1 atoms ... (1-k) <= 0.8 iff k >= 1
        expected = 1.0 - math.exp(-1.0)
        assert math.isclose(law.cdf(0.8), expected, rel_tol=1e-12)
        assert law.cdf(99.0) == pytest.approx(1.0, abs=1e-12)

    def test_normal_cdf_keeps_relative_accuracy_in_the_far_tail(self):
        # P(Z <= -9) is about 1.1e-19; a 1 + erf form cancels to 0 there
        law = limit_law(RegimeCase("A"))
        assert math.isclose(law.cdf(-9.0), float(mpmath.ncdf(-9)), rel_tol=1e-13)


class TestSingletonFull:
    def test_hand_worked_value(self):
        # theta^n / (theta)_n at n=2, theta=1: 1/2
        assert math.isclose(singleton_full_prob(EsfParams(2, 1.0)), 0.5, rel_tol=1e-14)

    def test_exact_rational_product(self):
        n, theta = 100, 5000
        expected = Fraction(1)
        for i in range(n):
            expected *= Fraction(theta, theta + i)
        got = singleton_full_prob(EsfParams(n, float(theta)))
        assert math.isclose(got, float(expected), rel_tol=1e-12)

    @pytest.mark.parametrize("n", [2, 30, 300, 1000, 10**4, 10**5])
    @pytest.mark.parametrize("theta", [1e-9, 0.5, 2.0, 1e3, 5e5, 1e9, 1e15])
    def test_matches_mpmath(self, n, theta):
        with mpmath.workdps(40):
            th = mpmath.mpf(theta)
            want = th**n / mpmath.rf(th, n)
        got = singleton_full_prob(EsfParams(n, theta))
        if want >= 1e-300:
            assert abs(got - want) <= 1e-12 * want, (got, float(want))
        else:
            assert got <= 1e-300

    @pytest.mark.parametrize("n,theta", [(5, 1.0), (30, 2.0), (300, 10.0)])
    def test_matches_singleton_pmf_endpoint(self, n, theta):
        params = EsfParams(n, theta)
        assert math.isclose(
            singleton_full_prob(params), singleton_pmf(params).prob(n), rel_tol=1e-10
        )


class TestC2Predictions:
    def test_frozen_and_formula(self):
        r = c2_predictions(EsfParams(100, 5000.0))
        assert isinstance(r, C2Report)
        assert math.isclose(r.p_singleton_exact, 0.37400071490033054, rel_tol=1e-12)
        # approximation e^{-n^2 / (2 theta)} = e^{-1}
        assert math.isclose(r.p_singleton_approx, math.exp(-1.0), rel_tol=1e-14)
        assert abs(r.p_singleton_exact - r.p_singleton_approx) < 0.05

    def test_cycle2_law_is_poisson_with_lattice_rate(self):
        r = c2_predictions(EsfParams(100, 5000.0))
        lam = 100 * 99 / (2 * 5000.0)  # ~ n^2 / (2 theta)
        assert math.isclose(r.cycle2_law.prob(0), math.exp(-lam), rel_tol=1e-2)


class TestZnMc:
    def test_deterministic(self):
        rule = GrowthRule(1.0, 0.5)
        a = zn_mc_distribution(rule, 2000, 1000, RngState(41))
        b = zn_mc_distribution(rule, 2000, 1000, RngState(41))
        assert np.array_equal(a, b)

    def test_matches_a_loop_over_one_stream(self):
        # the reference loop: replicate i is 1 + the number of cdf values at
        # or below double i of the state's own stream
        rule, n, rng = GrowthRule(2.0, 1.0), 300, RngState(43)
        params = EsfParams(n, rule.theta_at(n))
        std = standardize(params)
        cdf = np.cumsum(kn_pmf(params).probs)
        ref = []
        for u in rng.generator().random(1000):
            k = 1 + int(np.count_nonzero(cdf <= u))
            ref.append((k - std.mu) / math.sqrt(std.sigma2))
        assert np.array_equal(zn_mc_distribution(rule, n, 1000, rng), ref)

    def test_longer_run_extends_a_shorter_one(self):
        rule, rng = GrowthRule(1.0, 0.5), RngState(46)
        short = zn_mc_distribution(rule, 2000, 1000, rng)
        assert np.array_equal(zn_mc_distribution(rule, 2000, 2500, rng)[:1000], short)

    def test_reads_no_substream(self, monkeypatch, capsys):
        # a Monte Carlo loop reads its replicates in order from its state's
        # own stream, so its generator set-ups do not grow with m; the loops
        # that drew replicate i from substream(i) made one set-up a replicate
        calls = collections.Counter()
        for name in ("substream", "generator"):

            def counting(self, *args, _name=name, _method=getattr(RngState, name)):
                calls[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(RngState, name, counting)

        def setups(run, m):
            calls.clear()
            run(m)
            return dict(calls)

        loops = [
            (1000, lambda m: zn_mc_distribution(GrowthRule(1.0, 0.5), 2000, m, RngState(47))),
            (100, lambda m: dbw_mc(EsfParams(60, 2.0), 2, m, RngState(48))),
        ]
        for s in ("kn", "crp", "feller"):
            loops.append((1, lambda m, s=s: main(f"sample --sampler {s} --n 60 --theta 2 --m {m}".split())))
        for m, run in loops:
            assert setups(run, m) == setups(run, 3 * m) == {"generator": 1}
        capsys.readouterr()
        # the quick registry's loops hold a fixed m: 7 set-ups, where the
        # per-replicate loops made 74, 70 of them on substreams
        quick = setups(lambda _: run_checks(quick=True), 0)
        assert "substream" not in quick and quick["generator"] <= 10

    def test_draws_land_on_positive_mass_when_the_cdf_ends_below_one(self, monkeypatch):
        # a law with zero entries inside and at its end whose cumulative sum
        # stops 1e-12 short of 1, read at the cdf's steps and past its end
        law = Pmf(1, np.array([0.25, 0.0, 0.5, 0.25 - 1e-12, 0.0, 0.0]))
        monkeypatch.setattr(ewens.regimes, "kn_pmf", lambda params: law)
        uniforms = [0.0, 0.25, 0.5, 0.75, 1.0 - 1e-12, 1.0 - 2.0**-53] * 200

        class Uniforms:
            def generator(self):
                return types.SimpleNamespace(random=lambda count: np.array(uniforms[:count]))

        rule = GrowthRule(1.0, 0.5)
        std = standardize(EsfParams(6, rule.theta_at(6)))
        z = zn_mc_distribution(rule, 6, len(uniforms), Uniforms())
        want = np.array([1, 3, 3, 4, 4, 4] * 200)
        assert np.array_equal(z, (want - std.mu) / math.sqrt(std.sigma2))

    @pytest.mark.parametrize("n, theta", [(1000, 1e-9), (700, 1e9)])
    def test_every_draw_has_positive_mass(self, n, theta):
        # laws whose far entries underflow to 0.0
        rule = GrowthRule(theta, 0.0)
        params = EsfParams(n, theta)
        std = standardize(params)
        pmf = kn_pmf(params)
        k = np.rint(zn_mc_distribution(rule, n, 10**4, RngState(44)) * math.sqrt(std.sigma2) + std.mu)
        assert np.all(pmf.probs[k.astype(np.int64) - pmf.offset] > 0.0)

    def test_empirical_law_is_near_the_exact_law(self):
        rule, n, m = GrowthRule(0.5, 2.0), 400, 10**5
        params = EsfParams(n, rule.theta_at(n))
        std = standardize(params)
        z = zn_mc_distribution(rule, n, m, RngState(45))
        k = np.rint(z * math.sqrt(std.sigma2) + std.mu).astype(np.int64)
        emp = np.bincount(k - 1, minlength=n) / m
        assert 0.5 * float(np.abs(emp - kn_pmf(params).probs).sum()) < 0.01

    def test_case_a_mini_is_near_gaussian(self):
        z = zn_mc_distribution(GrowthRule(1.0, 0.5), 3000, 1500, RngState(321))
        assert ks_distance(z, ndtr) < 0.06

    def test_replicate_floor(self):
        with pytest.raises(ValueError):
            zn_mc_distribution(GrowthRule(1.0, 0.5), 100, 500, RngState(1))


class TestLatticeTv:
    def test_exact_atoms_have_small_tv(self):
        # synthesize draws exactly on the lattice with the limiting weights
        c = 2.0
        lam = c / 2
        ks = np.repeat(np.arange(6), [368, 368, 184, 61, 15, 4])
        z = (lam - ks) / math.sqrt(lam)
        tv = standardized_lattice_tv(z, c)
        assert tv < 0.01

    def test_off_lattice_mass_counts_fully(self):
        c = 2.0
        z = np.full(1000, 0.31)  # nowhere near any atom
        tv = standardized_lattice_tv(z, c)
        assert tv > 0.99

    def test_mc_draws_match_lattice_law(self):
        rule = GrowthRule(0.5, 2.0)
        case = classify(rule)
        z = zn_mc_distribution(rule, 400, 4000, RngState(322))
        assert standardized_lattice_tv(z, case.c) < 0.05
