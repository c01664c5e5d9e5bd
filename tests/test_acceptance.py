"""Acceptance suite: eight criteria, one test and one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines as
they are produced. Criterion 6 asserts its stated tolerances even though the
finite-size deviations at n = 10^6 exceed them (discreteness of a path with
about theta log n jumps decays like 1/sqrt(log n)); it is expected to fail
on the sup-law and L2-law comparisons and to pass the endpoint pin. All
other criteria pass.
"""

import math
import time

import numpy as np

from ewens import distances, laws, paths, regimes, sampling
from ewens.bruteforce import db_bruteforce, joint_prefix_law
from ewens.laws import EsfParams, Partition, esf_pmf, partitions_of, singleton_pmf
from ewens.sampling import RngState
from ewens.special import kolmogorov_cdf, normal_cdf


def verdict(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    return line


def test_criterion_1_exact_distance_against_enumeration():
    t0 = time.monotonic()
    worst_db = 0.0
    worst_cond = 0.0
    worst_single = 0.0
    for n in range(2, 11):
        for theta in (0.5, 1.0, 2.0, 5.0):
            params = EsfParams(n, theta)
            for b in range(1, n):
                gap = abs(distances.db_exact(params, b).value - db_bruteforce(params, b))
                worst_db = max(worst_db, gap)
                law = joint_prefix_law(params, b)
                for key, p in law.items():
                    got = laws.conditioned_joint_prob(params, b, key)
                    worst_cond = max(worst_cond, abs(got - p))
            pmf = singleton_pmf(params)
            direct = np.zeros(n + 1)
            for counts in partitions_of(n):
                direct[counts[0]] += esf_pmf(params, Partition(counts))
            worst_single = max(worst_single, float(np.abs(pmf.probs - direct).max()))
    elapsed = time.monotonic() - t0
    ok = worst_db < 1e-8 and worst_cond < 1e-10 and worst_single < 1e-9 and elapsed < 60
    verdict(
        1,
        ok,
        f"db gap {worst_db:.2e} < 1e-8, conditioned gap {worst_cond:.2e} < 1e-10, "
        f"singleton gap {worst_single:.2e} < 1e-9, {elapsed:.0f}s < 60s",
    )
    assert worst_db < 1e-8
    assert worst_cond < 1e-10
    assert worst_single < 1e-9
    assert elapsed < 60


def test_criterion_2_moment_sums_and_bound_sandwiches():
    t0 = time.monotonic()
    failures = []

    for n in range(2, 101):
        for theta in (0.5, 1.0, 2.0, 10.0, 1e3, 1e6):
            _, reports = distances.prelim_sums(EsfParams(n, theta))
            for r in reports:
                if not r.satisfied:
                    failures.append(f"prelim {r.name} at n={n} theta={theta}")

    for n in (2, 5, 10, 50, 100):
        for theta in (0.5, 1.0, 2.0, 10.0):
            params = EsfParams(n, theta)
            ps = [theta / (theta + i) for i in range(n)]
            lo, up = distances.bh_bounds(ps)
            tv = distances.kn_poisson_tv(params, "exact_mean").exact_tv.value
            if not lo - 1e-12 <= tv <= up + 1e-12:
                failures.append(f"BH block-count at n={n} theta={theta}")
            qs = [i / (theta + i) for i in range(n)]
            lo2, up2 = distances.bh_bounds(qs)
            tv2 = distances.nkn_poisson_tv(params).exact_tv.value
            if not lo2 - 1e-12 <= tv2 <= up2 + 1e-12:
                failures.append(f"BH complement at n={n} theta={theta}")

    mc_summary = []
    for idx, (theta, b) in enumerate([(2.0, 1), (2.0, 5), (10.0, 1), (10.0, 5)]):
        params = EsfParams(10**4, theta)
        reports = {r.name: r for r in distances.dbw_bounds(params, b)}
        est = distances.dbw_mc(params, b, 30000, RngState(20240 + idx))
        lo = reports["dbw_lower_wb1"].value - 4 * est.se - est.bias_bound
        hi = reports["dbw_upper_wb1"].value + 4 * est.se + est.bias_bound
        mc_summary.append(f"theta={theta:g},b={b}: {est.estimate:.3g} in ({lo:.3g},{hi:.3g})")
        if not lo <= est.estimate <= hi:
            failures.append(f"wb1 bracket at theta={theta} b={b}")

    ld_points = 0
    for theta in (0.5, 1.0, 2.0, 5.0, 10.0):
        for b in (1, 2):
            for w in (4.0, 8.0):
                r = distances.ld_tail_bound(theta, b, w)
                ld_points += 1
                if r.exact_log > r.bound_log + 1e-12:
                    failures.append(f"LD at theta={theta} b={b} w={w}")

    elapsed = time.monotonic() - t0
    ok = not failures and ld_points == 20 and elapsed < 300
    verdict(
        2,
        ok,
        f"prelim grid clean, BH sandwiches hold, wb1 [{'; '.join(mc_summary)}], "
        f"{ld_points}-point LD grid dominated, {elapsed:.0f}s < 300s",
    )
    assert not failures, failures
    assert ld_points == 20
    assert elapsed < 300


def test_criterion_3_leading_term_ratio():
    t0 = time.monotonic()
    theta, b = 2.0, 1
    e_abs = distances.e_abs_t0b(theta, b)
    e_abs_gap = abs(e_abs - 8 * math.exp(-2))

    ratios = []
    for n in (10**2, 10**3, 10**4):
        params = EsfParams(n, theta)
        ratio = distances.db_exact(params, b).value / distances.db_leading_term(params, b)
        ratios.append(ratio)
    gaps = [abs(r - 1) for r in ratios]
    elapsed = time.monotonic() - t0
    ok = (
        e_abs_gap < 1e-10
        and 0.8 <= ratios[-1] <= 1.2
        and gaps[0] > gaps[1] > gaps[2]
        and elapsed < 300
    )
    verdict(
        3,
        ok,
        f"E|T-2| off by {e_abs_gap:.1e} < 1e-10, ratio(1e4)={ratios[-1]:.8f} in [0.8,1.2], "
        f"|ratio-1| strictly decreasing {[f'{g:.2e}' for g in gaps]}, {elapsed:.0f}s < 300s",
    )
    assert e_abs_gap < 1e-10
    assert 0.8 <= ratios[-1] <= 1.2
    assert gaps[0] > gaps[1] > gaps[2]
    assert elapsed < 300


def test_criterion_4_growth_regime_laws():
    t0 = time.monotonic()

    z_a = regimes.zn_mc_distribution(regimes.GrowthRule(1.0, 0.5), 10**6, 10**4, RngState(4242))
    ks_a = paths.ks_distance(z_a, normal_cdf)

    rule_c2 = regimes.GrowthRule(0.5, 2.0)
    case_c2 = regimes.classify(rule_c2)
    z_c2 = regimes.zn_mc_distribution(rule_c2, 10**3, 10**5, RngState(123))
    tv_c2 = regimes.standardized_lattice_tv(z_c2, case_c2.c)

    params_c3 = EsfParams(100, regimes.GrowthRule(10.0, 3.0).theta_at(100))
    root = RngState(124)
    hits = sum(
        1 for i in range(10**4) if sampling.sample_kn(params_c3, root.substream(i)) == 100
    )
    frac_c3 = hits / 10**4

    elapsed = time.monotonic() - t0
    ok = ks_a < 0.03 and tv_c2 < 0.02 and frac_c3 > 0.99 and elapsed < 600
    verdict(
        4,
        ok,
        f"normal KS={ks_a:.4f} < 0.03 at (1e6,1e3,M=1e4), lattice TV={tv_c2:.4f} < 0.02 at "
        f"(1e3,5e5,M=1e5), full-split fraction {frac_c3:.4f} > 0.99 at (1e2,1e7,M=1e4), "
        f"{elapsed:.0f}s < 600s",
    )
    assert ks_a < 0.03
    assert tv_c2 < 0.02
    assert frac_c3 > 0.99
    assert elapsed < 600


def test_criterion_5_threshold_window_structure():
    t0 = time.monotonic()
    params = EsfParams(10**3, 5e5)
    m = 10**5
    root = RngState(125)
    c2_counts = np.zeros(m, dtype=np.int64)
    heavy_tail = np.zeros(m, dtype=np.int64)
    for i in range(m):
        drawn = sampling.sample_feller(params, root.substream(i), b_max=0)
        c2_counts[i] = drawn.c_n.counts[1]
        heavy_tail[i] = int(drawn.c_n.counts[2:].sum())

    freq = np.bincount(c2_counts, minlength=c2_counts.max() + 1) / m
    empirical = laws.Pmf(0, freq)
    tv = distances.tv_discrete(empirical, laws.Pmf.poisson(1.0)).value
    heavy_mean = float(heavy_tail.mean())

    report = regimes.c2_predictions(EsfParams(100, 5000.0))
    singleton_gap = abs(report.p_singleton_exact - report.p_singleton_approx)

    elapsed = time.monotonic() - t0
    ok = tv < 0.02 and heavy_mean < 0.01 and singleton_gap < 0.05 and elapsed < 300
    verdict(
        5,
        ok,
        f"TV(C_2, Poisson(1))={tv:.4f} < 0.02, mean heavy count {heavy_mean:.4f} < 0.01, "
        f"singleton approx gap {singleton_gap:.4f} < 0.05, {elapsed:.0f}s < 300s",
    )
    assert tv < 0.02
    assert heavy_mean < 0.01
    assert singleton_gap < 0.05
    assert elapsed < 300


def test_criterion_6_path_functionals_at_scale():
    t0 = time.monotonic()
    n, theta, m = 10**6, 1.0, 2000
    params = EsfParams(n, theta)
    eps = paths.DEFAULT_EPS
    root = RngState(sampling.DEFAULT_SEED)

    sup_x4 = np.empty(m)
    l2_x5 = np.empty(m)
    endpoint_ok = True
    for i in range(m):
        s = sampling.sample_feller(params, root.substream(i), b_max=0)
        path = paths.build_path(s.c_n)
        sup_x4[i] = paths.functional_stat(path, theta, "X4", eps)[0]
        l2_x5[i] = paths.functional_stat(path, theta, "X5", eps)[1]
        if paths.process_value(path, theta, "X4", 1.0, eps) != 0.0:
            endpoint_ok = False

    ks_sup = paths.ks_distance(sup_x4, kolmogorov_cdf)

    ref = paths.reference_functionals(
        "X5", "l2", eps / math.log(n), 1 << 12, 10**4, root.substream(2**32)
    )
    ks_l2 = paths.ks_distance(l2_x5, ref.values)

    elapsed = time.monotonic() - t0
    ok = ks_sup < 0.05 and endpoint_ok and ks_l2 < 0.07 and elapsed < 900
    verdict(
        6,
        ok,
        f"bridge-sup KS={ks_sup:.4f} vs 0.05, endpoint pinned: {endpoint_ok}, "
        f"weighted-L2 KS={ks_l2:.4f} vs 0.07, {elapsed:.0f}s < 900s",
    )
    assert endpoint_ok
    assert elapsed < 900
    assert ks_sup < 0.05
    assert ks_l2 < 0.07


def test_criterion_7_appendix_inequalities():
    t0 = time.monotonic()
    reports = distances.appendix_checks()
    bad = [r.name for r in reports if not r.satisfied]
    a1 = [r for r in reports if r.name.startswith("a1_residual")]
    a1_max = max(r.value for r in a1)
    elapsed = time.monotonic() - t0
    ok = not bad and a1_max <= 0.5 and elapsed < 60
    verdict(
        7,
        ok,
        f"{len(reports)} inequality reports satisfied, normalized residuals bounded by "
        f"{a1_max:.3f} <= 0.5, {elapsed:.0f}s < 60s",
    )
    assert not bad, bad
    assert a1_max <= 0.5
    assert elapsed < 60


def test_criterion_8_seeded_determinism():
    t0 = time.monotonic()
    pieces = []

    a = distances.dbw_mc(EsfParams(500, 2.0), 2, 500, RngState(20240))
    b = distances.dbw_mc(EsfParams(500, 2.0), 2, 500, RngState(20240))
    pieces.append(("wasserstein mc", a == b))

    za = regimes.zn_mc_distribution(regimes.GrowthRule(1.0, 0.5), 2000, 1000, RngState(4242))
    zb = regimes.zn_mc_distribution(regimes.GrowthRule(1.0, 0.5), 2000, 1000, RngState(4242))
    zc = regimes.zn_mc_distribution(regimes.GrowthRule(1.0, 0.5), 2000, 1500, RngState(4242))
    pieces.append(("block-count mc", np.array_equal(za, zb)))
    pieces.append(("block-count mc prefix", np.array_equal(zc[:1000], za)))

    fa = paths.mc_functionals(EsfParams(2000, 1.0), "X4", "sup", 0.01, 1000, RngState(125))
    fb = paths.mc_functionals(EsfParams(2000, 1.0), "X4", "sup", 0.01, 1000, RngState(125))
    pieces.append(("path functional mc", np.array_equal(fa.values, fb.values)))

    ra = paths.reference_functionals("X5", "l2", 0.001, 1 << 10, 300, RngState(9))
    rb = paths.reference_functionals("X5", "l2", 0.001, 1 << 10, 300, RngState(9))
    pieces.append(("brownian reference", np.array_equal(ra.values, rb.values)))

    for name, sampler in (("feller", sampling.sample_feller), ("crp", sampling.sample_crp)):
        d1 = sampler(EsfParams(300, 1.5), RngState(31))
        d2 = sampler(EsfParams(300, 1.5), RngState(31))
        p1 = d1.c_n if hasattr(d1, "c_n") else d1
        p2 = d2.c_n if hasattr(d2, "c_n") else d2
        pieces.append((f"{name} sampler", np.array_equal(p1.counts, p2.counts)))
    ks = [sampling.sample_kn(EsfParams(10**4, 2.0), RngState(7).substream(i)) for i in range(20)]
    ks2 = [sampling.sample_kn(EsfParams(10**4, 2.0), RngState(7).substream(i)) for i in range(20)]
    pieces.append(("block-count sampler", ks == ks2))

    elapsed = time.monotonic() - t0
    bad = [name for name, good in pieces if not good]
    ok = not bad
    verdict(
        8,
        ok,
        f"{len(pieces)} seeded routines byte-identical on rerun "
        f"(substream prefixes included), {elapsed:.0f}s",
    )
    assert not bad, bad
