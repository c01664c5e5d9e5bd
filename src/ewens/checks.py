"""Runtime self-check registry backing the `check` subcommand.

Each check re-verifies one invariant from the library's contracts: mass
normalization, dual-route agreement, sandwich containment, sampler
determinism, and the closed-form path functionals. `--quick` runs the
sub-second subset; the full run adds the Monte Carlo cross-validations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bruteforce, distances, laws, paths, regimes, sampling, special
from .laws import EsfParams

_PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _check_esf_mass() -> str:
    worst = 0.0
    for theta in (0.7, 1.0, 2.5):
        table = bruteforce.enumerate_esf(EsfParams(10, theta))
        total = math.fsum(pr for _, pr in table.entries)
        worst = max(worst, abs(total - 1.0))
    return f"max |mass - 1| = {worst:.2e}"


def _check_partition_counts() -> str:
    for n in range(1, 17):
        got = sum(1 for _ in laws.partitions_of(n))
        if got != _PARTITION_COUNTS[n]:
            raise AssertionError(f"p({n}) = {got}, expected {_PARTITION_COUNTS[n]}")
    return "p(n) matches for n <= 16"


def _check_kn_methods() -> str:
    worst = 0.0
    for n in (5, 30, 120):
        for theta in (1e-9, 0.5, 3.0, 1e8):
            p = EsfParams(n, theta)
            a = laws.kn_pmf(p, "stirling")
            b = laws.kn_pmf(p, "bernoulli_convolution")
            worst = max(worst, float(np.abs(a.probs - b.probs).max()))
            mean, var = laws.kn_mean_var(p)
            # E[K_n] = theta*(psi(n+theta) - psi(theta)); the difference of
            # digammas is only good to a few ulps of its larger term
            psi_n, psi_0 = special.digamma(n + theta), special.digamma(theta)
            slack = 1e-15 * theta * (abs(psi_0) + abs(psi_n)) + 1e-12 * mean
            if abs(mean - theta * (psi_n - psi_0)) > slack:
                raise AssertionError(f"digamma identity mismatch at n={n}, theta={theta}")
            ks = np.arange(1, n + 1)
            mean_pmf = float(ks @ a.probs)
            var_pmf = float((ks - mean_pmf) ** 2 @ a.probs)
            if abs(mean - mean_pmf) > 1e-9 * n or abs(var - var_pmf) > 1e-9 * n:
                raise AssertionError(f"moment mismatch at n={n}, theta={theta}")
    if worst > 1e-12:
        raise AssertionError(f"method disagreement {worst:.2e}")
    return f"max pmf method gap = {worst:.2e}"


def _check_conditioned() -> str:
    worst = 0.0
    for theta in (0.6, 1.0, 3.0):
        p = EsfParams(8, theta)
        table = bruteforce.enumerate_esf(p)
        for part, pr in table.entries:
            full = laws.conditioned_joint_prob(p, 8, tuple(int(c) for c in part.counts))
            worst = max(worst, abs(full - pr))
        marg = bruteforce.joint_prefix_law(p, 2)
        for prefix, pr in marg.items():
            got = laws.conditioned_joint_prob(p, 2, prefix)
            worst = max(worst, abs(got - pr))
    if worst > 1e-10:
        raise AssertionError(f"conditioning mismatch {worst:.2e}")
    return f"max |conditioned - enumerated| = {worst:.2e}"


def _check_tilting() -> str:
    worst = 0.0
    for x in (0.5, 2.0):
        worst = max(worst, laws.tilted_conditioning_check(EsfParams(8, 1.3), x))
    if worst > 1e-10:
        raise AssertionError(f"tilting deviation {worst:.2e}")
    return f"max tilting deviation = {worst:.2e}"


def _check_singleton() -> str:
    p6 = EsfParams(6, 1.7)
    table = bruteforce.enumerate_esf(p6)
    law = laws.singleton_pmf(p6)
    worst = 0.0
    for k in range(7):
        truth = math.fsum(pr for part, pr in table.entries if part.counts[0] == k)
        worst = max(worst, abs(law.prob(k) - truth))
    for n in (25, 40):
        law = laws.singleton_pmf(EsfParams(n, 0.9))
        if float(law.probs.min()) < 0.0:
            raise AssertionError("negative singleton probability")
    if worst > 1e-9:
        raise AssertionError(f"singleton law mismatch {worst:.2e}")
    return f"max |singleton - enumerated| = {worst:.2e}"


def _check_singleton_full_identity(n: int) -> str:
    worst = 0.0
    for theta in (0.5, 3.0):
        p = EsfParams(n, theta)
        direct = regimes.singleton_full_prob(p)
        series = laws.singleton_pmf(p).prob(n)
        if direct > 0.0:
            worst = max(worst, abs(math.log(series) - math.log(direct)))
    if worst > 1e-12:
        raise AssertionError(f"log identity gap {worst:.2e}")
    return f"max log gap = {worst:.2e} at n={n}"


def _check_tlm() -> str:
    worst = 0.0
    for n in (5, 50):
        for theta in (0.5, 4.0):
            p = EsfParams(n, theta)
            law = laws.tlm_pmf(theta, 0, n, n)
            total = math.fsum(law.probs.tolist()) + law.tail_mass
            worst = max(worst, abs(total - 1.0))
            closed = laws.t0n_closed(p)
            if abs(law.prob(n) - closed) > 1e-10 * closed:
                raise AssertionError(f"t0n mismatch at n={n}, theta={theta}")
    if worst > 1e-9:
        raise AssertionError(f"tlm mass defect {worst:.2e}")
    return f"max |mass - 1| = {worst:.2e}"


def _check_sampler_determinism() -> str:
    p = EsfParams(50, 1.5)
    a = sampling.sample_feller(p, sampling.RngState(7), b_max=5)
    b = sampling.sample_feller(p, sampling.RngState(7), b_max=5)
    if a.c_n != b.c_n or not np.array_equal(a.c_inf, b.c_inf):
        raise AssertionError("feller draws differ under identical seeds")
    ca = sampling.sample_crp(p, sampling.RngState(9))
    cb = sampling.sample_crp(p, sampling.RngState(9))
    if ca != cb:
        raise AssertionError("crp draws differ under identical seeds")
    ka = [sampling.sample_kn(p, sampling.RngState(3).substream(i)) for i in range(10)]
    kb = [sampling.sample_kn(p, sampling.RngState(3).substream(i)) for i in range(10)]
    if ka != kb:
        raise AssertionError("kn draws differ under identical seeds")
    return "feller/crp/kn reproduce byte-identically"


def _check_sampler_laws() -> str:
    p = EsfParams(6, 2.0)
    table = bruteforce.enumerate_esf(p)
    m = 20000
    rng_f = sampling.RngState(11)
    rng_c = sampling.RngState(12)
    counts_f: dict[tuple, int] = {}
    counts_c: dict[tuple, int] = {}
    for i in range(m):
        f = sampling.sample_feller(p, rng_f.substream(i), b_max=0).c_n.as_tuple()
        c = sampling.sample_crp(p, rng_c.substream(i)).as_tuple()
        counts_f[f] = counts_f.get(f, 0) + 1
        counts_c[c] = counts_c.get(c, 0) + 1
    tv_f = 0.5 * math.fsum(
        abs(counts_f.get(part.as_tuple(), 0) / m - pr) for part, pr in table.entries
    )
    tv_c = 0.5 * math.fsum(
        abs(counts_c.get(part.as_tuple(), 0) / m - pr) for part, pr in table.entries
    )
    if tv_f > 0.02 or tv_c > 0.02:
        raise AssertionError(f"sampler TV too large: feller {tv_f:.4f}, crp {tv_c:.4f}")
    return f"TV(feller)={tv_f:.4f}, TV(crp)={tv_c:.4f} at M={m}"


def _check_db_oracle() -> str:
    worst = 0.0
    for n in (4, 7, 9):
        for theta in (0.5, 1.0, 2.0):
            for b in (1, n // 2, n - 1):
                de = distances.db_exact(EsfParams(n, theta), b).value
                bf = bruteforce.db_bruteforce(EsfParams(n, theta), b)
                worst = max(worst, abs(de - bf))
    if worst > 1e-10:
        raise AssertionError(f"db mismatch {worst:.2e}")
    return f"max |db_exact - bruteforce| = {worst:.2e}"


def _check_prelim_reports() -> str:
    for n in (2, 10, 100):
        for theta in (0.5, 1.0, 2.0, 10.0, 1e3, 1e6):
            sums, reports = distances.prelim_sums(EsfParams(n, theta))
            bad = [r.name for r in reports if not r.satisfied]
            if bad:
                raise AssertionError(f"unsatisfied at n={n}, theta={theta}: {bad}")
            # p_j + q_j = 1 termwise, so the sums must reproduce n
            if abs(sums.sum_p + sums.sum_q - n) > 1e-10 * n:
                raise AssertionError(f"sum_p + sum_q != n at n={n}, theta={theta}")
    return "all moment-sum sandwiches hold on the grid; sum p + sum q = n"


def _check_bh_contains() -> str:
    for n in (2, 5, 10, 50, 100):
        for theta in (1.0, 2.0):
            p = EsfParams(n, theta)
            lo, up = distances.bh_bounds(laws.success_probs(n, theta))
            tv = distances.kn_poisson_tv(p, "exact_mean").exact_tv.value
            if not lo - 1e-12 <= tv <= up + 1e-12:
                raise AssertionError(f"BH violated at n={n}, theta={theta}")
    return "BH sandwich contains the exact TV on the grid"


def _check_ld() -> str:
    for theta in (0.5, 1.0, 2.0, 5.0):
        for w in (2.0, 4.0, 8.0, 16.0, 32.0):
            for b in (1, 3):
                r = distances.ld_tail_bound(theta, b, w)
                if r.exact_log > r.bound_log + 1e-12:
                    raise AssertionError(f"LD violated at theta={theta}, b={b}, w={w}")
    return "exact tail <= Chernoff bound on the grid"


def _check_appendix() -> str:
    bad = [r.name for r in distances.appendix_checks() if not r.satisfied]
    if bad:
        raise AssertionError(f"unsatisfied: {bad}")
    return "all appendix inequalities hold"


def _check_classify() -> str:
    cases = {
        (1.0, 0.5): "A",
        (2.0, 1.0): "B",
        (1.0, 1.5): "C1",
        (0.5, 2.0): "C2",
        (1.0, 3.0): "C3",
    }
    for (a, beta), label in cases.items():
        rule = regimes.GrowthRule(a, beta)
        got = regimes.classify(rule)
        if got.label != label:
            raise AssertionError(f"rule {a} n^{beta} classified {got.label}")
        r3 = 10**3 / rule.theta_at(10**3)
        r6 = 10**6 / rule.theta_at(10**6)
        if label == "A" and not r6 > r3:
            raise AssertionError("Case A diagnostic not increasing")
        if label in ("C1", "C2", "C3") and not r6 < r3:
            raise AssertionError(f"Case {label} diagnostic not decreasing")
        if label == "B" and not math.isclose(r3, r6):
            raise AssertionError("Case B ratio not constant")
    return "labels and finite-n diagnostics agree"


def _check_sigma2_gap() -> str:
    for n in (10, 100, 1000):
        for theta in (0.5, 2.0, 50.0):
            p = EsfParams(n, theta)
            _, var = laws.kn_mean_var(p)
            s = regimes.standardize(p)
            cap = 1.0 + n / (theta + n) + 1e-12
            if abs(var - s.sigma2) > cap:
                raise AssertionError(f"variance gap {abs(var - s.sigma2):.3f} > {cap:.3f}")
    return "|Var K_n - sigma^2| within the moment-sum slack"


def _check_c2_atoms() -> str:
    for c in (0.5, 2.0, 9.0):
        law = regimes.limit_law(regimes.RegimeCase("C2", c))
        total = float(law.weights.sum())
        if not 1.0 - 1e-15 <= total <= 1.0 + 1e-12:
            raise AssertionError(f"atom mass {total} at c={c}")
    return "C2 atom mass within 1e-15 of 1"


def _check_fclt_exact() -> str:
    path = paths.build_path(laws.Partition((1, 2, 0, 0, 1, 0, 0, 0, 0, 0)))
    from scipy.integrate import quad

    big_l = math.log(10)
    cut = sorted(set(path.jump_u.tolist() + [0.01 / big_l, 1 - 0.01 / big_l]))
    worst = 0.0
    for which in ("X1", "X3", "X4", "X5"):
        _, closed = paths.functional_stat(path, 1.7, which, 0.01)
        num, _ = quad(
            lambda u: paths.process_value(path, 1.7, which, u, 0.01) ** 2,
            0.0,
            1.0,
            points=cut,
            limit=200,
        )
        worst = max(worst, abs(closed - num))
    if worst > 1e-9:
        raise AssertionError(f"closed-form L2 off by {worst:.2e}")
    rng = sampling.RngState(21)
    for i in range(50):
        s = sampling.sample_feller(EsfParams(100, 1.0), rng.substream(i), b_max=0)
        p = paths.build_path(s.c_n)
        if paths.process_value(p, 1.0, "X4", 1.0) != 0.0:
            raise AssertionError("X4(1) != 0 on a sampled partition")
    return f"L2 closed forms match quadrature to {worst:.1e}; X4 pinned at u=1"


def _check_reference_bridge() -> str:
    from .special import kolmogorov_cdf

    ref = paths.reference_functionals(
        "X4", "sup", 0.01, 2**12, 10**4, sampling.RngState(5)
    )
    ks = paths.ks_distance(ref, kolmogorov_cdf)
    if ks > 0.03:
        raise AssertionError(f"reference bridge KS {ks:.4f} > 0.03")
    return f"sup|bridge| vs closed-form cdf: KS = {ks:.4f}"


def _check_zn_normal_mini() -> str:
    from .special import normal_cdf

    z = regimes.zn_mc_distribution(
        regimes.GrowthRule(1.0, 0.5), 10**4, 4000, sampling.RngState(31)
    )
    ks = paths.ks_distance(z, normal_cdf)
    if ks > 0.06:
        raise AssertionError(f"Case A mini KS {ks:.4f} > 0.06")
    return f"Case A mini (n=1e4): KS = {ks:.4f}"


CHECKS: list[tuple[str, bool, Callable[[], str]]] = [
    ("esf_mass", True, _check_esf_mass),
    ("partition_counts", True, _check_partition_counts),
    ("kn_dual_route", True, _check_kn_methods),
    ("conditioned_vs_enumeration", True, _check_conditioned),
    ("tilted_conditioning", True, _check_tilting),
    ("singleton_law", True, _check_singleton),
    ("singleton_full_identity", True, lambda: _check_singleton_full_identity(300)),
    ("singleton_full_identity_1e3", False, lambda: _check_singleton_full_identity(1000)),
    ("tlm_mass", True, _check_tlm),
    ("sampler_determinism", True, _check_sampler_determinism),
    ("sampler_laws_vs_enumeration", False, _check_sampler_laws),
    ("db_exact_vs_bruteforce", True, _check_db_oracle),
    ("moment_sum_sandwiches", True, _check_prelim_reports),
    ("bh_sandwich", True, _check_bh_contains),
    ("ld_tail", True, _check_ld),
    ("appendix_inequalities", True, _check_appendix),
    ("regime_classification", True, _check_classify),
    ("sigma2_variance_gap", True, _check_sigma2_gap),
    ("c2_atom_mass", True, _check_c2_atoms),
    ("fclt_closed_forms", True, _check_fclt_exact),
    ("brownian_reference", False, _check_reference_bridge),
    ("zn_normal_mini", False, _check_zn_normal_mini),
]


def run_checks(quick: bool = False) -> list[CheckResult]:
    """Run the registry (quick subset or everything) and collect results."""
    results = []
    for name, is_quick, fn in CHECKS:
        if quick and not is_quick:
            continue
        try:
            results.append(CheckResult(name, True, fn()))
        except Exception as exc:
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
