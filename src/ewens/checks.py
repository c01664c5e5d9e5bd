"""Runtime self-check registry backing the `check` subcommand.

Each check re-verifies one invariant from the library's contracts: mass
normalization, dual-route agreement, sandwich containment, sampler
determinism, and the closed-form path functionals. `--quick` runs the
sub-second subset; the full run adds the Monte Carlo cross-validations.

A check enumerates each (n, theta) it needs once and reads every prefix
length, marginal and tilt from that `bruteforce.PartitionTable`; nothing
is kept between calls, so each run pays for its own oracles.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import digamma, ndtr

from . import bruteforce, distances, laws, paths, regimes, sampling
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
        total = math.fsum(bruteforce.enumerate_esf(EsfParams(10, theta)).probs)
        worst = max(worst, abs(total - 1.0))
    return f"max |mass - 1| = {worst:.2e}"


def _check_partition_counts() -> str:
    for n in range(1, 17):
        got = len(laws.partitions_of(n))
        if got != _PARTITION_COUNTS[n]:
            raise AssertionError(f"p({n}) = {got}, expected {_PARTITION_COUNTS[n]}")
    return "p(n) matches for n <= 16"


def _check_kn_oracle() -> str:
    worst = 0.0
    for n in (5, 30, 120):
        for theta in (1e-9, 0.5, 3.0, 1e8):
            p = EsfParams(n, theta)
            a = bruteforce.kn_stirling_pmf(p)
            b = laws.kn_pmf(p)
            worst = max(worst, float(np.abs(a.probs - b.probs).max()))
            mean, var = laws.kn_mean_var(p)
            # E[K_n] = theta*(psi(n+theta) - psi(theta)); the difference of
            # digammas is only good to a few ulps of its larger term
            psi_n, psi_0 = digamma(n + theta), digamma(theta)
            slack = 1e-15 * theta * (abs(psi_0) + abs(psi_n)) + 1e-12 * mean
            if abs(mean - theta * (psi_n - psi_0)) > slack:
                raise AssertionError(f"digamma identity mismatch at n={n}, theta={theta}")
            ks = np.arange(1, n + 1)
            mean_pmf = float(ks @ a.probs)
            var_pmf = float((ks - mean_pmf) ** 2 @ a.probs)
            if abs(mean - mean_pmf) > 1e-9 * n or abs(var - var_pmf) > 1e-9 * n:
                raise AssertionError(f"moment mismatch at n={n}, theta={theta}")
    if worst > 1e-12:
        raise AssertionError(f"Stirling oracle and tree disagree by {worst:.2e}")
    return f"max pmf gap, Stirling oracle to tree = {worst:.2e}"


def _check_conditioned() -> str:
    worst = 0.0
    for theta in (0.6, 1.0, 3.0):
        p = EsfParams(8, theta)
        table = bruteforce.enumerate_esf(p)
        full = laws.conditioned_prefix_probs(p, 8, table.counts)
        prefix_law = table.prefix_law(2)
        prefixes = laws.conditioned_prefix_probs(p, 2, prefix_law)
        for got, pr in zip(full + prefixes, list(table.probs) + list(prefix_law.values())):
            worst = max(worst, abs(got - pr))
    if worst > 1e-10:
        raise AssertionError(f"conditioning mismatch {worst:.2e}")
    return f"max |conditioned - enumerated| = {worst:.2e}"


def _check_tilting() -> str:
    table = bruteforce.enumerate_esf(EsfParams(8, 1.3))
    worst = max(table.tilt_deviation(x) for x in (0.5, 2.0))
    if worst > 1e-10:
        raise AssertionError(f"tilting deviation {worst:.2e}")
    return f"max tilting deviation = {worst:.2e}"


def _check_singleton() -> str:
    p6 = EsfParams(6, 1.7)
    truth = bruteforce.enumerate_esf(p6).prefix_law(1)
    law = laws.singleton_pmf(p6)
    worst = 0.0
    for k in range(7):
        worst = max(worst, abs(law.prob(k) - truth.get((k,), 0.0)))
    for n in (25, 40):
        law = laws.singleton_pmf(EsfParams(n, 0.9))
        if float(law.probs.min()) < 0.0:
            raise AssertionError("negative singleton probability")
    defect = abs(math.fsum(laws.singleton_pmf(EsfParams(40, 1e7)).probs) - 1.0)
    if defect > 1e-12:
        raise AssertionError(f"singleton mass defect {defect:.2e} at n=40, theta=1e7")
    if worst > 1e-9:
        raise AssertionError(f"singleton law mismatch {worst:.2e}")
    return f"max |singleton - enumerated| = {worst:.2e}, mass defect {defect:.2e} at theta=1e7"


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
            closed = math.exp(laws.t0n_log(p))
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
    gen = sampling.RngState(3).generator()
    ka = [sampling.sample_kn(p, gen) for _ in range(10)]
    gen = sampling.RngState(3).generator()
    kb = [sampling.sample_kn(p, gen) for _ in range(5)]
    if ka[:5] != kb:
        raise AssertionError("a rerun of 5 kn draws on one stream does not start the run of 10")
    return "feller/crp/kn reproduce byte-identically; 5 kn draws on a stream start 10"


def _check_sampler_laws() -> str:
    m = 20000
    samplers = (("feller", 11, lambda p, gen: sampling.sample_feller(p, gen).c_n), ("crp", 12, sampling.sample_crp))
    tvs = {}
    for theta in (0.01, 0.1, 2.0):
        p = EsfParams(6, theta)
        for name, seed, draw in samplers:
            gen = sampling.RngState(seed).generator()
            counts = Counter(draw(p, gen).as_tuple() for _ in range(m))
            table = bruteforce.enumerate_esf(p)
            tvs[name, theta] = 0.5 * math.fsum(abs(counts[c] / m - pr) for c, pr in zip(table.counts, table.probs))
    detail = ", ".join(f"TV({name}, theta={theta})={tv:.4f}" for (name, theta), tv in tvs.items())
    if max(tvs.values()) > 0.02:
        raise AssertionError(f"sampler TV too large: {detail}")
    return f"{detail} at M={m}"


def _check_db_oracle() -> str:
    worst = 0.0
    for n in (4, 7, 9):
        for theta in (0.5, 1.0, 2.0):
            p = EsfParams(n, theta)
            table = bruteforce.enumerate_esf(p)
            for b in (1, n // 2, n - 1):
                worst = max(worst, abs(distances.db_exact(p, b).value - table.poisson_tv(b)))
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
    counts = (1, 2, 0, 0, 1, 0, 0, 0, 0, 0)
    path = paths.build_path(laws.Partition(counts))
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
    # X2 lives on the grid j = 1..n: its L2 is sum_{j<n} v_j^2 w_j / log n
    direct = []
    for j in range(1, 10):
        h = math.fsum(1.0 / i for i in range(1, j + 1))
        v = (sum(counts[:j]) - 1.7 * h) / math.sqrt(1.7 * h)
        direct.append(v * v * math.log1p(1.0 / j))
    _, closed = paths.functional_stat(path, 1.7, "X2", 0.01)
    worst = max(worst, abs(closed - math.fsum(direct) / big_l))
    if worst > 1e-9:
        raise AssertionError(f"closed-form L2 off by {worst:.2e}")
    gen = sampling.RngState(21).generator()
    for _ in range(50):
        s = sampling.sample_feller(EsfParams(100, 1.0), gen)
        p = paths.build_path(s.c_n)
        if paths.process_value(p, 1.0, "X4", 1.0) != 0.0:
            raise AssertionError("X4(1) != 0 on a sampled partition")
    return f"L2 closed forms match quadrature and the X2 grid sum to {worst:.1e}; X4 pinned at u=1"


def _check_reference_laws() -> str:
    # one simulation per law: X2's reference walks are X1's, bit for bit
    laws_once: dict = {}
    for pair, cdf in paths.EXACT_REFERENCES.items():
        laws_once.setdefault(cdf, pair)
    found = []
    for cdf, (which, stat) in laws_once.items():
        ref = paths.reference_functionals(which, stat, 0.01, 2**12, 10**4, sampling.RngState(5))
        ks = paths.ks_distance(ref, cdf)
        if ks > 0.03:
            raise AssertionError(f"simulated {which}-{stat} reference vs {cdf.__name__}: KS {ks:.4f} > 0.03")
        found.append(f"{which}-{stat} {ks:.4f}")
    return f"simulated references vs closed-form cdfs, KS: {', '.join(found)}"


def _check_zn_normal_mini() -> str:
    z = regimes.zn_mc_distribution(
        regimes.GrowthRule(1.0, 0.5), 10**4, 4000, sampling.RngState(31)
    )
    ks = paths.ks_distance(z, ndtr)
    if ks > 0.06:
        raise AssertionError(f"Case A mini KS {ks:.4f} > 0.06")
    return f"Case A mini (n=1e4): KS = {ks:.4f}"


CHECKS: list[tuple[str, bool, Callable[[], str]]] = [
    ("esf_mass", True, _check_esf_mass),
    ("partition_counts", True, _check_partition_counts),
    ("kn_dual_route", True, _check_kn_oracle),
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
    ("brownian_reference", False, _check_reference_laws),
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
